import json
import random
from itertools import combinations

import pytest

from packings import (
    DesignParams,
    DirectedPackingDesign,
    IndelCode,
    PackingDesign,
    StructuralError,
    add_constant_words,
    load_code,
    load_design,
    save_code,
    save_design,
    to_constant_weight,
    to_indel_code,
)
from packings.io import (
    DesignDocument,
    code_from_dict,
    code_to_dict,
    design_from_dict,
    design_to_dict,
    dumps_code,
    dumps_design,
    loads_design,
)


class TestDesignFiles:
    def test_round_trip(self, tmp_path, pack_6_3):
        path = tmp_path / "design.json"
        save_design(path, pack_6_3, k=3, t=2, lam=1)
        doc = load_design(path)
        assert doc.design == pack_6_3
        assert (doc.k, doc.t, doc.lam, doc.directed) == (3, 2, 1, False)
        assert doc.params == DesignParams(6, 3, 2, 1)

    def test_directed_round_trip(self, tmp_path, directed_6_4):
        path = tmp_path / "design.json"
        save_design(path, directed_6_4, k=4)
        doc = load_design(path)
        assert doc.directed
        assert doc.design.blocks == directed_6_4.blocks

    def test_key_order_in_output(self, pack_6_3):
        text = dumps_design(DesignDocument(pack_6_3, 3, 2, 1))
        keys = list(json.loads(text))
        assert keys == ["v", "k", "t", "lambda", "directed", "blocks"]

    def test_key_order_irrelevant_on_read(self):
        data = {
            "blocks": [[0, 1]],
            "directed": False,
            "lambda": 1,
            "t": 2,
            "k": 2,
            "v": 3,
        }
        doc = design_from_dict(data)
        assert doc.design.blocks == ((0, 1),)

    def test_variable_size_design(self, tmp_path):
        d = PackingDesign(5, ((), (0, 1, 2), (0, 3)))
        path = tmp_path / "var.json"
        save_design(path, d, k=None, t=2, lam=2)
        doc = load_design(path)
        assert doc.k is None
        assert doc.design == d
        with pytest.raises(ValueError):
            doc.params

    def test_point_out_of_range(self):
        with pytest.raises(StructuralError, match="out of range"):
            loads_design(
                '{"v": 3, "k": 2, "t": 2, "lambda": 1, "directed": false, "blocks": [[0, 3]]}'
            )

    def test_duplicate_point_in_directed_block(self):
        with pytest.raises(StructuralError, match="duplicate"):
            loads_design(
                '{"v": 4, "k": 3, "t": 2, "lambda": 1, "directed": true, "blocks": [[1, 0, 1]]}'
            )

    def test_missing_keys(self):
        with pytest.raises(StructuralError, match="missing keys"):
            loads_design('{"v": 3, "blocks": []}')

    def test_not_json(self):
        with pytest.raises(StructuralError, match="malformed"):
            loads_design("not json at all")

    def test_oversized_block(self):
        with pytest.raises(StructuralError, match="larger than k"):
            loads_design(
                '{"v": 5, "k": 2, "t": 2, "lambda": 1, "directed": false, "blocks": [[0, 1, 2]]}'
            )

    def test_bad_types(self):
        with pytest.raises(StructuralError):
            loads_design(
                '{"v": "six", "k": 3, "t": 2, "lambda": 1, "directed": false, "blocks": []}'
            )
        with pytest.raises(StructuralError):
            loads_design(
                '{"v": 6, "k": 3, "t": 2, "lambda": 1, "directed": 1, "blocks": []}'
            )
        for point in ("true", "1.5", '"1"', "null"):
            text = ('{"v": 6, "k": 3, "t": 2, "lambda": 1, "directed": false, '
                    f'"blocks": [[0, 1], [2, {point}, 3]]}}')
            with pytest.raises(StructuralError, match="is not an integer"):
                loads_design(text)
        with pytest.raises(StructuralError, match="list of integer lists"):
            loads_design(
                '{"v": 6, "k": 3, "t": 2, "lambda": 1, "directed": false, "blocks": [[0], 1]}'
            )

    def test_written_as_one_line_and_read_in_any_layout(self, pack_6_3, directed_6_4):
        for doc in (DesignDocument(pack_6_3, 3, 2, 1), DesignDocument(directed_6_4, 4, 2, 1)):
            text = dumps_design(doc)
            assert text.count("\n") == 1 and text.endswith("\n")
            assert json.loads(text) == design_to_dict(doc)
            assert loads_design(text) == doc
            assert loads_design(json.dumps(json.loads(text), indent=2)) == doc

    def test_nonpositive_t_or_lambda(self):
        for t, lam in [(0, 1), (2, 0), (-1, 1), (2, -3)]:
            with pytest.raises(StructuralError, match="lambda >= 1"):
                design_from_dict(
                    {"v": 4, "k": 3, "t": t, "lambda": lam, "directed": False, "blocks": []}
                )


class TestCodeFiles:
    def test_constant_weight_round_trip(self, tmp_path, pack_6_3):
        code = to_constant_weight(pack_6_3, DesignParams(6, 3, 2, 1))
        path = tmp_path / "code.json"
        save_code(path, code)
        data = json.loads(path.read_text())
        assert data["type"] == "cw"
        assert data["words"][0] == "111000"  # leftmost character is point 0
        assert load_code(path) == code

    def test_constant_weight_words_match_the_per_bit_form(self):
        # words and files as when each bit was built and written one at a time
        rng = random.Random(7)
        for _ in range(60):
            v = rng.randrange(3, 40)
            k = rng.randrange(2, min(v, 8) + 1)
            blocks, pairs = [], set()
            for _ in range(rng.randrange(1, 30)):
                block = tuple(sorted(rng.sample(range(v), k)))
                if pairs.isdisjoint(combinations(block, 2)):
                    pairs.update(combinations(block, 2))
                    blocks.append(block)
            code = to_constant_weight(PackingDesign(v, tuple(blocks)), DesignParams(v, k, 2, 1))
            words = [tuple(1 if x in block else 0 for x in range(v)) for block in blocks]
            assert list(code.words) == words
            texts = ["".join(str(bit) for bit in w) for w in words]
            assert code_to_dict(code)["words"] == texts
            assert dumps_code(code) == json.dumps(
                {"type": "cw", "length": v, "weight": k, "words": texts}
            ) + "\n"

    def test_indel_round_trip(self, tmp_path, directed_6_4):
        code = to_indel_code(directed_6_4, DesignParams(6, 4, 2, 1))
        path = tmp_path / "code.json"
        save_code(path, code)
        data = json.loads(path.read_text())
        assert data["type"] == "indel"
        assert data["alphabet"] == 6 and data["length"] == 4
        assert load_code(path) == code
        # the file records no allow_repeats; codes that allow repeats but have
        # none load back without the permission, and still compare equal
        for code in (
            add_constant_words(IndelCode(3, 1, ())),
            IndelCode(3, 2, ((0, 1),), allow_repeats=True),
        ):
            save_code(path, code)
            assert load_code(path) == code, code

    def test_indel_round_trip_beyond_pairs(self, tmp_path):
        # a t = 3 code loads back equal: the file holds everything the code holds
        design = DirectedPackingDesign(4, ((0, 1, 2, 3), (3, 2, 1, 0)))
        code = to_indel_code(design, DesignParams(4, 4, 3, 1))
        path = tmp_path / "code.json"
        save_code(path, code)
        assert load_code(path) == code

    def test_repeat_words_survive_round_trip(self, tmp_path, directed_6_4):
        code = add_constant_words(to_indel_code(directed_6_4, DesignParams(6, 4, 2, 1)))
        path = tmp_path / "code.json"
        save_code(path, code)
        back = load_code(path)
        assert back.allow_repeats and back.words == code.words

    def test_written_as_one_line(self, pack_6_3, directed_6_4):
        for code in (
            to_constant_weight(pack_6_3, DesignParams(6, 3, 2, 1)),
            to_indel_code(directed_6_4, DesignParams(6, 4, 2, 1)),
        ):
            text = dumps_code(code)
            assert text.count("\n") == 1 and text.endswith("\n")
            assert json.loads(text) == code_to_dict(code)
            assert code_from_dict(json.loads(text)) == code

    def test_unknown_type(self, tmp_path):
        path = tmp_path / "code.json"
        path.write_text('{"type": "mystery", "words": []}')
        with pytest.raises(StructuralError, match="unknown type"):
            load_code(path)

    def test_missing_key(self):
        with pytest.raises(StructuralError, match=r"missing keys \['weight'\]"):
            code_from_dict({"type": "cw", "length": 3, "words": ["110"]})
        with pytest.raises(StructuralError, match=r"missing keys \['alphabet'\]"):
            code_from_dict({"type": "indel", "length": 2, "words": [[0, 1]]})

    def test_malformed_values(self):
        for data in (
            {"type": "cw", "length": 3, "weight": 2, "words": ["1x0"]},
            {"type": "cw", "length": 3, "weight": 2, "words": ["1\u06610"]},  # a non-ASCII digit
            {"type": "cw", "length": 3, "weight": 2, "words": [[1, 1, 0]]},
            {"type": "cw", "length": 3, "weight": 2, "words": "110"},
            {"type": "cw", "length": "3", "weight": 2, "words": ["110"]},
            {"type": "indel", "length": 2, "alphabet": 3, "words": 5},
            {"type": "indel", "length": 2, "alphabet": 3, "words": [5]},
            {"type": "indel", "length": 2, "alphabet": 3, "words": [[0, "1"]]},
            {"type": "indel", "length": 2, "alphabet": 3, "words": [[0, True]]},
            {"type": "indel", "length": "2", "alphabet": 3, "words": [[0, 1]]},
            {"type": "indel", "length": 2, "alphabet": 3.0, "words": [[0, 1]]},
        ):
            with pytest.raises(StructuralError, match="malformed code file"):
                code_from_dict(data)
