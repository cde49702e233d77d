import json
import os
import random
from itertools import combinations

import pytest

from packings import (
    ConstantWeightCode,
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
    write_file,
)
from packings.cli import main


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

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"design"', "null"])
    def test_json_value_must_be_an_object(self, text):
        with pytest.raises(StructuralError) as exc:
            loads_design(text)
        assert (exc.type, str(exc.value)) == (
            StructuralError, "malformed design file: expected a JSON object"
        )

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

    def test_an_accepted_document_always_loads_back(self):
        # the document checks its header itself, so a file it writes is never refused
        rng = random.Random(31)
        fields = (1, 2, 3, 4, 6, 0, -1, None, 1.5, True, "2")
        accepted = 0
        for _ in range(2000):
            v, k, t, lam = (rng.choice(fields) for _ in range(4))
            # some blocks are longer than k, and a point may be out of range
            blocks = [rng.sample(range(4), rng.randint(0, 4)) for _ in range(rng.randint(0, 3))]
            for kind in (PackingDesign, DirectedPackingDesign):
                try:
                    doc = DesignDocument(kind(v, blocks), k, t, lam)
                except ValueError:
                    continue
                accepted += 1
                assert loads_design(dumps_design(doc)) == doc, (v, k, t, lam, blocks)
        assert accepted >= 100

    def test_header_faults_name_the_field(self, pack_6_3):
        cases = [
            ((3, 1.5, 1), "'t' must be an integer"),
            ((3, True, "1"), "'t' must be an integer"),
            ((3, 2, None), "'lambda' must be an integer"),
            ((3, 0, 1), "need t, lambda >= 1, got 0, 1"),
            (("3", 2, 0), "need t, lambda >= 1, got 2, 0"),
            ((3.0, 2, 1), "'k' must be an integer"),
            ((2, 2, 1), "block (0, 1, 2) larger than k=2"),
        ]
        for (k, t, lam), message in cases:
            with pytest.raises(StructuralError) as exc:
                DesignDocument(pack_6_3, k, t, lam)
            assert str(exc.value) == message
            data = {"v": 6, "k": k, "t": t, "lambda": lam, "directed": False,
                    "blocks": [list(block) for block in pack_6_3.blocks]}
            with pytest.raises(StructuralError) as exc:
                design_from_dict(data)
            assert str(exc.value) == f"malformed design file: {message}"

    def test_a_bad_point_is_named_ahead_of_a_bad_header(self):
        with pytest.raises(StructuralError) as exc:
            loads_design(
                '{"v": 3, "k": 1, "t": 0, "lambda": 1, "directed": false, "blocks": [[0, 3]]}'
            )
        assert str(exc.value) == "point 3 out of range for v=3"

    def test_save_refuses_a_bad_header_before_it_writes(self, tmp_path):
        path = tmp_path / "design.json"
        path.write_text("kept\n")
        for k, t, lam in ((2, 2, 1), (3, 0, 1), (3, 2, 1.0)):
            with pytest.raises(StructuralError):
                save_design(path, PackingDesign(6, [[0, 1, 2]]), k=k, t=t, lam=lam)
            assert path.read_bytes() == b"kept\n"

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

    def test_an_accepted_code_always_loads_back(self):
        # a code refuses at once, with a ValueError, any word its file could not hold
        rng = random.Random(11)
        entries = (0, 1, 2, 0.0, 1.0, 0.5, True, False, "a")
        accepted = 0
        for _ in range(500):
            words = [tuple(rng.choice(entries) for _ in range(2)) for _ in range(rng.randint(1, 3))]
            for make, first, second in ((IndelCode, 3, 2), (ConstantWeightCode, 2, 1)):
                try:
                    code = make(first, second, words)
                except ValueError:
                    continue
                accepted += 1
                assert code_from_dict(json.loads(dumps_code(code))) == code, words
        assert accepted

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


    @pytest.mark.parametrize(
        "data,error,message",
        [
            ({"type": "cw", "length": -3, "weight": -1, "words": []},
             ValueError, "length must be at least 0, got -3"),
            ({"type": "cw", "length": 3, "weight": 5, "words": []},
             ValueError, "weight must be within 0..3, got 5"),
            ({"type": "cw", "length": True, "weight": 1, "words": ["1"]},
             StructuralError, "malformed code file: 'length' must be an integer"),
            ({"type": "indel", "length": 1, "alphabet": 2.5, "words": [[0]]},
             StructuralError, "malformed code file: 'alphabet' must be an integer"),
            ({"type": "indel", "length": -4, "alphabet": -2, "words": []},
             ValueError, "alphabet_size must be at least 1, got -2"),
            ({"type": "indel", "length": -1, "alphabet": -5, "words": []},
             ValueError, "alphabet_size must be at least 1, got -5"),
            ({"type": "indel", "length": -1, "alphabet": 5, "words": []},
             ValueError, "word_length must be at least 0, got -1"),
        ],
    )
    def test_nonsense_parameters_are_refused(self, tmp_path, data, error, message):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(data))
        with pytest.raises(error) as info:
            load_code(path)
        assert str(info.value) == message


class TestWriteInPlace:
    """Every file is written by ``write_file``: in place, then cut to the length written."""

    STALE = "x" * 100_000 + "\n"  # longer than every text written below

    @staticmethod
    def cli_text(capsys, argv):
        """What the command prints without ``-o``: the text that ``-o`` must write."""
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize(
        "writer", ["construct -o", "direct -o", "export-code -o", "save_design", "save_code"]
    )
    def test_a_longer_file_is_cut_to_the_new_text(
        self, writer, tmp_path, capsys, twofold_12_7, directed_12_7
    ):
        source, ordered = tmp_path / "twofold.json", tmp_path / "directed.json"
        save_design(source, twofold_12_7, k=7, t=2, lam=2)
        save_design(ordered, directed_12_7, k=7)
        code = to_indel_code(directed_12_7, DesignParams(12, 7, 2, 1))
        argv = {
            "construct -o": ["construct", "--v", "8", "--k", "4"],
            "direct -o": ["direct", "-i", str(source)],
            "export-code -o": ["export-code", "-i", str(ordered), "--format", "indel"],
        }.get(writer)
        target = tmp_path / "out.json"
        target.write_text(self.STALE)
        if argv is not None:
            text = self.cli_text(capsys, argv)
            assert main([*argv, "-o", str(target)]) == 0
        elif writer == "save_design":
            text = dumps_design(DesignDocument(twofold_12_7, 7, 2, 2))
            save_design(target, twofold_12_7, k=7, t=2, lam=2)
        else:
            text = dumps_code(code)
            save_code(target, code)
        assert target.read_text(encoding="utf-8") == text
        if writer in ("export-code -o", "save_code"):
            assert load_code(target) == code_from_dict(json.loads(text))
        else:
            assert load_design(target) == loads_design(text)

    def test_dev_null_is_written_without_error(self, capsys):
        assert main(["construct", "--v", "8", "--k", "4", "-o", os.devnull]) == 0
        assert capsys.readouterr().out.endswith(f"-> {os.devnull}\n")

    def test_a_new_file_gets_the_mode_that_open_gives(self, tmp_path, capsys):
        old = os.umask(0o027)
        try:
            assert main(["construct", "--v", "8", "--k", "4", "-o", str(tmp_path / "a.json")]) == 0
            write_file(tmp_path / "b.json", "{}\n")
            with open(tmp_path / "c.json", "w"):
                pass
        finally:
            os.umask(old)
        for name in ("a.json", "b.json", "c.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o640, name

    def test_a_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text(self.STALE)
        link.symlink_to(target)
        write_file(link, "{}\n")
        assert link.is_symlink() and target.read_text() == "{}\n"

    def test_a_directory_is_refused_in_one_line(self, tmp_path, capsys):
        assert main(["construct", "--v", "8", "--k", "4", "-o", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "Is a directory" in lines[0]
