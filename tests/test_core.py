import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from packings import (
    BoundReport,
    ConstantWeightCode,
    DesignDocument,
    DesignParams,
    DirectedPackingDesign,
    IndelCode,
    PackingDesign,
    SearchConfig,
    StructuralError,
    ValidationReport,
    is_subsequence,
    structural_diagnostics,
    underlying_design,
    validate_directed,
    validate_packing,
)
from packings import core
from packings.core import require_valid
from conftest import make_packing, make_two_fold


def brute_worst(blocks, t):
    """Independent multiplicity oracle: every ordered t-tuple against every block.

    A tuple occurs in a block when its points appear there in tuple order,
    so a sorted block holds exactly its ascending t-subsets.
    """
    points = sorted({x for block in blocks for x in block})
    positions = [{x: i for i, x in enumerate(block)} for block in blocks]
    worst, top = None, 0
    for tup in permutations(points, t):  # ascending, so the first maximum is the least
        count = sum(
            all(x in pos for x in tup) and all(pos[a] < pos[b] for a, b in zip(tup, tup[1:]))
            for pos in positions
        )
        if count > top:
            worst, top = tup, count
    return worst, top


def random_design(rng, directed):
    """Arbitrary blocks on at most nine points, valid or not, some repeated."""
    v = rng.randrange(3, 10)
    blocks = [
        tuple(rng.sample(range(v), rng.randrange(0, v + 1))) for _ in range(rng.randrange(0, 7))
    ]
    if blocks and rng.random() < 0.3:
        blocks.append(blocks[0])
    return DirectedPackingDesign(v, tuple(blocks)) if directed else PackingDesign(v, tuple(blocks))


class TestTypes:
    def test_params_invariants(self):
        with pytest.raises(ValueError):
            DesignParams(3, 4, 2, 1)
        with pytest.raises(ValueError):
            DesignParams(4, 3, 2, 0)

    def test_blocks_are_canonicalized(self):
        d = PackingDesign(5, ((3, 1, 2), (4, 0)))
        assert d.blocks == ((1, 2, 3), (0, 4))

    def test_point_out_of_range(self):
        with pytest.raises(StructuralError, match=r"^point 4 out of range for v=4$"):
            PackingDesign(4, ((0, 4),))
        with pytest.raises(StructuralError, match=r"^point -1 out of range for v=4$"):
            DirectedPackingDesign(4, ((0, -1),))
        # the first bad point of the first bad block, in canonical order, is named
        with pytest.raises(StructuralError, match=r"^point 7 out of range for v=4$"):
            DirectedPackingDesign(4, ((0, 1), (7, 2, 2), (9,)))

    def test_duplicate_point_in_block(self):
        with pytest.raises(StructuralError, match=r"^duplicate point 1 in block \(0, 1, 1\)$"):
            PackingDesign(4, ((0, 1, 1),))
        with pytest.raises(StructuralError, match=r"^duplicate point 2 in block \(2, 0, 2\)$"):
            DirectedPackingDesign(4, ((2, 0, 2),))
        with pytest.raises(StructuralError, match=r"^duplicate point 1 in block \(1, 1, 7\)$"):
            PackingDesign(4, ((0, 1), (7, 1, 1), (9,)))

    @pytest.mark.parametrize("kind", [PackingDesign, DirectedPackingDesign])
    @pytest.mark.parametrize("blocks,bad", [
        (((0, 1), (0.5, 1, 2)), "0.5"),
        (((0, 1), (True, 3, 4)), "True"),
        ([(0.5, 1, 2), (True, 3, 4)], "0.5"),
        ([(0, 1), (3, "1", 2)], "'1'"),
    ])
    def test_points_must_be_integers(self, kind, blocks, bad):
        # a float or a bool compares and hashes like an int, so only its type gives it away;
        # a str is named before sorting the block could compare it with an int
        with pytest.raises(StructuralError, match=rf"^point {bad} is not an integer$"):
            kind(5, blocks)

    @pytest.mark.parametrize("kind", [PackingDesign, DirectedPackingDesign])
    @pytest.mark.parametrize("v", [0, -3])
    def test_design_needs_a_positive_point_count(self, kind, v):
        with pytest.raises(StructuralError) as exc:
            kind(v, ())
        assert (exc.type, str(exc.value)) == (StructuralError, f"v must be positive, got {v}")

    def test_directed_order_preserved(self):
        d = DirectedPackingDesign(5, ((3, 1, 2),))
        assert d.blocks == ((3, 1, 2),)

    def test_the_two_kinds_stay_distinct(self):
        # same v and blocks (sorted, so both keep them as given), yet unequal
        plain = PackingDesign(5, ((0, 1, 2), (2, 3)))
        ordered = DirectedPackingDesign(5, ((0, 1, 2), (2, 3)))
        assert plain.blocks == ordered.blocks
        assert plain != ordered and ordered != plain
        assert len({plain, ordered, PackingDesign(5, ((2, 1, 0), (3, 2)))}) == 2
        assert repr(plain) == "PackingDesign(v=5, blocks=((0, 1, 2), (2, 3)))"
        assert repr(ordered) == "DirectedPackingDesign(v=5, blocks=((0, 1, 2), (2, 3)))"

    def test_designs_are_frozen(self):
        for design in (PackingDesign(4, ((0, 1),)), DirectedPackingDesign(4, ((1, 0),))):
            with pytest.raises(AttributeError, match="'v'"):
                design.v = 5
            with pytest.raises(AttributeError, match="'blocks'"):
                design.blocks = ()

    def test_one_validator_under_two_names(self):
        assert validate_directed is validate_packing


class TestValidatePacking:
    def test_known_optimal_triple_packing(self, pack_6_3):
        report = validate_packing(pack_6_3, DesignParams(6, 3, 2, 1))
        assert report.valid
        assert report.worst_multiplicity == 1

    def test_single_block_always_valid(self):
        for v, k, t, lam in [(8, 5, 2, 1), (6, 6, 3, 1), (9, 4, 4, 2)]:
            d = PackingDesign(v, (tuple(range(k)),))
            assert validate_packing(d, DesignParams(v, k, t, lam)).valid

    def test_repeated_pair_detected(self):
        d = PackingDesign(4, ((0, 1, 2), (0, 1, 3)))
        report = validate_packing(d, DesignParams(4, 3, 2, 1))
        assert not report.valid
        assert (report.worst_t_set, report.worst_multiplicity) == brute_worst(d.blocks, 2)
        assert report.worst_t_set == (0, 1) and report.worst_multiplicity == 2

    def test_repeated_blocks_count_separately(self):
        d = PackingDesign(5, ((0, 1, 2), (0, 1, 2)))
        assert not validate_packing(d, DesignParams(5, 3, 2, 1)).valid
        assert validate_packing(d, DesignParams(5, 3, 2, 2)).valid

    def test_params_mismatch_rejected(self, pack_6_3):
        with pytest.raises(ValueError):
            validate_packing(pack_6_3, DesignParams(7, 3, 2, 1))
        with pytest.raises(ValueError):
            validate_packing(pack_6_3, DesignParams(6, 2, 2, 1))

    def test_uniform_mode(self):
        d = PackingDesign(6, ((0, 1), (2, 3, 4)))
        assert validate_packing(d, DesignParams(6, 3, 2, 1)).valid
        with pytest.raises(ValueError):
            validate_packing(d, DesignParams(6, 3, 2, 1), uniform=True)

    def test_random_designs_agree_with_brute_oracle(self, rng):
        for _ in range(50):
            d = make_two_fold(rng, v_max=9)
            report = validate_packing(d, DesignParams(d.v, d.v, 2, 2))
            assert (report.worst_t_set, report.worst_multiplicity) == brute_worst(d.blocks, 2)
            assert report.valid == (report.worst_multiplicity <= 2)
        for directed, validate in ((False, validate_packing), (True, validate_directed)):
            for t in (2, 3):
                for _ in range(60):
                    d = random_design(rng, directed)
                    lam = rng.randrange(1, 4)
                    report = validate(d, DesignParams(d.v, d.v, t, lam))
                    worst, mult = brute_worst(d.blocks, t)
                    assert (report.worst_t_set, report.worst_multiplicity) == (worst, mult)
                    assert report.valid == (mult <= lam)

    def test_require_valid_names_the_witness(self):
        d = PackingDesign(4, ((0, 1, 2), (0, 1, 3)))
        require_valid(d, DesignParams(4, 3, 2, 2))
        with pytest.raises(ValueError, match=r"lam=1: t-set \(0, 1\) has multiplicity 2"):
            require_valid(d, DesignParams(4, 3, 2, 1))
        directed = DirectedPackingDesign(4, ((0, 1, 2), (3, 1, 2)))
        with pytest.raises(ValueError, match=r"t-set \(1, 2\) has multiplicity 2"):
            require_valid(directed, DesignParams(4, 3, 2, 1), uniform=True)

    def test_require_valid_names_the_witness_blocks(self):
        d = PackingDesign(5, ((0, 1, 2), (2, 3, 4), (0, 1, 3), (0, 1, 4)))
        with pytest.raises(ValueError, match=r"multiplicity 3 in blocks \(0, 2, 3\)$"):
            require_valid(d, DesignParams(5, 3, 2, 2))

    def test_report_names_the_blocks_holding_the_worst_t_set(self, rng):
        for directed, validate in ((False, validate_packing), (True, validate_directed)):
            for t in (1, 2, 3):
                for _ in range(40):
                    d = random_design(rng, directed)
                    lam = rng.randrange(1, 4)
                    report = validate(d, DesignParams(d.v, d.v, t, lam))
                    assert report.valid == (report.worst_multiplicity <= lam)
                    if report.worst_t_set is None:
                        assert report.blocks == ()
                        continue
                    holders = tuple(
                        i for i, b in enumerate(d.blocks) if is_subsequence(report.worst_t_set, b)
                    )
                    assert report.blocks == holders
                    assert len(holders) == report.worst_multiplicity


def few_large_blocks(rng, directed):
    """Two to five blocks of up to 40 points, the shape on which the walk is chosen.

    Most blocks are one base block with points dropped and, when directed,
    one pair swapped, so that subsets of blocks share long chains.
    """
    v = rng.randrange(2, 46)
    base = rng.sample(range(v), rng.randrange(0, min(v, 40) + 1))
    blocks = []
    for _ in range(rng.randrange(2, 6)):
        if rng.random() < 0.6:
            block = [x for x in base if rng.random() < 0.9]
            if directed and len(block) > 1 and rng.random() < 0.5:
                i, j = rng.sample(range(len(block)), 2)
                block[i], block[j] = block[j], block[i]
        elif rng.random() < 0.5 and blocks:
            block = list(blocks[0])
        else:
            block = rng.sample(range(v), rng.randrange(0, min(v, 40) + 1))
        blocks.append(tuple(block) if directed else tuple(sorted(block)))
    return blocks


class TestMultiplicityPaths:
    """The count and the intersection walk, called directly, against the brute oracle."""

    def both_paths(self, blocks, t):
        counted = core._counter_worst(blocks, t)
        walked = core._intersection_worst(blocks, t, math.inf)
        assert walked == counted, (blocks, t)
        return counted

    def test_small_designs_agree_with_brute_oracle(self, rng):
        for directed in (False, True):
            for t in (1, 2, 3):
                for _ in range(150):
                    d = random_design(rng, directed)
                    assert self.both_paths(d.blocks, t) == brute_worst(d.blocks, t)

    def test_few_large_blocks_agree(self, rng):
        for directed in (False, True):
            for t in (1, 2, 3):
                for _ in range(60):
                    blocks = few_large_blocks(rng, directed)
                    found = self.both_paths(blocks, t)
                    if t < 3:
                        assert found == brute_worst(blocks, t)

    def test_two_fold_packings_agree(self, rng):
        for _ in range(100):
            d = make_two_fold(rng, v_max=12)
            assert self.both_paths(d.blocks, 2) == brute_worst(d.blocks, 2)

    def test_ordered_blocks_beyond_multiplicity_one(self):
        blocks = ((0, 1, 2, 3), (3, 2, 1, 0), (0, 1, 2, 3))
        assert self.both_paths(blocks, 2) == ((0, 1), 2) == brute_worst(blocks, 2)
        # (0, 2), (0, 3), (1, 3) and (2, 3) keep their order in three blocks,
        # no pair in all four
        blocks = ((1, 0, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3), (2, 3, 1, 0))
        assert self.both_paths(blocks, 2) == ((0, 2), 3) == brute_worst(blocks, 2)
        # the walk must compare all three orders, not just pairs of blocks
        blocks = ((0, 1, 2, 3, 4), (2, 0, 3, 1, 4), (1, 3, 0, 4, 2))
        assert self.both_paths(blocks, 3) == brute_worst(blocks, 3)

    def test_no_block_with_t_points(self):
        for blocks in ((), ((),), ((0, 1), (2,))):
            assert self.both_paths(blocks, 3) == (None, 0)
            assert core.worst_multiplicity(blocks, 3) == (None, 0)

    def test_walk_hands_over_past_its_budget(self):
        blocks = tuple(tuple(range(12)) for _ in range(8))
        budget = sum(math.comb(len(b), 2) for b in blocks)
        assert core._intersection_worst(blocks, 2, budget) is None
        assert core.worst_multiplicity(blocks, 2) == ((0, 1), 8)
        reordered = tuple(tuple(reversed(b)) if i % 2 else b for i, b in enumerate(blocks))
        assert core._intersection_worst(reordered, 2, budget) is None
        assert core.worst_multiplicity(reordered, 2) == ((0, 1), 4)

    def test_repeated_points_go_to_the_count(self):
        assert core._intersection_worst(((0, 0, 1), (0, 1)), 2, math.inf) is None
        assert core.worst_multiplicity(((0, 0, 1), (0, 1)), 2) == ((0, 1), 3)

    @staticmethod
    def other_positions(rng, s):
        """Positions of s common points in one other block.

        Half of the time the block holds them in reverse, so that no chain
        rises; a quarter of the time it holds them in reverse but for one
        ascent between two decreasing runs; otherwise in any order.
        """
        pos = rng.sample(range(3 * s + 1), s)
        kind = rng.randrange(4)
        if kind < 3:
            pos.sort(reverse=True)
        if kind == 2 and s > 1:
            i = rng.randrange(s - 1)
            pos[i], pos[i + 1] = pos[i + 1], pos[i]
        return pos

    def test_one_other_block_matches_the_patience_sort(self, rng):
        flat = 0
        for s in [0, 1] * 4 + [2] * 20 + [rng.randrange(3, 80) for _ in range(400)]:
            common = rng.sample(range(300), s)
            pos = dict(zip(common, self.other_positions(rng, s)))
            reference = core._chain_heights(common, [pos, pos])  # the quadratic scan
            assert core._chain_heights(common, [pos]) == reference, (common, pos)
            flat += s > 1 and max(reference) == 1
        assert flat > 150  # the shortcut's case is well covered

    def test_nothing_rising_needs_no_patience_sort(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bisect_left ran on a sequence in which nothing rises")

        monkeypatch.setattr(core, "bisect_left", refuse)
        assert core._lis_heights([3, 3, 1]) == [1, 1, 1]
        assert core._lis_heights([]) == []
        assert core._chain_heights([4, 7, 9], [{4: 2, 7: 1, 9: 0}]) == [1, 1, 1]  # all reversed

    @staticmethod
    def window_designs():
        """construct_optimal designs at the paper's block sizes, with 3 to 5 blocks each."""
        from packings import construct_optimal

        for i, k in enumerate((40, 90, 160, 240, 400)):
            for lam in (1, 2):
                n = lam + 2 + i % 2
                v = max(k, -(-(n * k - math.comb(n, lam + 1)) // lam))  # the window's least v
                params = DesignParams(v, k, 2, lam)
                design = construct_optimal(params)[0]
                assert design.n == n
                yield design, params

    @staticmethod
    def corrupted(design, lam):
        """A copy with one point moved so that a pair lies in lam + 1 blocks.

        The worst pair {x, y} of the valid design lies in lam blocks; a block
        holding y but not x loses another point and gains x, next to y and
        on the side x takes in a block that holds both.
        """
        blocks = [list(b) for b in design.blocks]
        x, y = validate_packing(design, DesignParams(design.v, design.v, 2, lam)).worst_t_set
        holder = next(b for b in blocks if x in b and y in b)
        d = next(b for b in blocks if (x in b) != (y in b))
        if x in d:
            x, y = y, x
        d.remove(next(z for z in d if z != y))
        before = holder.index(x) < holder.index(y)
        d.insert(d.index(y) + (not before), x)
        return type(design)(design.v, blocks)

    @staticmethod
    def swapped(design):
        """A directed copy in which one block swaps a pair that another holds reversed."""
        blocks = [list(b) for b in design.blocks]
        for a, b in combinations(blocks, 2):
            shared = [x for x in a if x in b]
            for x, y in combinations(shared, 2):
                i, j = b.index(x), b.index(y)
                if i > j:
                    b[i], b[j] = y, x
                    return DirectedPackingDesign(design.v, blocks)
        return None

    def check_walk_and_witness(self, design, lam, valid):
        report = validate_packing(design, DesignParams(design.v, design.v, 2, lam))
        walked = self.both_paths(design.blocks, 2)
        assert walked == (report.worst_t_set, report.worst_multiplicity)
        assert report.valid == valid
        assert report.worst_multiplicity == lam + (not valid)
        holders = tuple(i for i, b in enumerate(design.blocks) if is_subsequence(report.worst_t_set, b))
        assert report.blocks == holders

    def test_window_designs_at_the_papers_block_sizes(self):
        from packings import direct_packing

        swaps = 0
        for design, params in self.window_designs():
            directed = direct_packing(design)
            for d, lam in ((design, params.lam), (directed, 1)):
                self.check_walk_and_witness(d, lam, True)
                self.check_walk_and_witness(self.corrupted(d, lam), lam, False)
            # in a 2-fold directed design two blocks share pairs, each reversed
            swapped = self.swapped(directed)
            assert (swapped is None) == (params.lam == 1)
            if swapped is not None:
                self.check_walk_and_witness(swapped, 1, False)
                swaps += 1
        assert swaps == 5

    def test_each_regime_takes_its_path(self, monkeypatch):
        from packings import construct_optimal

        def refuse(*args):
            raise AssertionError("wrong path")

        few = construct_optimal(DesignParams(300, 240, 2, 2))[0]
        monkeypatch.setattr(core, "_counter_worst", refuse)
        assert validate_packing(few, DesignParams(300, 240, 2, 2)).valid
        monkeypatch.undo()
        many = make_packing(random.Random(1), 30, 5, 2, 2, tries=200)
        assert many.n > 40
        monkeypatch.setattr(core, "_intersection_worst", refuse)
        assert validate_packing(many, DesignParams(30, 5, 2, 2)).valid


class TestScale:
    # tracemalloc peaks near 110 bytes per block point at both sizes
    PEAK_BYTES_PER_POINT = 400

    def _window_pipeline_peak(self, v, k):
        """Validate, direct, validate at lam=1 and export a 5-block design; the peak bytes."""
        from packings import construct_optimal, deletion_channel_check, direct_packing, to_indel_code

        params = DesignParams(v, k, 2, 2)
        design = construct_optimal(params)[0]
        tracemalloc.start()
        try:
            report = validate_packing(design, params)
            directed = direct_packing(design)
            directed_report = validate_directed(directed, params.with_lam(1))
            code = to_indel_code(directed, params.with_lam(1))
            survives = deletion_channel_check(code, k - 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert design.n == 5
        assert report.valid and report.worst_multiplicity == 2 and len(report.blocks) == 2
        assert directed_report.valid and directed_report.worst_multiplicity == 1
        assert survives
        return peak

    def test_window_pipeline_at_k_2000_stays_small(self):
        peak = self._window_pipeline_peak(4995, 2000)
        assert peak < self.PEAK_BYTES_PER_POINT * 5 * 2000, peak

    def test_window_pipeline_at_k_20000_stays_linear(self):
        peak = self._window_pipeline_peak(49995, 20000)
        assert peak < self.PEAK_BYTES_PER_POINT * 5 * 20000, peak


class TestValidateDirected:
    def test_known_directed_design(self, directed_6_4):
        assert validate_directed(directed_6_4, DesignParams(6, 4, 2, 1)).valid

    def test_subsequence_is_order_only(self):
        assert is_subsequence((0, 2, 4), (0, 1, 2, 3, 4))
        assert not is_subsequence((2, 0), (0, 1, 2))
        assert is_subsequence((), (1, 2))

    def test_repeated_ordered_pair_detected(self):
        d = DirectedPackingDesign(4, ((0, 1, 2), (3, 0, 1)))
        report = validate_directed(d, DesignParams(4, 3, 2, 1))
        assert not report.valid
        assert report.worst_t_set == (0, 1)
        assert report.worst_multiplicity == 2

    def test_reversed_pair_is_fine(self):
        d = DirectedPackingDesign(4, ((0, 1, 2), (2, 1, 0)))
        assert validate_directed(d, DesignParams(4, 3, 2, 1)).valid

    def test_general_t(self):
        # the ordered triple (0,1,2) sits inside both blocks
        d = DirectedPackingDesign(5, ((0, 1, 2, 3), (0, 4, 1, 2)))
        assert not validate_directed(d, DesignParams(5, 4, 3, 1)).valid
        assert validate_directed(d, DesignParams(5, 4, 3, 2)).valid

    @given(st.data())
    def test_subsequence_by_mask(self, data):
        seq = tuple(data.draw(st.lists(st.integers(0, 9), max_size=8)))
        mask = data.draw(st.lists(st.booleans(), min_size=len(seq), max_size=len(seq)))
        sub = tuple(x for x, keep in zip(seq, mask) if keep)
        assert is_subsequence(sub, seq)


class TestStructuralDiagnostics:
    def test_tight_spread_bound(self, pack_6_3):
        checks = dict(
            (name, (ok, witness))
            for name, ok, witness in structural_diagnostics(pack_6_3, DesignParams(6, 3, 2, 1))
        )
        assert all(ok for ok, _ in checks.values())
        assert checks["frequency-spread"][1] == {"lhs": 6, "rhs": 6}

    def test_frequency_cap_witness(self, pack_14_5):
        checks = dict(
            (name, (ok, witness))
            for name, ok, witness in structural_diagnostics(pack_14_5, DesignParams(14, 5, 2, 1))
        )
        assert all(ok for ok, _ in checks.values())
        assert checks["frequency-cap"][1]["cap"] == 3
        assert checks["frequency-cap"][1]["frequency"] == 2

    def test_all_checks_pass_on_valid_designs(self, rng):
        for _ in range(30):
            d = make_packing(rng, 10, 4, 2, 2)
            if not d.blocks:
                continue
            assert validate_packing(d, DesignParams(10, 4, 2, 2)).valid
            for name, ok, witness in structural_diagnostics(d, DesignParams(10, 4, 2, 2)):
                assert ok, (name, witness)

    def test_empty_design_ranks_the_least_points(self):
        checks = {name: witness for name, _, witness in structural_diagnostics(
            PackingDesign(6, ()), DesignParams(6, 3, 2, 1)
        )}
        assert checks["frequency-cap"]["point"] == 0
        assert checks["frequency-sum"]["points"] == (0, 1)

    def test_most_frequent_matches_the_sort(self):
        # the heap selection picks the points the frequency sort picks, in its order,
        # padded with the least absent points when too few occur
        def by_sort(r, t, v):
            picked = sorted(r, key=lambda x: (-r[x], x))[:t]
            return picked + [x for x in range(v) if x not in r][: t - len(picked)]

        rng = random.Random(13)
        for _ in range(3000):
            v = rng.randint(1, 30)
            top = rng.choice((1, 2, 3, 10))
            r = Counter({x: rng.randint(1, top) for x in rng.sample(range(v), rng.randint(0, v))})
            t = rng.randint(1, v)
            assert core._most_frequent(r, t, v) == by_sort(r, t, v), (r, t, v)

    def test_memory_does_not_grow_with_v(self):
        v = 200_000
        d = PackingDesign(v, ((0, 1, 2), (3, 4, 5)))
        params = DesignParams(v, 3, 2, 1)
        tracemalloc.start()
        try:
            result = structural_diagnostics(d, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(ok for _, ok, _ in result)
        assert peak < 2**20, peak


class TestUnderlyingDesign:
    def test_order_forgotten(self):
        assert underlying_design(DirectedPackingDesign(3, ((2, 0, 1),))).blocks == ((0, 1, 2),)

    def test_doubled_multiplicity(self, directed_6_4):
        shadow = underlying_design(directed_6_4)
        assert validate_packing(shadow, DesignParams(6, 4, 2, 2)).valid

    def test_recovers_input_blocks(self, directed_12_7, twofold_12_7):
        assert underlying_design(directed_12_7).blocks == twofold_12_7.blocks

    def test_valid_directed_gives_valid_shadow(self, rng):
        from packings import direct_packing

        for _ in range(20):
            d = make_two_fold(rng, v_max=10)
            out = direct_packing(d)
            shadow = underlying_design(out)
            assert validate_packing(shadow, DesignParams(d.v, d.v, 2, 2)).valid


class TestMonotonicity:
    def test_adding_points_keeps_validity(self, rng):
        for _ in range(25):
            d = make_packing(rng, 9, 4, 2, 1)
            grown = PackingDesign(d.v + 3, d.blocks)
            assert validate_packing(grown, DesignParams(d.v + 3, 4, 2, 1)).valid

    def test_truncating_blocks_keeps_validity(self, rng):
        for _ in range(25):
            d = make_packing(rng, 10, 5, 2, 2)
            for k2 in (4, 3, 2):
                cut = PackingDesign(d.v, tuple(b[:k2] for b in d.blocks))
                assert validate_packing(cut, DesignParams(d.v, k2, 2, 2)).valid

    def test_directed_truncation(self, directed_6_4):
        cut = DirectedPackingDesign(6, tuple(b[:3] for b in directed_6_4.blocks))
        assert validate_directed(cut, DesignParams(6, 3, 2, 1)).valid


# each value type, built twice from equal arguments, with the repr a frozen dataclass gave it
VALUES = [
    (lambda: DesignParams(6, 3, 2), "DesignParams(v=6, k=3, t=2, lam=1)"),
    (lambda: PackingDesign(4, [[1, 0], [2, 3]]), "PackingDesign(v=4, blocks=((0, 1), (2, 3)))"),
    (lambda: DirectedPackingDesign(4, [[1, 0]]), "DirectedPackingDesign(v=4, blocks=((1, 0),))"),
    (lambda: ValidationReport(True, (0, 1), 1, (0,)),
     "ValidationReport(valid=True, worst_t_set=(0, 1), worst_multiplicity=1, blocks=(0,))"),
    (lambda: BoundReport(4, "johnson-schonheim", {"v": 6}),
     "BoundReport(value=4, provenance='johnson-schonheim', detail={'v': 6}, exact=False)"),
    (lambda: ConstantWeightCode(3, 1, [[1, 0, 0], [0, 1, 0]]),
     "ConstantWeightCode(length=3, weight=1, words=((1, 0, 0), (0, 1, 0)))"),
    (lambda: IndelCode(3, 2, [[0, 1], [2, 0]], allow_repeats=True),
     "IndelCode(alphabet_size=3, word_length=2, words=((0, 1), (2, 0)), allow_repeats=True)"),
    (lambda: DesignDocument(PackingDesign(3, [[0, 1]]), 2, 2, 1),
     "DesignDocument(design=PackingDesign(v=3, blocks=((0, 1),)), k=2, t=2, lam=1)"),
    (lambda: SearchConfig(5), "SearchConfig(node_budget=5)"),
]


class TestValueTypes:
    @pytest.mark.parametrize("make,shown", VALUES)
    def test_repr_is_the_dataclass_repr(self, make, shown):
        assert repr(make()) == shown

    @pytest.mark.parametrize("make,shown", VALUES)
    def test_fields_can_be_neither_assigned_nor_deleted(self, make, shown):
        value = make()
        for name in value._fields:
            before = getattr(value, name)
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
            assert getattr(value, name) is before
        with pytest.raises(AttributeError, match="'extra'"):
            value.extra = 1

    @pytest.mark.parametrize("make,shown", VALUES)
    def test_equal_values_hash_equal(self, make, shown):
        a, b = make(), make()
        assert a == b and not a != b and a is not b
        if isinstance(a, BoundReport):  # its detail is a dict, as a dataclass's hash found too
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
        assert a != shown and a != object()

    def test_a_field_that_differs_makes_values_unequal(self):
        assert DesignParams(6, 3, 2) != DesignParams(6, 3, 2, 2)
        assert BoundReport(4, "x") != BoundReport(4, "x", exact=True)
        assert SearchConfig() != SearchConfig(1)

    def test_indel_code_equality_ignores_allow_repeats(self):
        plain = IndelCode(3, 2, [[0, 1]])
        allowed = IndelCode(3, 2, [[0, 1]], allow_repeats=True)
        assert plain == allowed and hash(plain) == hash(allowed)
        assert plain.allow_repeats is False and allowed.allow_repeats is True
        assert plain != IndelCode(3, 2, [[1, 0]])

    def test_a_bound_report_without_detail_gets_a_fresh_dict(self):
        a, b = BoundReport(1, "x"), BoundReport(1, "x")
        assert a.detail == {} and a.detail is not b.detail
        a.detail["k"] = 1  # a report's detail is its own, as with a dataclass default_factory
        assert b.detail == {}

    def test_checks_keep_their_order_and_messages(self):
        with pytest.raises(ValueError, match=r"^require v >= k >= t >= 1, got v=2 k=3 t=2$"):
            DesignParams(2, 3, 2, 0)
        with pytest.raises(ValueError, match=r"^require lam >= 1, got lam=0$"):
            DesignParams(3, 3, 2, 0)
        with pytest.raises(ValueError, match=r"^node_budget must be positive, got 0$"):
            SearchConfig(0)
        with pytest.raises(TypeError):
            IndelCode(3, 2, [[0, 1]], True)  # allow_repeats stays keyword-only

    @pytest.mark.parametrize("bad", [10.5, 6.0, True, "6"])
    def test_fields_that_are_not_ints_are_refused(self, bad):
        shown = repr(bad)
        for make, message in (
            (lambda: DesignParams(bad, 3, 2), f"require integers, got v={shown} k=3 t=2 lam=1"),
            (lambda: DesignParams(6, bad, 2), f"require integers, got v=6 k={shown} t=2 lam=1"),
            (lambda: DesignParams(6, 3, bad), f"require integers, got v=6 k=3 t={shown} lam=1"),
            (lambda: DesignParams(6, 3, 2, bad), f"require integers, got v=6 k=3 t=2 lam={shown}"),
            (lambda: SearchConfig(bad), f"node_budget must be an integer, got {shown}"),
        ):
            with pytest.raises(ValueError) as exc:
                make()
            assert (exc.type, str(exc.value)) == (ValueError, message)
        for kind in (PackingDesign, DirectedPackingDesign):
            with pytest.raises(StructuralError) as exc:
                kind(bad, [[0, 1]])
            assert str(exc.value) == f"v must be an integer, got {shown}"

    def test_the_type_checks_come_before_the_range_checks(self):
        with pytest.raises(ValueError, match=r"^require integers, got v=0 k=1.5 t=True lam=0$"):
            DesignParams(0, 1.5, True, 0)
        with pytest.raises(ValueError, match=r"^node_budget must be an integer, got 50.5$"):
            SearchConfig(50.5)
        with pytest.raises(StructuralError, match=r"^v must be an integer, got 5.5$"):
            PackingDesign(5.5, [[0, "x"]])
        with pytest.raises(StructuralError, match=r"^v must be an integer, got -1.0$"):
            PackingDesign(-1.0, [])
        assert SearchConfig(None).node_budget is None and SearchConfig(1).node_budget == 1
