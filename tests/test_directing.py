import re
from itertools import combinations

import pytest

from packings import (
    DesignParams,
    DirectedPackingDesign,
    DirectingError,
    PackingDesign,
    direct_packing,
    general_construction,
    insert_point,
    is_subsequence,
    validate_directed,
    validate_packing,
)
from conftest import make_two_fold, point_frequencies

# residual ordered blocks of the 12-point example after removing point 0
T1 = (1, 2, 3, 4, 5, 6)
T2 = (4, 3, 7, 8, 9, 1)
T3 = (6, 5, 10, 11, 9, 2)


class TestInsertPoint:
    def test_worked_example_placement(self):
        n1, n2, n3 = insert_point(0, T1, T2, T3)
        assert n1 == (1, 0, 2, 3, 4, 5, 6)
        # leftmost slot after 3 in block 2; before both 9 and 2's follower in block 3
        assert n2 == (4, 3, 0, 7, 8, 9, 1)
        assert n3 == (6, 5, 10, 11, 9, 2, 0)
        full = DirectedPackingDesign(12, (n1, n2, n3, (2, 1, 9, 11, 10, 8, 7)))
        assert validate_directed(full, DesignParams(12, 7, 2, 1)).valid

    def test_residuals_stay_subsequences(self):
        n1, n2, n3 = insert_point(0, T1, T2, T3)
        assert is_subsequence(T1, n1)
        assert is_subsequence(T2, n2)
        assert is_subsequence(T3, n3)

    def test_disjoint_blocks_any_position_works(self):
        n1, n2, n3 = insert_point(0, (1, 2), (3, 4), (5, 6))
        d = DirectedPackingDesign(7, (n1, n2, n3))
        assert validate_directed(d, DesignParams(7, 3, 2, 1)).valid

    @pytest.mark.parametrize(
        "blocks,message",
        [
            (((1, 2), (1, 2), ()), "point 2 follows point 1 in both blocks 1 and 2"),
            (((1, 5), (5, 2), (3, 5)), "point 5 lies in all three blocks"),
            (((1,), (0, 2), (3,)), "point 0 is already in a block"),
        ],
    )
    def test_input_breaking_the_premises_rejected(self, blocks, message):
        with pytest.raises(ValueError, match=message):
            insert_point(0, *blocks)


class TestDirectPacking:
    def test_twelve_point_design(self, twofold_12_7):
        out = direct_packing(twofold_12_7)
        assert validate_directed(out, DesignParams(12, 7, 2, 1)).valid
        assert all(
            sorted(o) == list(b) for o, b in zip(out.blocks, twofold_12_7.blocks)
        )

    def test_published_ordering_validates(self, directed_12_7):
        assert validate_directed(directed_12_7, DesignParams(12, 7, 2, 1)).valid

    def test_single_block(self):
        out = direct_packing(PackingDesign(4, ((0, 1, 2, 3),)))
        assert sorted(out.blocks[0]) == [0, 1, 2, 3]
        assert validate_directed(out, DesignParams(4, 4, 2, 1)).valid

    def test_shared_pair_flips(self):
        out = direct_packing(PackingDesign(4, ((0, 1, 2), (0, 1, 3))))
        b1, b2 = out.blocks
        first = b1.index(0) < b1.index(1)
        second = b2.index(0) < b2.index(1)
        assert first != second

    def test_two_block_insertion_convention(self):
        # a point returning to two blocks is prepended to the first and
        # appended to the second
        out = direct_packing(PackingDesign(5, ((0, 1, 4), (2, 3, 4))))
        assert out.blocks == ((4, 1, 0), (3, 2, 4))

    def test_three_blocks_through_one_point(self):
        out = direct_packing(PackingDesign(7, ((0, 1, 6), (2, 3, 6), (4, 5, 6))))
        assert validate_directed(out, DesignParams(7, 3, 2, 1)).valid

    def test_empty_and_repeated_blocks(self):
        d = PackingDesign(5, ((), (0, 1), (0, 1), ()))
        out = direct_packing(d)
        assert validate_directed(out, DesignParams(5, 5, 2, 1)).valid
        assert out.blocks[0] == () and out.blocks[3] == ()

    def test_frequency_violation_rejected(self):
        d = PackingDesign(9, ((0, 1), (0, 2), (0, 3), (0, 4)))
        with pytest.raises(DirectingError, match="frequency bound violated at point 0"):
            direct_packing(d)

    def test_pair_overuse_rejected(self):
        d = PackingDesign(5, ((0, 1, 2), (0, 1, 3), (0, 1, 4)))
        with pytest.raises(DirectingError, match="not a 2-fold packing"):
            direct_packing(d)

    def test_randomized_inputs(self, rng):
        for _ in range(300):
            d = make_two_fold(rng)
            out = direct_packing(d)
            assert validate_directed(out, DesignParams(d.v, d.v, 2, 1)).valid
            assert all(sorted(o) == list(b) for o, b in zip(out.blocks, d.blocks))


    def test_rejects_exactly_the_undirectable(self, rng):
        seen = {"accepted": 0, "pairs": 0, "frequency": 0}
        for _ in range(400):
            v = rng.randrange(2, 9)
            blocks = tuple(
                tuple(sorted(rng.sample(range(v), rng.randrange(0, min(v, 4) + 1))))
                for _ in range(rng.randrange(0, 7))
            )
            d = PackingDesign(v, blocks)
            pair_counts = {
                pair: sum(set(pair) <= set(b) for b in blocks)
                for pair in combinations(range(v), 2)
            }
            top = max(pair_counts.values(), default=0)
            freq = [sum(x in b for b in blocks) for x in range(v)]
            if top > 2:
                worst = min(p for p, c in pair_counts.items() if c == top)
                message = re.escape(f"pair {worst} appears {top} times")
                with pytest.raises(DirectingError, match=message):
                    direct_packing(d)
                seen["pairs"] += 1
            elif max(freq) > 3:
                crowded = freq.index(max(freq))
                with pytest.raises(DirectingError, match=f"violated at point {crowded}$"):
                    direct_packing(d)
                seen["frequency"] += 1
            else:
                out = direct_packing(d)
                assert validate_directed(out, DesignParams(v, v, 2, 1)).valid
                seen["accepted"] += 1
        assert min(seen.values()) >= 20, seen


class TestComposesWithConstruction:
    @pytest.mark.parametrize("v,k", [(12, 7), (9, 6), (7, 5), (14, 8)])
    def test_two_fold_window_designs_direct_cleanly(self, v, k):
        from packings import exact_dpdn_by_theorem

        n = exact_dpdn_by_theorem(v, k).value
        assert n is not None
        design = general_construction(n, v, k, 2, 2)
        assert max(point_frequencies(design)) <= 3
        assert validate_packing(design, DesignParams(v, k, 2, 2)).valid
        out = direct_packing(design)
        assert validate_directed(out, DesignParams(v, k, 2, 1)).valid
        assert len(out.blocks) == n
