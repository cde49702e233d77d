from itertools import combinations

import pytest

from packings import (
    DesignParams,
    NotApplicableError,
    balanced_packing,
    construct_optimal,
    exact_by_theorems,
    general_construction,
    validate_packing,
)
from packings import construct
from packings.core import choose
from conftest import point_frequencies


class TestBalancedPacking:
    def test_disjoint_pairs(self):
        d = balanced_packing(4, 8, 2, 2)
        assert d.blocks == ((0, 1), (2, 3), (4, 5), (6, 7))
        assert point_frequencies(d) == [1] * 8

    def test_full_point_set_repeats(self):
        d = balanced_packing(3, 4, 4, 2)
        assert d.blocks == ((0, 1, 2, 3),) * 3

    def test_mixed_frequencies(self):
        d = balanced_packing(3, 5, 3, 2)
        assert set(point_frequencies(d)) == {1, 2}
        assert validate_packing(d, DesignParams(5, 3, 2, 2)).valid

    def test_zero_blocks(self):
        assert balanced_packing(0, 6, 3).blocks == ()

    def test_frequency_window_over_grid(self):
        # every frequency lands in {floor(nk/v), ceil(nk/v)} and the design
        # is valid at the ceiling multiplicity
        for v in range(1, 21):
            for k in range(1, v + 1):
                for n in range(0, 13):
                    d = balanced_packing(n, v, k, 1)
                    freqs = point_frequencies(d)
                    if n:
                        assert max(freqs) - min(freqs) <= 1
                        lo, hi = n * k // v, -(-n * k // v)
                        assert set(freqs) <= {lo, hi}
                        report = validate_packing(d, DesignParams(v, k, 1, max(hi, 1)))
                        assert report.valid
                    else:
                        assert set(freqs) == {0}


def _holders(design):
    """The indices of the blocks holding each point."""
    held = [[] for _ in range(design.v)]
    for i, block in enumerate(design.blocks):
        for x in block:
            held[x].append(i)
    return [tuple(h) for h in held]


def _shared_points(n, t, lam):
    """(point, subset) for the shared points, which come first in subset order."""
    subsets = combinations(range(n), lam + 1)
    return [(u * (t - 1) + j, s) for u, s in enumerate(subsets) for j in range(t - 1)]


class TestGeneralConstruction:
    def test_fourteen_point_design(self):
        design = general_construction(4, 14, 5, 2, 1)
        # 6 shared points (one per block pair), 8 carried by the inner packing
        assert design.blocks == (
            (0, 1, 2, 6, 7),
            (0, 3, 4, 8, 9),
            (1, 3, 5, 10, 11),
            (2, 4, 5, 12, 13),
        )
        assert point_frequencies(design) == [2] * 6 + [1] * 8
        assert validate_packing(design, DesignParams(14, 5, 2, 1)).valid

    def test_size_limit_refuses_before_building(self, monkeypatch):
        # 4 blocks of 5 on 14 points hold 20 entries; (2, 9, 2, 2, 1) keeps
        # n*k = 4 but has v = 9 points
        monkeypatch.setattr(construct, "CONSTRUCT_POINTS_LIMIT", 20)
        assert len(general_construction(4, 14, 5, 2, 1).blocks) == 4
        monkeypatch.setattr(construct, "CONSTRUCT_POINTS_LIMIT", 19)
        with pytest.raises(ValueError, match="exceeds the limit of 19 points"):
            general_construction(4, 14, 5, 2, 1)
        monkeypatch.setattr(construct, "CONSTRUCT_POINTS_LIMIT", 8)
        with pytest.raises(ValueError, match="on 9 points exceeds the limit of 8 points"):
            general_construction(2, 9, 2, 2, 1)

    def test_six_point_design_has_no_inner_points(self):
        design = general_construction(4, 6, 3, 2, 1)
        assert design.blocks == ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))
        assert _holders(design) == [s for _, s in _shared_points(4, 2, 1)]

    def test_trivial_branch(self):
        design = general_construction(2, 6, 3, 2, 5)
        assert design.blocks == ((0, 1, 2), (0, 1, 2))

    def test_hypothesis_violations_named(self):
        with pytest.raises(ValueError, match=r"k >= \(t-1\)\*C\(n-1,lam\)"):
            general_construction(5, 30, 3, 2, 1)
        with pytest.raises(ValueError, match=r"lam\*v >= n\*k - \(t-1\)\*C\(n,lam\+1\)"):
            general_construction(4, 6, 5, 2, 1)

    def test_layout_sizes_and_disjointness(self):
        # point u*(t-1)+j lies in exactly the u-th (lam+1)-subset of blocks,
        # and every later point in at most lam blocks
        for n, v, k, t, lam in [(4, 14, 5, 2, 1), (4, 12, 7, 2, 2), (5, 25, 9, 3, 1)]:
            held = _holders(general_construction(n, v, k, t, lam))
            shared = _shared_points(n, t, lam)
            assert len(shared) == (t - 1) * choose(n, lam + 1)
            assert all(held[point] == subset for point, subset in shared)
            assert all(len(h) <= lam for h in held[len(shared):])

    def test_shared_points_hit_max_frequency(self):
        design = general_construction(4, 12, 7, 2, 2)
        freqs = point_frequencies(design)
        for point, _ in _shared_points(4, 2, 2):
            assert freqs[point] == 3  # lam + 1

    def test_shared_point_co_occurrence(self):
        # points for distinct index subsets meet in exactly |S & S'| blocks
        design = general_construction(4, 14, 5, 2, 1)
        member = [set(b) for b in design.blocks]
        for (p1, s1), (p2, s2) in combinations(_shared_points(4, 2, 1), 2):
            if s1 == s2:
                continue
            together = sum(1 for m in member if p1 in m and p2 in m)
            assert together == len(set(s1) & set(s2))

    def test_valid_with_bounded_frequency_over_grid(self):
        checked = 0
        for t in (2, 3):
            for lam in (1, 2):
                for n in range(1, 7):
                    for k in range(t, 10):
                        if k < (t - 1) * choose(n - 1, lam):
                            continue
                        floor_edge = n * k - (t - 1) * choose(n, lam + 1)
                        v = max(k, -(-floor_edge // lam), 1)
                        design = general_construction(n, v, k, t, lam)
                        assert len(design.blocks) == n
                        assert all(len(b) == k for b in design.blocks)
                        assert validate_packing(design, DesignParams(v, k, t, lam)).valid
                        assert max(point_frequencies(design)) <= lam + 1
                        checked += 1
        assert checked > 50


class TestConstructOptimal:
    def test_eight_points(self):
        design, report = construct_optimal(DesignParams(8, 4, 2, 1))
        assert len(design.blocks) == report.value == 2
        assert validate_packing(design, DesignParams(8, 4, 2, 1)).valid

    def test_six_points_via_threshold(self):
        design, report = construct_optimal(DesignParams(6, 3, 2, 1))
        assert len(design.blocks) == 4
        assert report.provenance == "exact-threshold"

    def test_fourteen_points(self):
        design, report = construct_optimal(DesignParams(14, 5, 2, 1))
        assert len(design.blocks) == 4
        assert validate_packing(design, DesignParams(14, 5, 2, 1)).valid

    def test_not_applicable(self):
        with pytest.raises(NotApplicableError):
            construct_optimal(DesignParams(12, 3, 2, 1))

    def test_matches_window_value_wherever_it_fires(self):
        for lam in (1, 2):
            for k in range(3, 7):
                for v in range(k, 13):
                    params = DesignParams(v, k, 2, lam)
                    report = exact_by_theorems(params)
                    if report.value is None:
                        continue
                    design, _ = construct_optimal(params)
                    assert len(design.blocks) == report.value
                    assert validate_packing(design, params).valid
                    assert max(point_frequencies(design)) <= lam + 1
