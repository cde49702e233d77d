from itertools import combinations, combinations_with_replacement, permutations

import pytest

from packings import (
    DesignParams,
    DirectedPackingDesign,
    PackingDesign,
    SearchConfig,
    certify_optimal,
    dpdn_exact,
    johnson_schonheim,
    pdn_exact,
    validate_directed,
    validate_packing,
)
from packings.solve import BUDGET_EXHAUSTED, OPTIMAL


def brute_pdn(v, k, t, lam):
    """Independent oracle: enumerate block multisets outright, largest first."""
    params = DesignParams(v, k, t, lam)
    cands = list(combinations(range(v), k))
    for size in range(johnson_schonheim(params).value, 0, -1):
        pick = combinations_with_replacement if lam > 1 else combinations
        for blocks in pick(cands, size):
            if validate_packing(PackingDesign(v, blocks), params).valid:
                return size
    return 0


def brute_dpdn(v, k):
    """Independent oracle: enumerate ordered-block sets outright, largest first."""
    params = DesignParams(v, k, 2, 1)
    cands = list(permutations(range(v), k))
    cap = johnson_schonheim(DesignParams(v, k, 2, 2)).value
    for size in range(cap, 0, -1):
        for blocks in combinations(cands, size):
            if validate_directed(DirectedPackingDesign(v, blocks), params).valid:
                return size
    return 0


class TestPdnExact:
    @pytest.mark.parametrize(
        "v,k,t,lam,expected",
        [
            (6, 3, 2, 1, 4),
            (4, 3, 2, 1, 1),  # any two triples on four points share a pair
            (8, 4, 2, 1, 2),
            (9, 4, 2, 1, 3),
            (7, 3, 2, 1, 7),
            (5, 5, 2, 1, 1),
            (5, 5, 2, 3, 3),  # full blocks repeat up to the multiplicity cap
            (4, 3, 2, 2, 4),
        ],
    )
    def test_known_values(self, v, k, t, lam, expected):
        result = pdn_exact(DesignParams(v, k, t, lam))
        assert result.certificate == OPTIMAL
        assert result.n == expected
        assert validate_packing(result.witness, DesignParams(v, k, t, lam)).valid
        assert len(result.witness.blocks) == result.n

    def test_lexicographically_least_witness(self):
        result = pdn_exact(DesignParams(6, 3, 2, 1))
        assert result.witness.blocks == ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))

    def test_symmetry_toggle_keeps_value(self):
        for lam in (1, 2):
            for k in range(3, 7):
                for v in range(k, 9):
                    on = pdn_exact(DesignParams(v, k, 2, lam))
                    off = pdn_exact(
                        DesignParams(v, k, 2, lam), SearchConfig(symmetry_breaking=False)
                    )
                    assert on.certificate == off.certificate == OPTIMAL
                    assert on.n == off.n, (v, k, lam)

    def test_budget_interruption(self):
        result = pdn_exact(DesignParams(9, 3, 2, 1), SearchConfig(node_budget=5))
        assert result.certificate == BUDGET_EXHAUSTED
        assert validate_packing(result.witness, DesignParams(9, 3, 2, 1)).valid

    def test_monotone_in_points_and_block_size(self):
        # more points never hurt; larger blocks never help
        values = {}
        for v in range(4, 9):
            for k in (3, 4):
                values[(v, k)] = pdn_exact(DesignParams(v, k, 2, 1)).n
        for v in range(4, 8):
            for k in (3, 4):
                assert values[(v, k)] <= values[(v + 1, k)]
        for v in range(4, 9):
            assert values[(v, 3)] >= values[(v, 4)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(node_budget=0)

    @pytest.mark.parametrize("v,k,t,lam", [(6, 4, 3, 1), (5, 3, 2, 2), (5, 4, 2, 1)])
    def test_agrees_with_outright_enumeration(self, v, k, t, lam):
        result = pdn_exact(DesignParams(v, k, t, lam))
        assert result.certificate == OPTIMAL
        assert result.n == brute_pdn(v, k, t, lam)


class TestDpdnExact:
    def test_six_four(self, directed_6_4):
        # the known 4-block design meets the doubled-shadow bound
        result = dpdn_exact(6, 4)
        assert result.certificate == OPTIMAL and result.n == 4
        assert validate_directed(result.witness, DesignParams(6, 4, 2, 1)).valid
        assert validate_directed(directed_6_4, DesignParams(6, 4, 2, 1)).valid

    def test_four_three_exhaustive(self):
        result = dpdn_exact(4, 3)
        assert result.certificate == OPTIMAL
        assert result.n == 4
        assert result.n <= pdn_exact(DesignParams(4, 3, 2, 2)).n

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_full_blocks_give_two(self, k):
        result = dpdn_exact(k, k)
        assert result.certificate == OPTIMAL and result.n == 2

    def test_symmetry_toggle_keeps_value(self):
        for v, k in [(4, 3), (5, 4), (4, 4)]:
            on = dpdn_exact(v, k)
            off = dpdn_exact(v, k, SearchConfig(symmetry_breaking=False))
            assert on.n == off.n
            assert on.certificate == off.certificate == OPTIMAL

    def test_never_exceeds_two_fold_shadow(self):
        for v, k in [(4, 3), (5, 3), (5, 4), (6, 4), (5, 5)]:
            directed = dpdn_exact(v, k)
            shadow = pdn_exact(DesignParams(v, k, 2, 2))
            assert directed.certificate == OPTIMAL and shadow.certificate == OPTIMAL
            assert directed.n <= shadow.n

    def test_agrees_with_outright_enumeration(self):
        result = dpdn_exact(4, 3)
        assert result.certificate == OPTIMAL
        assert result.n == brute_dpdn(4, 3)


class TestCertifyOptimal:
    def test_optimal_triple_packing(self, pack_6_3):
        assert certify_optimal(pack_6_3, DesignParams(6, 3, 2, 1))

    def test_subdesign_is_not_optimal(self, pack_6_3):
        smaller = PackingDesign(6, pack_6_3.blocks[:3])
        assert not certify_optimal(smaller, DesignParams(6, 3, 2, 1))

    def test_directed_design(self, directed_12_7):
        assert certify_optimal(directed_12_7, DesignParams(12, 7, 2, 1))

    def test_invalid_design_rejected(self):
        bad = PackingDesign(4, ((0, 1, 2), (0, 1, 3)))
        with pytest.raises(ValueError):
            certify_optimal(bad, DesignParams(4, 3, 2, 1))

    def test_solver_witness_certifies(self):
        result = pdn_exact(DesignParams(8, 3, 2, 1))
        assert result.certificate == OPTIMAL
        assert certify_optimal(result.witness, DesignParams(8, 3, 2, 1))
