import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from packings import (
    BoundReport,
    DesignParams,
    NotApplicableError,
    best_upper_bound,
    exact_by_theorems,
    exact_dpdn_by_theorem,
    exact_family,
    gen_second_johnson_bound,
    gen_second_johnson_feasible,
    hanani_b,
    horsley_bound_1,
    horsley_bound_2,
    johnson_schonheim,
    second_johnson,
)
from packings.bounds import (
    EXACT_DIRECTED,
    EXACT_THRESHOLD,
    EXACT_WINDOW,
    GEN_SECOND_JOHNSON,
    JOHNSON_SCHONHEIM,
    VIA_UNDIRECTED,
    _bernoulli_horizon,
    _first_true,
    _least_ell,
    _passing_horizon,
    _window_edge,
    bound_candidates,
    least_bound,
)
from packings import bounds
from packings.core import choose

from conftest import linear_exact_by_theorems, linear_first_infeasible, sj_quadratic_feasible


def failure_offset(report: BoundReport, params: DesignParams) -> int | None:
    """How far the first failing d lies past the start of its segment of constant q."""
    d = report.detail["first_infeasible"]
    if d is None:
        return None
    q = d * params.k // params.v
    return d - -(-q * params.v // params.k)


@st.composite
def long_segment_cells(draw):
    """Cells with v >= 2k, so segments hold two or more d, and v(t-1) <= k^2,
    where the test tends to fail."""
    t = draw(st.sampled_from((2, 3)))
    lam = draw(st.sampled_from((1, 2)))
    k = draw(st.integers(3, 30))
    v = draw(st.integers(2 * k, max(2 * k, k * k // (t - 1))))
    return DesignParams(v, k, t, lam)


class TestFirstTrue:
    def test_matches_a_linear_scan(self):
        # every threshold position, including none and all, on ranges of every small length
        for lo in (0, 5):
            for length in range(40):
                hi = lo + length
                for first in range(lo, hi + 1):
                    probes = []

                    def pred(x):
                        assert lo <= x < hi, (lo, hi, x)
                        probes.append(x)
                        return x >= first

                    assert _first_true(pred, lo, hi) == first
                    assert len(probes) <= 2 * max(1, (first - lo + 1).bit_length()) + 1

    def test_one_probe_when_true_at_lo(self):
        probes = []
        assert _first_true(lambda x: probes.append(x) or True, 7, 10**30) == 7
        assert probes == [7]

    def test_bounds_past_ssize_t(self):
        first = 3 * 2**70 + 12345
        assert _first_true(lambda x: x >= first, 1, 2**80) == first
        assert _first_true(lambda x: False, 2**64, 2**64 + 5) == 2**64 + 5


class TestJohnsonSchonheim:
    # hand evaluation: floor(6/3 * floor(5/2)) = 4
    def test_six_points(self):
        assert johnson_schonheim(DesignParams(6, 3, 2, 1)).value == 4

    # hand evaluation: floor(14/5 * floor(13/4)) = 8
    def test_fourteen_points(self):
        assert johnson_schonheim(DesignParams(14, 5, 2, 1)).value == 8

    def test_full_blocks_collapse_to_lam(self):
        for k in range(2, 8):
            for lam in (1, 2, 3):
                assert johnson_schonheim(DesignParams(k, k, 2, lam)).value == lam
        assert johnson_schonheim(DesignParams(5, 5, 2, 1)).value == 1

    def test_higher_t(self):
        # floor(8/4 * floor(7/3 * floor(6/2))) = floor(2 * 7) = 14
        assert johnson_schonheim(DesignParams(8, 4, 3, 1)).value == 14


class TestHanani:
    def test_improvement_fires(self):
        # 4 = 0 mod 2 and 20 = -1 mod 3, so one below the nested-floor value 3
        rep = hanani_b(5, 3, 1)
        assert rep.value == 2 and rep.detail["improved"]

    def test_second_congruence_fails(self):
        rep = hanani_b(7, 3, 1)
        assert rep.value == 7 and not rep.detail["improved"]

    def test_first_congruence_fails(self):
        rep = hanani_b(6, 4, 1)
        assert rep.value == rep.detail["base"] and not rep.detail["improved"]

    def test_second_congruence_vacuous_for_k4(self):
        # v(v-1) is even, so it can never be 3 mod 4
        for v in range(4, 40):
            assert not hanani_b(v, 4, 1).detail["congruence_b"]


class TestSecondJohnson:
    def test_closed_form_agrees(self):
        rep = second_johnson(6, 3, 2)
        assert rep.value == 4
        assert rep.detail["closed_form"] == 4  # floor(12/3)

    def test_feasibility_beats_closed_form(self):
        # closed form floor(56/11) = 5, but d=5 fails 20 >= 22
        rep = second_johnson(14, 5, 2)
        assert rep.detail["closed_form"] == 5
        assert not sj_quadratic_feasible(5, 14, 5, 2)
        assert rep.value == 4

    def test_is_the_convexity_bound_at_lam_one(self):
        for t in (2, 3):
            for k in range(t, 8):
                for v in range(k, 30):
                    rep = second_johnson(v, k, t)
                    gen = gen_second_johnson_bound(DesignParams(v, k, t, 1))
                    assert rep.value == gen.value
                    assert {key: rep.detail[key] for key in gen.detail} == gen.detail

    def test_closed_form_boundary(self):
        # v(t-1) = 25 = k^2: closed form not applicable
        rep = second_johnson(25, 5, 2)
        assert rep.detail["closed_form"] is None


class TestGenSecondJohnson:
    def test_infeasible_case(self):
        # d=5 at (6,3): LHS 10 < RHS 6*C(2,2) + 3*C(2,1) = 12
        assert not gen_second_johnson_feasible(5, DesignParams(6, 3, 2, 1))
        assert gen_second_johnson_bound(DesignParams(6, 3, 2, 1)).value == 4

    def test_small_d_always_feasible(self):
        for v, k, t, lam in [(6, 3, 2, 1), (10, 4, 2, 2), (9, 5, 3, 2), (8, 8, 2, 3)]:
            for d in range(lam + 1):
                assert gen_second_johnson_feasible(d, DesignParams(v, k, t, lam))

    def test_fourteen_points(self):
        # d=5: q=1, r=11, LHS 10 < 11
        assert not gen_second_johnson_feasible(5, DesignParams(14, 5, 2, 1))
        assert gen_second_johnson_bound(DesignParams(14, 5, 2, 1)).value == 4

    def test_matches_linear_scan_over_grid(self):
        offsets, cut = [], 0
        for t in (1, 2, 3):
            for lam in (1, 2, 3):
                for k in range(t, 10):
                    for v in range(k, 60):
                        params = DesignParams(v, k, t, lam)
                        ref = linear_first_infeasible(params)
                        assert gen_second_johnson_bound(params) == ref, params
                        offsets.append(failure_offset(ref, params))
                        cap = johnson_schonheim(params).value
                        cut += _passing_horizon(params, cap) <= cap
        # the grid reaches failures at a segment's first d and inside one,
        # and cells where the horizon stops the walk short of cap + 1
        assert offsets.count(0) > 100
        assert sum(1 for off in offsets if off) > 100
        assert cut > 1000

    @pytest.mark.parametrize(
        "cell",
        [(600, 3, 2, 1), (600, 3, 2, 2), (400, 4, 2, 2), (100, 4, 3, 1),
         (150, 3, 2, 3), (500, 6, 2, 1), (60, 5, 3, 2), (40, 4, 3, 3),
         # the horizon stops the walk far below cap + 1 (22 of 481, 24 of 7426, 8 of 1181)
         (100, 5, 2, 1), (300, 4, 2, 1), (60, 3, 2, 2)],
    )
    def test_matches_linear_scan_on_large_cells(self, cell):
        params = DesignParams(*cell)
        assert gen_second_johnson_bound(params) == linear_first_infeasible(params)

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.integers(2, 40),
        lam=st.integers(1, 4),
        k=st.integers(2, 60),
        v_over_k=st.integers(1, 300),
    )
    def test_every_count_past_the_horizon_passes(self, t, lam, k, v_over_k):
        params = DesignParams(k * v_over_k + k // 2, k, min(t, k), lam)
        horizon = _passing_horizon(params, 10**9)
        assume(horizon <= 10**9)
        assert horizon >= lam
        for d in range(horizon, horizon + 300):
            assert gen_second_johnson_feasible(d, params), (params, horizon, d)

    def test_horizon_at_the_edge_of_its_condition(self):
        # (t-1)*v^lam = k^(lam+1) leaves the walk to cap + 1
        assert _passing_horizon(DesignParams(9, 3, 2, 1), 10**6) == 10**6 + 1
        # hand evaluation at v = 10: 10*80^2 = 64000 < 253^2 = 64009, 10*81^2 = 65610 >= 256^2
        params = DesignParams(10, 3, 2, 1)
        assert [_passing_horizon(params, last) for last in (80, 81, 82, 10**6)] == [81, 82, 82, 82]
        # a shadow lam of 1000! would need powers far past the size limit
        params = DesignParams(3000, 1500, 1000, math.factorial(1000))
        assert _passing_horizon(params, 10**1000) == 10**1000 + 1

    def test_matches_linear_scan_at_large_lam(self):
        # cells whose Johnson-Schonheim cap is at most 3000, with v close to k
        # (where large lam still fails) and far from it; each horizon stops
        # the walk short of cap + 1 on some of them
        bernoulli = power = failures = 0
        for t in (2, 3):
            for lam in (10, 100, 400):
                for k in (4, 10, 16):
                    for v in (k, k + 1, k + 2, k + 7, k + 20, k + 44):
                        params = DesignParams(v, k, t, lam)
                        cap = johnson_schonheim(params).value
                        if cap > 3000:
                            continue
                        ref = linear_first_infeasible(params)
                        assert gen_second_johnson_bound(params) == ref, params
                        failures += ref.value is not None and v > k
                        b, p = _bernoulli_horizon(params, cap), _passing_horizon(params, cap)
                        bernoulli += b < min(p, cap + 1)
                        power += p < min(b, cap + 1)
        assert failures >= 3 and bernoulli > 20 and power > 5

    @settings(max_examples=40, deadline=None)
    @given(
        t=st.integers(2, 40),
        lam=st.integers(1, 400),
        k=st.integers(2, 3000),
        data=st.data(),
    )
    def test_every_count_past_the_bernoulli_horizon_passes(self, t, lam, k, data):
        k = max(k, t)
        v = data.draw(st.integers(k, 3000), label="v")
        params = DesignParams(v, k, t, lam)
        horizon = _bernoulli_horizon(params, 10**9)
        assume(horizon <= 10**9)
        # below d = lam*v/k the right side of the test is 0, so also start
        # a window where it is not
        for start in {horizon, max(horizon, -(-lam * v // k))}:
            for d in range(start, start + 300):
                assert gen_second_johnson_feasible(d, params), (params, horizon, d)

    def test_bernoulli_horizon_by_hand(self):
        # m = floor(10001/99) = 101, D' = ceil(102*100 / (101*100 - 102*50)) = ceil(10200/5000)
        assert _bernoulli_horizon(DesignParams(100, 50, 2, 10_000), 10**6) == 3
        assert _bernoulli_horizon(DesignParams(100, 50, 2, 10_000), 1) == 2
        # m = 0 at t = 1, and m(v-k) = 1*50 <= 50 at (100, 50, 2, 98): the cap is returned
        assert _bernoulli_horizon(DesignParams(100, 50, 1, 10_000), 40) == 41
        assert _bernoulli_horizon(DesignParams(100, 50, 2, 98), 40) == 41
        # the directed shadow at t = 1000 needs no powers of lam = 1000!
        params = DesignParams(3000, 1500, 1000, math.factorial(1000))
        assert _bernoulli_horizon(params, 10**1000) == 3

    @settings(max_examples=100, deadline=None)
    @given(params=long_segment_cells())
    @example(params=DesignParams(7, 3, 2, 1))  # fails at d = 8, inside [7, 9]
    def test_failure_inside_a_segment(self, params):
        ref = linear_first_infeasible(params)
        assume(failure_offset(ref, params))
        assert gen_second_johnson_bound(params) == ref

    def test_failure_at_a_segment_start(self):
        # q = 2 on d in [7, 9], and d = 7 already fails
        params = DesignParams(16, 5, 2, 1)
        ref = linear_first_infeasible(params)
        assert ref.detail == {"first_infeasible": 7, "q": 2, "r": 3}
        assert failure_offset(ref, params) == 0
        assert gen_second_johnson_bound(params) == ref

    def test_failure_at_the_walk_start(self):
        # the walk starts at d = ceil(lam*v/k) = 2, where q = 1, r = 3 and LHS 1 < RHS 3
        params = DesignParams(5, 4, 2, 1)
        rep = gen_second_johnson_bound(params)
        assert rep == linear_first_infeasible(params)
        assert rep.value == 1 and rep.detail == {"first_infeasible": 2, "q": 1, "r": 3}

    def test_walk_start_over_grid(self):
        at_start = past_nearer = past_both = 0
        for t in (2, 3):
            for lam in (1, 2, 3):
                for k in range(t, 41):
                    for v in range(k, 41):
                        params = DesignParams(v, k, t, lam)
                        start = -(-lam * v // k)
                        # below the start q < lam, so the right side of the test is 0
                        assert all(gen_second_johnson_feasible(d, params) for d in range(start))
                        ref = linear_first_infeasible(params)
                        assert gen_second_johnson_bound(params) == ref, params
                        at_start += ref.detail["first_infeasible"] == start
                        last = johnson_schonheim(params).value + 1
                        horizons = _passing_horizon(params, last), _bernoulli_horizon(params, last)
                        past_nearer += start >= min(horizons)
                        past_both += start >= max(horizons)
        # the grid reaches first failures at the start itself, and cells where the
        # start lies past the walk's stop (1937, 538 and 2 of 4563 cells)
        assert at_start > 1500 and past_nearer > 400 and past_both >= 2

    def test_t_one_agrees_with_the_binomial_formula(self):
        # at t = 1 the left side (t-1)*C(d, lam+1) is 0 and no longer computed; a scan
        # with the formula that computes it gives the same reports, and so does the closed
        # form: every d up to the Johnson-Schonheim value passes and the next one fails
        def feasible(d, v, k, t, lam):
            q, r = divmod(d * k, v)
            right = v * math.comb(q, lam + 1) + r * math.comb(q, lam)
            return (t - 1) * math.comb(d, lam + 1) >= right

        cells = 0
        for lam in (1, 2, 3, 7, 40):
            for k in range(1, 14):
                for v in range(k, 40, 3):
                    params = DesignParams(v, k, 1, lam)
                    first = next(d for d in range(lam * v + 2) if not feasible(d, v, k, 1, lam))
                    assert [gen_second_johnson_feasible(d, params) for d in range(first + 2)] == [
                        feasible(d, v, k, 1, lam) for d in range(first + 2)
                    ], params
                    q, r = divmod(first * k, v)
                    want = {"first_infeasible": first, "q": q, "r": r}
                    assert gen_second_johnson_bound(params) == BoundReport(
                        first - 1, GEN_SECOND_JOHNSON, want
                    ), params
                    assert first - 1 == johnson_schonheim(params).value
                    cells += 1
        assert cells > 400

    def test_reduces_to_quadratic_form_at_lam_one(self):
        # pointwise agreement of the two feasibility tests for every d <= 12
        for t in (2, 3):
            for k in range(t, 7):
                for v in range(k, 13):
                    params = DesignParams(v, k, t, 1)
                    for d in range(13):
                        assert gen_second_johnson_feasible(d, params) == sj_quadratic_feasible(
                            d, v, k, t
                        ), (v, k, t, d)


class TestHorsley:
    def test_low_remainder_value(self):
        # 9 = 3*3 + 0, d=0 < r-lam=2: floor(10*2/3) = 6
        rep = horsley_bound_1(10, 4, 1)
        assert rep.value == 6 and rep.detail == {"r": 3, "d": 0}

    def test_low_remainder_not_applicable(self):
        assert horsley_bound_1(6, 3, 1).value is None

    def test_low_remainder_seven_points(self):
        assert horsley_bound_1(7, 3, 1).value == 7

    def test_high_remainder_first_case(self):
        # r=2, d=1: alpha = 1/2, beta = 0: floor((6-3)/(1/2)) = 6
        rep = horsley_bound_2(6, 3, 1)
        assert rep.value == 6
        assert rep.detail["cases"] == {"alpha": 6}  # second sub-case condition fails
        assert rep.detail["weights"]["alpha"] == (Fraction(1, 2), Fraction(0))

    def test_high_remainder_not_applicable(self):
        assert horsley_bound_2(10, 4, 1).value is None

    def test_integer_sub_cases_match_the_fraction_formula(self):
        for v in range(4, 201):
            for k in range(3, min(v, 31)):
                for lam in (1, 2, 3):
                    rep = horsley_bound_2(v, k, lam)
                    want = fraction_horsley_2(v, k, lam)
                    detail = rep.detail
                    got = (rep.value, detail.get("cases"), detail.get("reason"), detail.get("weights"))
                    assert got == want, (v, k, lam)

    def test_exactly_one_of_the_two_applies(self):
        for v in range(5, 20):
            for k in range(3, v):
                for lam in (1, 2):
                    one = horsley_bound_1(v, k, lam).value is not None
                    two = horsley_bound_2(v, k, lam).value is not None
                    r, d = divmod(lam * (v - 1), k - 1)
                    assert one == (d < r - lam)
                    assert not (one and two)


def fraction_horsley_2(v, k, lam):
    """Value, sub-case values, reason and weights of horsley_bound_2, in Fractions as first written."""
    r, d = divmod(lam * (v - 1), k - 1)
    if d < r - lam:
        return None, None, "d < r - lam", None
    cases = {}
    if k * (r + lam - 1) > 2 * d + 2:
        cases["alpha"] = (Fraction(r - lam + 1, 2 * d + 2), Fraction(0))
    if (r - lam) * k * (k - 1) > 2 * (d + 1) * (d + k):
        cases["alpha-beta"] = (Fraction(r - lam, 2 * d + 2), Fraction(r - lam, 2 * (d + k)))
    values = {}
    for name, (alpha, beta) in cases.items():
        den = k * (alpha - beta) - 1
        if den <= 0:
            values[name] = None
            continue
        val = math.floor((r * v * (alpha - beta) - alpha * v) / den)
        values[name] = val if val >= 1 else None
    usable = [val for val in values.values() if val is not None]
    reason = None if usable else "no sub-case applies"
    return (min(usable) if usable else None), values, reason, cases


class TestExactByTheorems:
    def test_eight_points(self):
        rep = exact_by_theorems(DesignParams(8, 4, 2, 1))
        assert (rep.value, rep.provenance) == (2, EXACT_WINDOW)
        assert rep.detail["window"] == (7, 9)

    def test_nine_points(self):
        rep = exact_by_theorems(DesignParams(9, 4, 2, 1))
        assert (rep.value, rep.provenance) == (3, EXACT_WINDOW)

    def test_threshold_window(self):
        # main window misses 6 points at k=3; the boundary window at ell=4
        # gives 6 <= 6 < 20/3
        rep = exact_by_theorems(DesignParams(6, 3, 2, 1))
        assert (rep.value, rep.provenance) == (4, EXACT_THRESHOLD)
        assert rep.detail["window"] == (6, Fraction(20, 3))

    def test_not_applicable(self):
        assert exact_by_theorems(DesignParams(12, 3, 2, 1)).value is None

    def test_window_consistency_over_grid(self):
        # the bisection returns the report of the loop over every n up to ell,
        # which raises if two main windows overlap; both kinds of window and
        # cells outside both occur on the grid
        kinds = set()
        for lam in (1, 2, 3, 5):
            for t in (2, 3, 4):
                for k in range(t, 40):
                    for v in range(k, 100):
                        params = DesignParams(v, k, t, lam)
                        rep = exact_by_theorems(params)
                        assert rep == linear_exact_by_theorems(params), params
                        kinds.add((rep.provenance, rep.value is None))
        assert kinds == {(EXACT_WINDOW, False), (EXACT_THRESHOLD, False), (EXACT_WINDOW, True)}

    def test_ell_and_window_past_ssize_t(self):
        assert _least_ell(10**19, 2, 1) == 10**19 + 1
        rep = exact_by_theorems(DesignParams(2 * 10**19, 10**19, 2, 1))
        assert (rep.value, rep.provenance) == (2, EXACT_WINDOW)

    def test_n_search_starts_past_lam(self, monkeypatch):
        # e(n) = nk <= lam*v for every n <= lam, so the n search begins at
        # lam + 1 and a huge lam costs O(log k) window edges, not O(log lam)
        calls = []

        def counted_edge(*args):
            calls.append(args)
            return _window_edge(*args)

        monkeypatch.setattr(bounds, "_window_edge", counted_edge)
        k = 30000
        rep = exact_by_theorems(DesignParams(2 * k, k, 2, math.factorial(1000)))
        assert (rep.value, rep.detail["reason"]) == (None, "outside both windows")
        assert 0 < len(calls) <= 2 * k.bit_length()

    def test_threshold_window_shape(self):
        # the boundary window never inverts for k <= 40, t <= 4, lam <= 3, and
        # is nonempty exactly when ell > lam + 1: expanding lo < hi gives
        # (ell - lam - 1) * (k - (t-1)*C(ell, lam)) < 0, so the two edges
        # coincide at ell = lam + 1 and are strictly ordered beyond it
        for lam in (1, 2, 3):
            for t in (2, 3, 4):
                for k in range(t, 41):
                    ell = _least_ell(k, t, lam)
                    assert (t - 1) * choose(ell, lam) > k
                    assert ell == lam or (t - 1) * choose(ell - 1, lam) <= k
                    lo = ell * k - (t - 1) * choose(ell, lam + 1)
                    hi = Fraction(
                        (lam + 1) * (ell + 1) * k - (t - 1) * choose(ell + 1, lam + 1),
                        lam + 2,
                    )
                    if ell > lam + 1:
                        assert lo < hi, (k, t, lam, ell)
                    else:
                        assert lo == hi, (k, t, lam, ell)
                    # the main (t, lam) = (2, 1) regime always has slack
                    if (t, lam) == (2, 1):
                        assert lo < hi


class TestExactFamily:
    def test_recovers_the_six_point_cell(self):
        rep = exact_family(4, 2, 1)
        assert rep.detail["v"] == 6 and rep.detail["k"] == 3
        assert rep.value == 4
        assert exact_by_theorems(DesignParams(6, 3, 2, 1)).value == 4

    def test_degenerate_parameters_rejected(self):
        # n = lam + 1 gives k = t - 1 < t
        with pytest.raises(NotApplicableError):
            exact_family(3, 2, 2)

    def test_family_matches_windows(self):
        hits = 0
        for lam in (1, 2):
            for t in (2, 3):
                for n in range(lam + 1, 8):
                    try:
                        rep = exact_family(n, t, lam)
                    except NotApplicableError:
                        continue
                    v, k = rep.detail["v"], rep.detail["k"]
                    assert exact_by_theorems(DesignParams(v, k, t, lam)).value == n
                    hits += 1
        assert hits > 10


class TestExactDirected:
    def test_twelve_seven(self):
        rep = exact_dpdn_by_theorem(12, 7)
        assert rep.value == 4 and rep.detail["window"] == (24, 25)

    def test_not_applicable(self):
        # scan of the window chain: no n fits 2v = 12 for k = 4
        assert exact_dpdn_by_theorem(6, 4).value is None

    def test_full_blocks(self):
        for k in range(2, 9):
            assert exact_dpdn_by_theorem(k, k).value == 2

    def test_is_the_main_window_at_lam_two(self):
        for k in range(2, 15):
            for v in range(k, 60):
                rep = exact_dpdn_by_theorem(v, k)
                window = exact_by_theorems(DesignParams(v, k, 2, 2))
                if window.provenance == EXACT_WINDOW and window.value is not None:
                    assert (rep.value, rep.detail) == (window.value, window.detail)
                else:
                    assert rep.value is None


class TestBestUpperBound:
    def test_convexity_bound_wins(self):
        rep = best_upper_bound(DesignParams(14, 5, 2, 1))
        assert rep.value == 4
        assert rep.provenance == GEN_SECOND_JOHNSON

    def test_candidates_compute_the_nested_floor_once(self, monkeypatch):
        # the convexity walk takes its cap from the list's own Johnson-Schonheim
        # row, and at t >= 3 no other candidate computes the nested floor
        calls = []

        def counted_js(params):
            calls.append(params)
            return johnson_schonheim(params)

        monkeypatch.setattr(bounds, "johnson_schonheim", counted_js)
        for params in (DesignParams(20, 6, 3, 1), DesignParams(40, 9, 4, 2)):
            calls.clear()
            reps = bound_candidates(params)
            assert calls == [params]
            assert reps[0].provenance == JOHNSON_SCHONHEIM
            assert reps[1] == gen_second_johnson_bound(params)
            calls.clear()
            bound_candidates(params, directed=True)
            assert calls == [params.with_lam(math.factorial(params.t) * params.lam)]

    def test_candidates_at_t_two_compute_each_report_once(self, monkeypatch):
        # Hanani's row takes the list's nested floor, and the directed window at
        # (t, lam) = (2, 1) is read off the shadow's own exact_by_theorems row
        calls = []

        def counting(fn):
            def counted(params):
                calls.append((fn.__name__, params))
                return fn(params)

            return counted

        monkeypatch.setattr(bounds, "johnson_schonheim", counting(johnson_schonheim))
        monkeypatch.setattr(bounds, "exact_by_theorems", counting(exact_by_theorems))
        for cell in ((12, 7, 2, 1), (20, 5, 2, 1), (14, 5, 2, 3)):
            params = DesignParams(*cell)
            calls.clear()
            bound_candidates(params)
            assert calls == [("johnson_schonheim", params), ("exact_by_theorems", params)]
            calls.clear()
            reps = bound_candidates(params, directed=True)
            shadow = params.with_lam(2 * params.lam)
            assert calls == [("johnson_schonheim", shadow), ("exact_by_theorems", shadow)]
            if params.lam == 1:
                assert reps[0] == exact_dpdn_by_theorem(params.v, params.k)
            assert [rep.value for rep in reps if rep.provenance == VIA_UNDIRECTED][1] == (
                hanani_b(params.v, params.k, shadow.lam).value
            )

    def test_six_points_agreement(self):
        assert best_upper_bound(DesignParams(6, 3, 2, 1)).value == 4

    def test_directed_window_wins(self):
        rep = best_upper_bound(DesignParams(12, 7, 2, 1), directed=True)
        assert rep.value == 4 and rep.provenance == EXACT_DIRECTED

    def test_directed_uses_doubled_shadow(self):
        rep = best_upper_bound(DesignParams(9, 4, 2, 1), directed=True)
        shadow_best = best_upper_bound(DesignParams(9, 4, 2, 2))
        assert rep.value <= shadow_best.value

    def test_no_applicable_bound_raises(self):
        with pytest.raises(RuntimeError, match="no applicable bound"):
            least_bound(DesignParams(6, 3, 2, 1), [])

    def test_classical_only_mode_excludes_windows(self):
        rep = best_upper_bound(DesignParams(8, 4, 2, 1), include_exact=False)
        assert not rep.exact

    def test_never_below_an_exact_window(self):
        for lam in (1, 2):
            for k in range(3, 7):
                for v in range(k, 13):
                    params = DesignParams(v, k, 2, lam)
                    exact = exact_by_theorems(params)
                    if exact.value is None:
                        continue
                    assert best_upper_bound(params).value == exact.value
                    assert best_upper_bound(params, include_exact=False).value >= exact.value


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: hanani_b(2, 3), "require v >= k >= 2, got v=2 k=3"),
        (lambda: hanani_b(5, 1), "require v >= k >= 2, got v=5 k=1"),
        (lambda: second_johnson(5, 3, 1), "require v >= k >= t >= 2, got v=5 k=3 t=1"),
        (lambda: gen_second_johnson_feasible(-1, DesignParams(6, 3, 2)),
         "block count must be nonnegative, got -1"),
        (lambda: horsley_bound_1(6, 6), "require 3 <= k < v, got v=6 k=6"),
        (lambda: horsley_bound_1(6, 2), "require 3 <= k < v, got v=6 k=2"),
        (lambda: horsley_bound_2(5, 5, 2), "require 3 <= k < v, got v=5 k=5"),
        (lambda: exact_by_theorems(DesignParams(5, 3, 1)), "require t >= 2, got t=1"),
        (lambda: exact_family(2, 2, 2), "require n >= lam + 1, got n=2 lam=2"),
    ],
)
def test_input_guards_raise_value_error_with_the_failed_condition(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert (exc.type, str(exc.value)) == (ValueError, message)
