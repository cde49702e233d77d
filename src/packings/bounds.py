"""Upper bounds and exact-value windows for packing numbers.

Every function returns a BoundReport carrying a value (or None when the
method does not apply), a provenance label, and the intermediate quantities
behind the value.  All boundary comparisons use exact integer or rational
arithmetic; nothing here touches floating point.

One convexity search and one window loop serve every case: the second
Johnson bound is the lam = 1 case of the convexity bound, and the directed
window is the (t, lam) = (2, 2) case of the main counting window.  The
convexity search walks the segments of constant floor(dk/v), not every
block count; ``_first_true`` makes every monotone search.  ``bound_candidates``
alone decides which bounds apply, and ``best_upper_bound`` is their minimum.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .core import DesignParams, choose

JOHNSON_SCHONHEIM = "johnson-schonheim"
HANANI = "hanani"
SECOND_JOHNSON = "second-johnson"
GEN_SECOND_JOHNSON = "generalized-second-johnson"
HORSLEY_1 = "horsley-1"
HORSLEY_2 = "horsley-2"
EXACT_WINDOW = "exact-window"        # block count pinned by the main counting window
EXACT_THRESHOLD = "exact-threshold"  # pinned at the largest constructible block count
EXACT_FAMILY = "exact-family"        # the tight parameter family hitting the threshold
EXACT_DIRECTED = "exact-directed"    # directed window at (t, lam) = (2, 1)
VIA_UNDIRECTED = "via-undirected"    # directed value bounded through its unordered shadow
HORIZON_BITS_LIMIT = 1_000_000  # largest power, in bits, that _passing_horizon computes


class NotApplicableError(ValueError):
    """A requested theorem or construction does not cover the given parameters."""


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus the method and intermediate quantities that produced it."""

    value: int | None
    provenance: str
    detail: dict = field(default_factory=dict)
    exact: bool = False


def _first_true(pred: Callable[[int], bool], lo: int, hi: int) -> int:
    """Least x in [lo, hi) with pred(x), else hi, for pred false then true there: a
    gallop from lo (lo, lo+2, lo+6, ...), then bisection, on ints of any size."""
    step = 1  # stays above hi - lo once the gallop has passed the answer
    while lo < hi:
        x = lo + step - 1 if step <= hi - lo else (lo + hi) // 2
        if pred(x):
            hi = x
        else:
            lo, step = x + 1, 2 * step
    return lo


def johnson_schonheim(params: DesignParams) -> BoundReport:
    """Nested-floor counting bound; applies to every parameter set."""
    v, k, t, lam = params.v, params.k, params.t, params.lam
    value = lam * (v - t + 1) // (k - t + 1)
    for j in range(t - 2, -1, -1):
        value = (v - j) * value // (k - j)
    return BoundReport(value, JOHNSON_SCHONHEIM, {"v": v, "k": k, "t": t, "lam": lam})


def hanani_b(v: int, k: int, lam: int = 1) -> BoundReport:
    """Nested-floor bound at t=2, minus one when two congruences both hold.

    The improvement triggers when lam(v-1) = 0 mod (k-1) and
    lam*v*(v-1) = -1 mod k, taken verbatim.
    """
    if not v >= k >= 2:
        raise ValueError(f"require v >= k >= 2, got v={v} k={k}")
    base = johnson_schonheim(DesignParams(v, k, 2, lam)).value
    cong_r = lam * (v - 1) % (k - 1) == 0
    cong_b = lam * v * (v - 1) % k == (-1) % k
    improved = cong_r and cong_b
    return BoundReport(
        base - 1 if improved else base,
        HANANI,
        {"base": base, "congruence_r": cong_r, "congruence_b": cong_b, "improved": improved},
    )


def sj_quadratic_feasible(d: int, v: int, k: int, t: int = 2) -> bool:
    """Quadratic counting condition a size-d packing must satisfy at lam=1."""
    q, r = divmod(d * k, v)
    return d * (d - 1) * (t - 1) >= q * (q - 1) * v + 2 * q * r


def second_johnson(v: int, k: int, t: int = 2) -> BoundReport:
    """Largest block count passing the quadratic counting test (lam = 1).

    Doubling both sides of the convexity test at lam = 1 gives the quadratic
    one, so this is ``gen_second_johnson_bound`` at lam = 1 under its own
    name.  The weaker closed form v(k+1-t) // (k^2 - v(t-1)) is added to the
    detail when v(t-1) < k^2.
    """
    if not v >= k >= t >= 2:
        raise ValueError(f"require v >= k >= t >= 2, got v={v} k={k} t={t}")
    params = DesignParams(v, k, t, 1)
    return _as_second_johnson(gen_second_johnson_bound(params), params)


def _as_second_johnson(rep: BoundReport, params: DesignParams) -> BoundReport:
    """The lam = 1 convexity report relabelled, with the closed form added."""
    v, k, t = params.v, params.k, params.t
    closed = v * (k + 1 - t) // (k * k - v * (t - 1)) if v * (t - 1) < k * k else None
    return BoundReport(rep.value, SECOND_JOHNSON, {"closed_form": closed, **rep.detail})


def gen_second_johnson_feasible(d: int, params: DesignParams) -> bool:
    """Convexity counting condition a size-d packing must satisfy for any lam.

    With dk = qv + r and 0 <= r < v, feasibility reads
    (t-1)*C(d, lam+1) >= v*C(q, lam+1) + r*C(q, lam).
    """
    if d < 0:
        raise ValueError(f"block count must be nonnegative, got {d}")
    v, t, lam = params.v, params.t, params.lam
    q, r = divmod(d * params.k, v)
    return (t - 1) * choose(d, lam + 1) >= v * choose(q, lam + 1) + r * choose(q, lam)


def _passing_horizon(params: DesignParams, last: int) -> int:
    """The least D <= last from which on every d passes the convexity test, else last + 1.

    D is the least d >= lam with c*(d-lam)^(lam+1) >= (dk+v)^(lam+1), c = (t-1)*v^lam.
    That suffices: (t-1)*C(d, lam+1) >= (t-1)*(d-lam)^(lam+1)/(lam+1)!, while by
    q+1 <= (dk+v)/v the right side v*C(q, lam+1) + r*C(q, lam) = (v-r)*C(q, lam+1)
    + r*C(q+1, lam+1) <= v*C(q+1, lam+1) <= (dk+v)^(lam+1)/(v^lam*(lam+1)!).  The
    (lam+1)-th roots of both sides are linear in d; if c > k^(lam+1) the left grows
    faster, so the condition stays true once it holds (else it never holds).
    """
    v, k, t, lam = params.v, params.k, params.t, params.lam

    def holds(d: int) -> bool:
        return (t - 1) * v**lam * (d - lam) ** (lam + 1) >= (d * k + v) ** (lam + 1)

    # the size check comes first: it keeps a huge lam from reaching the powers
    if (lam + 1) * (last * k + v).bit_length() > HORIZON_BITS_LIMIT or not holds(last):
        return last + 1
    return _first_true(holds, lam, last)


def _bernoulli_horizon(params: DesignParams, last: int) -> int:
    """A D' from which on every d passes the convexity test, capped at last + 1.

    Let m = floor((lam+1)(t-1)/(v-t+1)); when m < 1 or m(v-k) <= k the cap is
    returned.  Otherwise D' = ceil((m+1)v / (mv - (m+1)k)).  Take d >= D' and
    q = floor(dk/v).  If q < lam the right side of the test is 0.  Else
    d(mv - (m+1)k) >= (m+1)v and q+1 <= (dk+v)/v give d >= (1+1/m)(q+1), so each
    factor (d-i)/(q+1-i), i <= lam, of C(d, lam+1)/C(q+1, lam+1) is at least
    1+1/m, and by Bernoulli the ratio is at least 1 + (lam+1)/m >= v/(t-1) (the
    last step by the choice of m).  The right side is at most v*C(q+1, lam+1),
    as ``_passing_horizon`` shows, so d passes.  No powers are computed, so a
    huge lam costs nothing here.
    """
    v, k, t, lam = params.v, params.k, params.t, params.lam
    m = (lam + 1) * (t - 1) // (v - t + 1)
    if m < 1 or m * (v - k) <= k:
        return last + 1
    return min(-(-(m + 1) * v // (m * v - (m + 1) * k)), last + 1)


def gen_second_johnson_bound(params: DesignParams) -> BoundReport:
    """One less than the first block count failing the convexity counting test.

    The test is tried on d = 0, ..., cap + 1, where cap is the
    Johnson-Schonheim bound, a segment at a time.  A segment is a run of d
    on which q = floor(dk/v) is constant.  On it r = dk - qv grows by k per
    step, so the slack

        f(d) = (t-1)*C(d, lam+1) - v*C(q, lam+1) - r*C(q, lam)

    has forward difference f(d+1) - f(d) = (t-1)*C(d, lam) - k*C(q, lam),
    which never decreases in d: f is convex on the segment.  A search on
    the sign of that difference finds the segment's minimiser m.  If f(m)
    is nonnegative the segment holds no failure; otherwise f does not
    increase on [start, m], so its failures there form a suffix and a
    second search finds the first.  Nothing is assumed about f across
    segments, so the first failure found is the first in d.  The walk ends
    before the smaller of two horizons D from which on every d passes
    (``_passing_horizon`` and ``_bernoulli_horizon``), so about
    min(cap, D)*k/v + 1 segments are walked, at O(log(v/k)) tests each.

    The detail holds the first failing d with its q and r, or, when no d up
    to cap + 1 fails, ``first_infeasible`` None and ``scanned_to`` cap + 1.
    """
    return _convexity_walk(params, johnson_schonheim(params).value)


def _convexity_walk(params: DesignParams, cap: int) -> BoundReport:
    """``gen_second_johnson_bound`` given its Johnson-Schonheim cap, so that a
    caller holding the cap does not compute its nested floor again."""
    v, k, t, lam = params.v, params.k, params.t, params.lam
    last = cap + 1
    stop = min(_passing_horizon(params, last), _bernoulli_horizon(params, last)) - 1
    start = 0
    while start <= stop:
        q = start * k // v
        end = min(((q + 1) * v - 1) // k, stop)
        rising = k * choose(q, lam)
        m = _first_true(lambda d: (t - 1) * choose(d, lam) >= rising, start, end)
        if not gen_second_johnson_feasible(m, params):
            d = _first_true(lambda d: not gen_second_johnson_feasible(d, params), start, m)
            q, r = divmod(d * k, v)
            return BoundReport(
                d - 1, GEN_SECOND_JOHNSON, {"first_infeasible": d, "q": q, "r": r}
            )
        start = end + 1
    return BoundReport(
        None, GEN_SECOND_JOHNSON, {"first_infeasible": None, "scanned_to": last}
    )


def _replication_split(v: int, k: int, lam: int) -> tuple[int, int]:
    """r and d with lam(v-1) = r(k-1) + d and 0 <= d < k-1."""
    return divmod(lam * (v - 1), k - 1)


def horsley_bound_1(v: int, k: int, lam: int = 1) -> BoundReport:
    """Replication-count bound for the low-remainder case d < r - lam (t = 2)."""
    if not 3 <= k < v:
        raise ValueError(f"require 3 <= k < v, got v={v} k={k}")
    r, d = _replication_split(v, k, lam)
    if d >= r - lam:
        return BoundReport(None, HORSLEY_1, {"r": r, "d": d, "reason": "d >= r - lam"})
    return BoundReport(v * (r - 1) // (k - 1), HORSLEY_1, {"r": r, "d": d})


def horsley_bound_2(v: int, k: int, lam: int = 1) -> BoundReport:
    """Replication-count bound for the high-remainder case d >= r - lam (t = 2).

    Two sub-cases carry their own side conditions; the minimum over the
    applicable ones is returned.  Evaluation is exact via Fractions, and a
    non-positive denominator marks the sub-case degenerate.
    """
    if not 3 <= k < v:
        raise ValueError(f"require 3 <= k < v, got v={v} k={k}")
    r, d = _replication_split(v, k, lam)
    if d < r - lam:
        return BoundReport(None, HORSLEY_2, {"r": r, "d": d, "reason": "d < r - lam"})
    cases: dict[str, tuple[Fraction, Fraction]] = {}
    if k * (r + lam - 1) > 2 * d + 2:
        cases["alpha"] = (Fraction(r - lam + 1, 2 * d + 2), Fraction(0))
    if (r - lam) * k * (k - 1) > 2 * (d + 1) * (d + k):
        cases["alpha-beta"] = (
            Fraction(r - lam, 2 * d + 2),
            Fraction(r - lam, 2 * (d + k)),
        )
    values: dict[str, int | None] = {}
    for name, (alpha, beta) in cases.items():
        den = k * (alpha - beta) - 1
        if den <= 0:
            values[name] = None  # degenerate, not applicable
            continue
        val = math.floor((r * v * (alpha - beta) - alpha * v) / den)
        # one block always exists, so a sub-case claiming less than one
        # (possible when r = lam) is degenerate rather than a bound
        values[name] = val if val >= 1 else None
    usable = [val for val in values.values() if val is not None]
    if not usable:
        return BoundReport(
            None,
            HORSLEY_2,
            {"r": r, "d": d, "cases": values, "weights": cases, "reason": "no sub-case applies"},
        )
    return BoundReport(
        min(usable), HORSLEY_2, {"r": r, "d": d, "cases": values, "weights": cases}
    )


def _least_ell(k: int, t: int, lam: int) -> int:
    """Least integer ell >= lam with (t-1) * C(ell, lam) > k; at most lam + k when t >= 2."""
    return _first_true(lambda ell: (t - 1) * choose(ell, lam) > k, lam, lam + k)


def _window_edge(n: int, k: int, t: int, lam: int) -> int:
    return n * k - (t - 1) * choose(n, lam + 1)


def exact_by_theorems(params: DesignParams) -> BoundReport:
    """Exact packing number when one of the large-block-size windows applies.

    First looks for the n with e(n) <= lam*v < e(n+1), e(n) = nk - (t-1)C(n,lam+1);
    failing that, tries the boundary window at ell, the least count with
    (t-1)C(ell,lam) > k, whose upper edge top/(lam+2) is compared in integers,
    as (lam+2)*lam*v < top; the Fraction is built only for a report that
    holds.  As e(n+1) - e(n) = k - (t-1)C(n,lam), e does not decrease on
    1..ell, so that n is one less than the first count there with
    e(n) > lam*v, found by ``_first_true``, and it lies below ell.  The
    search starts at lam + 1 <= ell: for n <= lam, e(n) = nk <= lam*v.
    """
    v, k, t, lam = params.v, params.k, params.t, params.lam
    if t < 2:
        raise ValueError(f"require t >= 2, got t={t}")
    ell = _least_ell(k, t, lam)
    n = _first_true(lambda n: _window_edge(n, k, t, lam) > lam * v, lam + 1, ell + 1) - 1
    if 1 <= n < ell:
        lo, hi = _window_edge(n, k, t, lam), _window_edge(n + 1, k, t, lam)
        if not lo <= lam * v < hi:
            raise RuntimeError(f"window at n={n} for {params} misses lam*v: {(lo, hi)}")
        return BoundReport(n, EXACT_WINDOW, {"n": n, "window": (lo, hi)}, exact=True)
    lo = _window_edge(ell, k, t, lam)
    top = (lam + 1) * (ell + 1) * k - (t - 1) * choose(ell + 1, lam + 1)
    if lo <= lam * v and (lam + 2) * lam * v < top:
        hi = Fraction(top, lam + 2)
        return BoundReport(
            ell, EXACT_THRESHOLD, {"ell": ell, "window": (lo, hi)}, exact=True
        )
    return BoundReport(None, EXACT_WINDOW, {"reason": "outside both windows", "ell": ell})


def exact_family(n: int, t: int, lam: int) -> BoundReport:
    """Exact value n on the tight family v = (t-1)C(n,lam+1), k = (t-1)C(n-1,lam).

    With this v, lam*v lands exactly on the left edge of the boundary window
    at ell = n, so the threshold theorem pins the packing number.  The detail
    carries the parameter set realized.
    """
    if n < lam + 1:
        raise ValueError(f"require n >= lam + 1, got n={n} lam={lam}")
    v = (t - 1) * choose(n, lam + 1)
    k = (t - 1) * choose(n - 1, lam)
    if not v >= k >= t:
        raise NotApplicableError(
            f"family parameters v={v} k={k} degenerate for t={t} (need v >= k >= t)"
        )
    return BoundReport(n, EXACT_FAMILY, {"v": v, "k": k, "t": t, "lam": lam}, exact=True)


def exact_dpdn_by_theorem(v: int, k: int) -> BoundReport:
    """Exact directed packing number when the doubled window applies.

    Returns n when nk - C(n,3) <= 2v < (n+1)k - C(n+1,3), which is the main
    window of ``exact_by_theorems`` at (t, lam) = (2, 2); the directed value
    then coincides with the unordered packing number at multiplicity two.
    """
    rep = exact_by_theorems(DesignParams(v, k, 2, 2))
    if rep.value is None or rep.provenance != EXACT_WINDOW:
        return BoundReport(None, EXACT_DIRECTED, {"reason": "outside the window"})
    return replace(rep, provenance=EXACT_DIRECTED)


def bound_candidates(
    params: DesignParams, *, directed: bool = False, include_exact: bool = True
) -> list[BoundReport]:
    """Every bound that can be evaluated at these parameters, in report order.

    Reports whose method does not apply stay in the list with value None.
    For directed problems the list is the directed window when
    (t, lam) = (2, 1), then every report for the shadow packing at
    multiplicity t! * lam, relabelled ``VIA_UNDIRECTED``.
    """
    v, k, t, lam = params.v, params.k, params.t, params.lam
    if directed:
        out = []
        if include_exact and (t, lam) == (2, 1):
            out.append(exact_dpdn_by_theorem(v, k))
        shadow = params.with_lam(math.factorial(t) * lam)
        for rep in bound_candidates(shadow, include_exact=include_exact):
            detail = {"underlying": rep.provenance, "shadow_lam": shadow.lam, "detail": rep.detail}
            out.append(BoundReport(rep.value, VIA_UNDIRECTED, detail))
        return out
    js = johnson_schonheim(params)
    out = [js]
    if t == 2:
        out.append(hanani_b(v, k, lam))
    convexity = _convexity_walk(params, js.value)
    out.append(convexity)
    if lam == 1 and t >= 2:
        out.append(_as_second_johnson(convexity, params))
    if t == 2 and 3 <= k < v:
        out.append(horsley_bound_1(v, k, lam))
        out.append(horsley_bound_2(v, k, lam))
    if include_exact and t >= 2:
        out.append(exact_by_theorems(params))
    return out


def least_bound(params: DesignParams, candidates: list[BoundReport]) -> BoundReport:
    """The first candidate with the smallest value."""
    best = None
    for rep in candidates:
        if rep.value is not None and (best is None or rep.value < best.value):
            best = rep
    if best is None:  # the nested-floor bound always applies
        raise RuntimeError(f"no applicable bound for {params}")
    return best


def best_upper_bound(
    params: DesignParams, *, directed: bool = False, include_exact: bool = True
) -> BoundReport:
    """Smallest applicable upper bound, reporting which method won.

    The minimum of ``bound_candidates``: for directed problems every
    unordered bound is applied to the shadow packing at multiplicity
    t! * lam, alongside the directed window when (t, lam) = (2, 1).
    ``include_exact=False`` drops the exact-value windows, leaving only the
    classical bounds (used by the search oracle so that its certificates
    stay independent of the windows under test).
    """
    candidates = bound_candidates(params, directed=directed, include_exact=include_exact)
    return least_bound(params, candidates)
