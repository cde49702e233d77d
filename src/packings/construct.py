"""Constructions that realize the exact-value windows.

``balanced_packing`` spreads n equal-size blocks so that every point
frequency lands within one of the average.  ``general_construction`` glues a
family of shared points onto such an inner packing; the result meets the
counting bound exactly in the window regime, which is what
``construct_optimal`` exploits.
"""

from __future__ import annotations

from itertools import combinations

from .bounds import BoundReport, NotApplicableError, _window_edge, exact_by_theorems
from .core import DesignParams, PackingDesign, choose

# Largest design general_construction builds, in block entries n*k and in points v.
CONSTRUCT_POINTS_LIMIT = 100_000_000


def _deal(n: int, v: int, k: int) -> list[list[int]]:
    """n blocks of k points; block i holds (ik + j) mod v for j < k."""
    return [[(i * k + j) % v for j in range(k)] for i in range(n)]


def balanced_packing(n: int, v: int, k: int, t: int = 2) -> PackingDesign:
    """n blocks of size k on v points, every frequency in {floor(nk/v), ceil(nk/v)}.

    The blocks are ``_deal(n, v, k)``, each sorted by the design: they deal
    out 0, 1, ..., nk-1 modulo v in turn.  Point x gets one block for each
    number below nk that is congruent to x mod v, and there are floor(nk/v)
    or ceil(nk/v) of those; no block repeats a point since k <= v.  The
    design is therefore valid at multiplicity ceil(nk/v).
    """
    if not (v >= k >= t >= 1 and n >= 0):
        raise ValueError(f"require v >= k >= t >= 1 and n >= 0, got n={n} v={v} k={k} t={t}")
    return PackingDesign(v, _deal(n, v, k))


def general_construction(n: int, v: int, k: int, t: int, lam: int) -> PackingDesign:
    """A packing with n blocks of size k in which every frequency is at most lam+1.

    Each (lam+1)-subset S of the block indices, in lexicographic order, gets
    t-1 shared points that lie in exactly the blocks of S: the u-th subset
    holds points u*(t-1), ..., u*(t-1) + t-2.  The remaining points carry
    blocks dealt as by ``balanced_packing``: block i ends with the i-th one
    shifted past the shared points, and the one design built sorts each block.
    Requires k >= (t-1)*C(n-1, lam) and lam*v >= n*k - (t-1)*C(n, lam+1); violations
    raise with the failed inequality spelled out.  A design with more than
    CONSTRUCT_POINTS_LIMIT block entries or points is refused before anything
    is built.
    """
    if not v >= k >= t >= 2:
        raise ValueError(f"hypotheses not met: need v >= k >= t >= 2, got v={v} k={k} t={t}")
    if lam < 1 or n < 1:
        raise ValueError(f"hypotheses not met: need lam >= 1 and n >= 1, got lam={lam} n={n}")
    need_k = (t - 1) * choose(n - 1, lam)
    if k < need_k:
        raise ValueError(
            f"hypotheses not met: k >= (t-1)*C(n-1,lam) fails ({k} < {need_k})"
        )
    floor_edge = _window_edge(n, k, t, lam)
    if lam * v < floor_edge:
        raise ValueError(
            f"hypotheses not met: lam*v >= n*k - (t-1)*C(n,lam+1) fails ({lam * v} < {floor_edge})"
        )
    if max(n * k, v) > CONSTRUCT_POINTS_LIMIT:
        raise ValueError(f"design of {n:,} blocks of size {k:,} on {v:,} points exceeds "
                         f"the limit of {CONSTRUCT_POINTS_LIMIT:,} points")

    if n <= lam:
        # any n blocks will do: no t-subset can exceed multiplicity n <= lam
        return PackingDesign(v, (tuple(range(k)),) * n)

    blocks: list[list[int]] = [[] for _ in range(n)]
    shared = 0
    for subset in combinations(range(n), lam + 1):
        for i in subset:
            blocks[i].extend(range(shared, shared + t - 1))
        shared += t - 1

    inner_k = k - need_k
    if inner_k:
        # the hypotheses force n*inner_k <= lam*(v - shared), so the dealt inner
        # blocks put every inner point in at most lam blocks
        if -(-n * inner_k // (v - shared)) > lam:
            raise RuntimeError(
                f"inner packing exceeds multiplicity {lam} at n={n} v={v} k={k} t={t}"
            )
        for block, extra in zip(blocks, _deal(n, v - shared, inner_k)):
            block.extend(x + shared for x in extra)
    return PackingDesign(v, blocks)


def construct_optimal(params: DesignParams) -> tuple[PackingDesign, BoundReport]:
    """A design of exactly the window-exact size, with the report certifying it."""
    report = exact_by_theorems(params)
    if report.value is None:
        raise NotApplicableError(f"no exact window covers {params}")
    design = general_construction(report.value, params.v, params.k, params.t, params.lam)
    return design, report
