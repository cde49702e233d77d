"""Constructions that realize the exact-value windows.

``balanced_packing`` spreads n equal-size blocks so that every point
frequency lands within one of the average.  ``general_construction`` glues a
family of shared points onto such an inner packing; the result meets the
counting bound exactly in the window regime, which is what
``construct_optimal`` exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bounds import BoundReport, NotApplicableError, exact_by_theorems
from .core import DesignParams, PackingDesign, choose

# Largest design general_construction builds, in block entries n*k and in points v.
CONSTRUCT_POINTS_LIMIT = 100_000_000


@dataclass(frozen=True)
class ConstructionLayout:
    """Which point plays which role in general_construction.

    ``u_points`` maps (block-index subset S, copy j) to the shared point that
    lies exactly in the blocks indexed by S; ``w_points`` lists the remaining
    points, which carry the inner packing.  Block indices and copy indices are
    0-based; ``inner_blocks`` holds global point ids.
    """

    u_points: dict[tuple[tuple[int, ...], int], int]
    w_points: tuple[int, ...]
    inner_blocks: tuple[tuple[int, ...], ...]


def balanced_packing(n: int, v: int, k: int, t: int = 2) -> PackingDesign:
    """n blocks of size k on v points, every frequency in {floor(nk/v), ceil(nk/v)}.

    Block i holds the points (ik + j) mod v for j < k, so the blocks deal
    out 0, 1, ..., nk-1 modulo v in turn.  Point x gets one block for each
    number below nk that is congruent to x mod v, and there are floor(nk/v)
    or ceil(nk/v) of those; no block repeats a point since k <= v.  The
    design is therefore valid at multiplicity ceil(nk/v).
    """
    if not (v >= k >= t >= 1 and n >= 0):
        raise ValueError(f"require v >= k >= t >= 1 and n >= 0, got n={n} v={v} k={k} t={t}")
    blocks = tuple(tuple(sorted((i * k + j) % v for j in range(k))) for i in range(n))
    return PackingDesign(v, blocks)


def general_construction(
    n: int, v: int, k: int, t: int, lam: int
) -> tuple[PackingDesign, ConstructionLayout]:
    """A packing with n blocks of size k in which every frequency is at most lam+1.

    Point numbering: shared points first, in lexicographic order of
    (index subset, copy), then the inner-packing points.  Requires
    k >= (t-1)*C(n-1, lam) and lam*v >= n*k - (t-1)*C(n, lam+1); violations
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
    floor_edge = n * k - (t - 1) * choose(n, lam + 1)
    if lam * v < floor_edge:
        raise ValueError(
            f"hypotheses not met: lam*v >= n*k - (t-1)*C(n,lam+1) fails ({lam * v} < {floor_edge})"
        )
    if max(n * k, v) > CONSTRUCT_POINTS_LIMIT:
        raise ValueError(f"design of {n:,} blocks of size {k:,} on {v:,} points exceeds "
                         f"the limit of {CONSTRUCT_POINTS_LIMIT:,} points")

    if n <= lam:
        # any n blocks will do: no t-subset can exceed multiplicity n <= lam
        block = tuple(range(k))
        blocks = tuple(block for _ in range(n))
        layout = ConstructionLayout({}, tuple(range(v)), blocks)
        return PackingDesign(v, blocks), layout

    subsets = list(combinations(range(n), lam + 1))
    u_points: dict[tuple[tuple[int, ...], int], int] = {}
    next_id = 0
    for s in subsets:
        for j in range(t - 1):
            u_points[(s, j)] = next_id
            next_id += 1
    w_points = tuple(range(next_id, v))

    inner_k = k - need_k
    if inner_k:
        # the hypotheses force n*inner_k <= lam*|W|, so the balanced inner
        # packing stays within multiplicity lam; only its frequency property
        # matters here, so the tuple size is immaterial (blocks may be
        # smaller than t)
        inner = balanced_packing(n, len(w_points), inner_k, 1)
        if -(-n * inner_k // len(w_points)) > lam:
            raise RuntimeError(
                f"inner packing exceeds multiplicity {lam} at n={n} v={v} k={k} t={t}"
            )
        inner_blocks = tuple(
            tuple(w_points[x] for x in block) for block in inner.blocks
        )
    else:
        inner_blocks = ((),) * n

    blocks = []
    for i in range(n):
        members = [
            u_points[(s, j)] for s in subsets if i in s for j in range(t - 1)
        ]
        members.extend(inner_blocks[i])
        blocks.append(tuple(sorted(members)))
    design = PackingDesign(v, tuple(blocks))
    layout = ConstructionLayout(u_points, w_points, inner_blocks)
    return design, layout


def construct_optimal(params: DesignParams) -> tuple[PackingDesign, BoundReport]:
    """A design of exactly the window-exact size, with the report certifying it."""
    report = exact_by_theorems(params)
    if report.value is None:
        raise NotApplicableError(f"no exact window covers {params}")
    design, _ = general_construction(
        report.value, params.v, params.k, params.t, params.lam
    )
    return design, report
