"""Domain types, validators, and frequency accounting for packing designs.

A packing design places blocks (subsets of a point set) so that no t-subset
of points is covered more than ``lam`` times.  The directed variant uses
ordered blocks and counts ordered t-tuples along subsequences instead.  All
types are immutable after construction and every operation here is pure.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Sequence, Union


class StructuralError(ValueError):
    """A design is malformed: point out of range or duplicate point in a block."""


def choose(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 whenever b < 0 or a < b."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def is_subsequence(needle: Sequence[int], haystack: Sequence[int]) -> bool:
    """True if needle occurs in haystack in order, not necessarily contiguously."""
    it = iter(haystack)
    return all(x in it for x in needle)


@dataclass(frozen=True)
class DesignParams:
    """Problem parameters: v points, block size k, t-subsets covered at most lam times."""

    v: int
    k: int
    t: int
    lam: int = 1

    def __post_init__(self) -> None:
        if not self.v >= self.k >= self.t >= 1:
            raise ValueError(
                f"require v >= k >= t >= 1, got v={self.v} k={self.k} t={self.t}"
            )
        if self.lam < 1:
            raise ValueError(f"require lam >= 1, got lam={self.lam}")

    def with_lam(self, lam: int) -> "DesignParams":
        return DesignParams(self.v, self.k, self.t, lam)


def _check_block(block: tuple[int, ...], v: int) -> None:
    seen = set()
    for x in block:
        if not 0 <= x < v:
            raise StructuralError(f"point {x} out of range for v={v}")
        if x in seen:
            raise StructuralError(f"duplicate point {x} in block {block}")
        seen.add(x)


@dataclass(frozen=True)
class PackingDesign:
    """An unordered design: blocks over the point set {0, ..., v-1}.

    Blocks are canonicalized to sorted tuples.  Sizes may vary, and empty or
    repeated blocks are legal input.
    """

    v: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.v < 1:
            raise StructuralError(f"v must be positive, got {self.v}")
        canon = []
        for block in self.blocks:
            b = tuple(sorted(block))
            _check_block(b, self.v)
            canon.append(b)
        object.__setattr__(self, "blocks", tuple(canon))

    @property
    def n(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class DirectedPackingDesign:
    """An ordered design: duplicate-free point sequences over {0, ..., v-1}."""

    v: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.v < 1:
            raise StructuralError(f"v must be positive, got {self.v}")
        canon = []
        for block in self.blocks:
            b = tuple(block)
            _check_block(b, self.v)
            canon.append(b)
        object.__setattr__(self, "blocks", tuple(canon))

    @property
    def n(self) -> int:
        return len(self.blocks)


Design = Union[PackingDesign, DirectedPackingDesign]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a multiplicity check, with the worst offender as a witness."""

    valid: bool
    worst_t_set: tuple[int, ...] | None
    worst_multiplicity: int


def worst_multiplicity(
    blocks: Sequence[Sequence[int]], t: int
) -> tuple[tuple[int, ...] | None, int]:
    """The most-covered t-tuple and its count, the least tuple on ties.

    Positions chosen in increasing order give the t-subsets of a sorted
    block and exactly the ordered t-tuples occurring as subsequences of a
    directed one.  Returns (None, 0) when no block has t points.
    """
    counts = Counter(sub for block in blocks for sub in combinations(block, t))
    if not counts:
        return None, 0
    top = max(counts.values())
    return min(s for s, c in counts.items() if c == top), top


def _check_sizes(design: Design, params: DesignParams, uniform: bool) -> None:
    if design.v != params.v:
        raise ValueError(f"design has v={design.v} but params have v={params.v}")
    for block in design.blocks:
        if uniform and len(block) != params.k:
            raise ValueError(
                f"uniform mode requires block size {params.k}, got {len(block)}"
            )
        if len(block) > params.k:
            raise ValueError(f"block {block} larger than k={params.k}")


def _validate(design: Design, params: DesignParams, uniform: bool) -> ValidationReport:
    _check_sizes(design, params, uniform)
    worst, mult = worst_multiplicity(design.blocks, params.t)
    return ValidationReport(mult <= params.lam, worst, mult)


def validate_packing(
    design: PackingDesign, params: DesignParams, *, uniform: bool = False
) -> ValidationReport:
    """Check that every t-subset of points lies in at most lam blocks.

    Repeated blocks count separately.  ``uniform`` additionally requires every
    block to have size exactly k (the default allows any size up to k).
    """
    return _validate(design, params, uniform)


def validate_directed(
    design: DirectedPackingDesign, params: DesignParams, *, uniform: bool = False
) -> ValidationReport:
    """Check that every ordered t-tuple is a subsequence of at most lam blocks.

    A t-tuple occurs in a block whenever its entries appear there in order;
    they need not be consecutive.
    """
    return _validate(design, params, uniform)


def require_valid(design: Design, params: DesignParams, *, uniform: bool = False) -> None:
    """Raise ValueError naming the worst t-set unless the design's validator passes it."""
    validate = validate_directed if isinstance(design, DirectedPackingDesign) else validate_packing
    report = validate(design, params, uniform=uniform)
    if not report.valid:
        raise ValueError(
            f"design is invalid at lam={params.lam}: t-set {report.worst_t_set} "
            f"has multiplicity {report.worst_multiplicity}"
        )


def structural_diagnostics(
    design: PackingDesign, params: DesignParams
) -> tuple[tuple[str, bool, object], ...]:
    """Counting checks that every valid uniform design must satisfy.

    Three consequences of validity are evaluated: a cap on each point's
    frequency, a convexity bound on the frequency distribution, and a cap on
    the frequency sum of any t points.  A failure here on a validated design
    signals a bug upstream, not mere invalidity.
    """
    _check_sizes(design, params, uniform=True)
    v, k, t, lam = params.v, params.k, params.t, params.lam
    # only the points that occur are counted, so memory does not grow with v
    r = Counter(x for block in design.blocks for x in block)
    n = len(design.blocks)

    by_freq = sorted(r, key=lambda x: (-r[x], x))[:t]
    if len(by_freq) < t:  # only an empty design: pad with the least absent points
        absent = (x for x in range(v) if x not in r)
        by_freq += islice(absent, t - len(by_freq))
    worst_x = by_freq[0]
    r_cap = lam * choose(v - 1, t - 1) // choose(k - 1, t - 1)
    freq_ok = r[worst_x] <= r_cap

    spread_lhs = sum(choose(i, lam + 1) * cnt for i, cnt in Counter(r.values()).items())
    spread_rhs = (t - 1) * choose(n, lam + 1)

    freq_sum = sum(r[x] for x in by_freq)
    sum_cap = (t - 1) * n + lam

    return (
        ("frequency-cap", freq_ok, {"point": worst_x, "frequency": r[worst_x], "cap": r_cap}),
        ("frequency-spread", spread_lhs <= spread_rhs, {"lhs": spread_lhs, "rhs": spread_rhs}),
        ("frequency-sum", freq_sum <= sum_cap, {"points": tuple(by_freq), "sum": freq_sum, "cap": sum_cap}),
    )


def underlying_design(directed: DirectedPackingDesign) -> PackingDesign:
    """Forget block order: each ordered block becomes its point set.

    A valid directed design at (t, lam) yields a valid unordered packing at
    multiplicity t! * lam, since each t-subset has t! orderings.
    """
    return PackingDesign(directed.v, directed.blocks)
