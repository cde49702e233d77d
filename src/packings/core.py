"""Domain types, validators, and frequency accounting for packing designs.

A packing design places blocks (subsets of a point set) so that no t-subset
of points is covered more than ``lam`` times.  The directed variant uses
ordered blocks and counts ordered t-tuples along subsequences instead.  All
types are immutable after construction and every operation here is pure.
"""

from __future__ import annotations

import heapq
import math
import operator
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, compress, islice
from typing import Iterable, Sequence, Union


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


@dataclass(frozen=True)
class _Design:
    """Blocks over the point set {0, ..., v-1}; ``_canon`` puts each block in canonical form.

    Sizes may vary, and empty or repeated blocks are legal input.
    """

    v: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.v < 1:
            raise StructuralError(f"v must be positive, got {self.v}")
        blocks = tuple(map(self._canon, self.blocks))
        for b in blocks:
            if b and not (0 <= min(b) and max(b) < self.v and len(set(b)) == len(b)):
                seen = set()  # walk the points only to name the first bad one
                for x in b:
                    if not 0 <= x < self.v:
                        raise StructuralError(f"point {x} out of range for v={self.v}")
                    if x in seen:
                        raise StructuralError(f"duplicate point {x} in block {b}")
                    seen.add(x)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class PackingDesign(_Design):
    """An unordered design: blocks over {0, ..., v-1}, canonicalized to sorted tuples."""

    _canon = staticmethod(lambda block: tuple(sorted(block)))


@dataclass(frozen=True)
class DirectedPackingDesign(_Design):
    """An ordered design: duplicate-free point sequences over {0, ..., v-1}."""

    _canon = staticmethod(tuple)


Design = Union[PackingDesign, DirectedPackingDesign]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a multiplicity check, with the worst offender as a witness.

    ``blocks`` lists, in increasing order, the indices of the blocks that
    hold ``worst_t_set``; there are ``worst_multiplicity`` of them.
    """

    valid: bool
    worst_t_set: tuple[int, ...] | None
    worst_multiplicity: int
    blocks: tuple[int, ...] = ()


def _lis_heights(seq: Iterable[int]) -> list[int]:
    """For each entry, the length of the longest strictly increasing subsequence ending there.

    Patience sorting: ``tails[h-1]`` is the least last entry of such a
    subsequence of length h seen so far, so each entry costs one bisection.
    """
    tails: list[int] = []
    heights = []
    for x in seq:
        h = bisect_left(tails, x)
        tails[h : h + 1] = (x,)  # replace tails[h], or append when h == len(tails)
        heights.append(h + 1)
    return heights


def _chain_heights(common: list[int], others: list[dict[int, int]]) -> list[int]:
    """For each common point, the longest chain that starts there.

    ``common`` lists the shared points in the order of one block; a chain
    also keeps its order in every block whose position map is in
    ``others``.  One other block makes this a longest increasing
    subsequence of positions, read from the right; more take a quadratic
    scan.
    """
    s = len(common)
    if not others:
        return list(range(s, 0, -1))
    if len(others) == 1:
        pos = others[0]
        return _lis_heights([-pos[x] for x in reversed(common)])[::-1]
    keys = [[p[x] for p in others] for x in common]
    heights = [0] * s
    for a in reversed(range(s)):
        later = (heights[b] for b in range(a + 1, s) if all(map(int.__lt__, keys[a], keys[b])))
        heights[a] = 1 + max(later, default=0)
    return heights


def _least_chain(
    common: list[int], others: list[dict[int, int]], heights: list[int], t: int
) -> tuple[int, ...]:
    """The least t-chain: each entry is the least point that still completes one."""
    chain: list[int] = []
    last = -1
    for need in range(t, 0, -1):
        if others:
            after = [
                a
                for a in range(last + 1, len(common))
                if heights[a] >= need
                and (last < 0 or all(p[common[last]] < p[common[a]] for p in others))
            ]
            last = min(after, key=common.__getitem__)
        else:  # the heights count down to 1, so the candidates form a window
            window = common[last + 1 : len(common) - need + 1]
            last += 1 + window.index(min(window))
        chain.append(common[last])
    return tuple(chain)


def _intersection_worst(
    blocks: Sequence[Sequence[int]], t: int, budget: float
) -> tuple[tuple[int, ...] | None, int] | None:
    """The worst t-tuple from the common points of block subsets, or None past ``budget``.

    A t-tuple lies in every block of a set S exactly when it is a chain of
    length t among S's common points: a t-subset when the blocks are
    sorted, otherwise t points in the same order in every block of S.  The
    walk climbs one level of subsets at a time, keeping a subset only while
    its common points hold a t-chain; the last level reached has size M,
    and the least worst tuple is the least t-chain over its subsets.  Work
    (points scanned, pairs compared) is counted against ``budget``, and
    None is returned once it runs over, or when a block repeats a point.
    """
    pos = [{x: i for i, x in enumerate(block)} for block in blocks]
    if any(len(p) != len(block) for p, block in zip(pos, blocks)):
        return None
    ordered = any(any(map(operator.gt, block, block[1:])) for block in blocks)
    n = len(blocks)
    level = [
        ((i,), list(block), range(len(block), 0, -1))
        for i, block in enumerate(blocks)
        if len(block) >= t
    ]
    top, work = [], 0
    while level:
        top, grown = level, []
        for subset, common, _ in level:
            for j in range(subset[-1] + 1, n):
                shared = [x for x in common if x in pos[j]]
                others = [pos[i] for i in subset[1:] + (j,)] if ordered else []
                # at least one unit per subset tried, so the budget also caps their number
                work += 1 + len(common) + (len(shared) ** 2 * len(others) if len(others) > 1 else 0)
                if work > budget:
                    return None
                if len(shared) < t:
                    continue
                heights = _chain_heights(shared, others)
                if max(heights, default=0) >= t:
                    grown.append((subset + (j,), shared, heights))
        level = grown
    if not top:
        return None, 0
    least = min(
        _least_chain(common, [pos[i] for i in subset[1:]] if ordered else [], heights, t)
        for subset, common, heights in top
    )
    return least, len(top[0][0])


def _counter_worst(
    blocks: Sequence[Sequence[int]], t: int
) -> tuple[tuple[int, ...] | None, int]:
    """The worst t-tuple from a count of every block's t-subsequences."""
    counts = Counter(sub for block in blocks for sub in combinations(block, t))
    if not counts:
        return None, 0
    top = max(counts.values())
    return min(s for s, c in counts.items() if c == top), top


def worst_multiplicity(
    blocks: Sequence[Sequence[int]], t: int
) -> tuple[tuple[int, ...] | None, int]:
    """The most-covered t-tuple and its count, the least tuple on ties.

    Positions chosen in increasing order give the t-subsets of a sorted
    block and exactly the ordered t-tuples occurring as subsequences of a
    directed one.  Returns (None, 0) when no block has t points.

    Two exact paths: counting all n*C(k, t) sub-tuples, or walking the
    common points of block subsets, about C(n, 2)*k work when few blocks
    share a t-tuple.  The walk runs when its estimate is the lower, and
    hands over to the count if its work would pass the count's.
    """
    count_cost = sum(choose(len(block), t) for block in blocks)
    if not count_cost:
        return None, 0
    walk_cost = choose(len(blocks), 2) * max(map(len, blocks))
    found = _intersection_worst(blocks, t, count_cost) if walk_cost < count_cost else None
    return found or _counter_worst(blocks, t)


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


def validate_packing(
    design: Design, params: DesignParams, *, uniform: bool = False
) -> ValidationReport:
    """Check that every t-tuple of points lies in at most lam blocks, for either kind of design.

    A t-tuple lies in a block when it is a subsequence of it: a t-subset of
    a sorted block, an ordered t-tuple of a directed one, its entries not
    necessarily consecutive.  ``validate_directed`` is this same function.
    Repeated blocks count separately.  ``uniform`` additionally requires
    every block to have size exactly k (the default allows any size up to k).
    """
    _check_sizes(design, params, uniform)
    worst, mult = worst_multiplicity(design.blocks, params.t)
    holders = ()
    if worst is not None:
        holders = tuple(i for i, b in enumerate(design.blocks) if is_subsequence(worst, b))
        if len(holders) != mult:
            raise RuntimeError(
                f"t-set {worst} counted {mult} times but held by {len(holders)} blocks"
            )
    return ValidationReport(mult <= params.lam, worst, mult, holders)


validate_directed = validate_packing


def require_valid(design: Design, params: DesignParams, *, uniform: bool = False) -> None:
    """Raise ValueError naming the worst t-set and its blocks unless the design is valid."""
    report = validate_packing(design, params, uniform=uniform)
    if not report.valid:
        raise ValueError(
            f"design is invalid at lam={params.lam}: t-set {report.worst_t_set} "
            f"has multiplicity {report.worst_multiplicity} in blocks {report.blocks}"
        )


def _most_frequent(r: Counter, levels: Counter, t: int, v: int) -> list[int]:
    """The t points of r by falling frequency, ties to the least point.

    This is ``sorted(r, key=lambda x: (-r[x], x))[:t]``, padded, when r holds
    fewer than t points, with the least points of range(v) absent from it.
    levels is Counter(r.values()).  The frequency levels are walked down to
    the one that holds the t-th point; only the fewer than t points above it
    are sorted, and the least points of that level are picked by value, so no
    Python call is made per point.
    """
    above = 0
    for f in sorted(levels, reverse=True):
        if above + levels[f] >= t:
            break
        above += levels[f]
    else:
        f = 0  # fewer than t points occur: the absent points, at frequency 0, pad
    top = sorted(compress(r, map(f.__lt__, r.values())))
    top.sort(key=r.__getitem__, reverse=True)  # stable, so ties stay ascending
    if f == 0:
        return top + list(islice((x for x in range(v) if x not in r), t - above))
    return top + heapq.nsmallest(t - above, compress(r, map(f.__eq__, r.values())))


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
    r = Counter(chain.from_iterable(design.blocks))
    levels = Counter(r.values())
    n = len(design.blocks)

    by_freq = _most_frequent(r, levels, t, v)
    worst_x = by_freq[0]
    r_cap = lam * choose(v - 1, t - 1) // choose(k - 1, t - 1)
    freq_ok = r[worst_x] <= r_cap

    spread_lhs = sum(choose(i, lam + 1) * cnt for i, cnt in levels.items())
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
