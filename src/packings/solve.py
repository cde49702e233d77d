"""Exact search for packing and directed packing numbers on small instances.

Depth-first search over candidate blocks in lexicographic order, for the
cap first: after a first descent, it runs rounds at a falling target, each
of which cuts only the subtrees that a capacity bound shows cannot reach
its target, and stops at the first round that reaches its target, at the
first descent when every round exhausts its tree, or at its node budget.
The cap is the least classical bound, never taken from the exact-value
windows, so an "optimal" certificate is independent ground truth for them.

Each candidate is one int mask over the coverage units (t-sets, or ordered
t-tuples in the directed case).  The unit counts of the chosen blocks are
held as saturating bitplanes, so a candidate is admissible when its mask
misses the top plane, and a node costs a few integer operations.

The pool is the root (0, ..., k-1) plus the candidates it admits, drawn
lazily by a depth-first walk over prefixes, in lexicographic order, with
prefix shifts: a t-set is numbered by its colex rank sum C(ai, i), an ordered
t-tuple by sum ai * v**(i-1), so appending a point to a prefix shifts the
units of the prefix's shorter subsequences into place.  At lam = 1 every
prefix that meets the root's units is cut with its subtree.  POOL_LIMIT and
MASK_BITS_LIMIT still judge the full C(v, k) or P(v, k) before anything is
drawn.

The search tree holds the index-nondecreasing block sequences that start
at the root, children in candidate order; the search order is its
depth-first order, which among sequences of one length is lexicographic.
So the first design of each size in that order is the lexicographically
least one that contains the root.  A candidate is chosen only when its
fresh points come in order: if the chosen blocks use the points {0, ...,
u-1} (the root uses {0, ..., k-1}, and the rule keeps it so), the
candidate's points from u on must be u, u+1, ... with no gap, which is
p & (p + 1) == 0 for its point mask p shifted right by u.  Child levels
still inherit every admissible candidate, as one refused now may be
allowed deeper, so the reach of a capacity test stays the union of the
admissible candidates.  The rule loses no first design.  Suppose the
first n-block design skips, in its first i blocks, a fresh point a < b,
with b new in block i.  Swapping a and b fixes blocks 1 to i-1, the root
among them, which miss both, and lowers block i; so the swapped design has
at least i blocks below block i, and sorted, it comes first: a
contradiction.  The argument holds for ordered tuples and for repeated
blocks.  So every first design lies in the tree with the rule, and the
rule changes no witness.

The first descent is the search order's first path: at every depth it
takes the first candidate, at or after the current one, that misses the
top plane (at lam >= 2 that may be the current one again), so its d0
blocks are the first d0-block design, and by the argument above it obeys
the fresh rule.  It is taken while the pool is drawn, when the node budget
allows cap nodes: planes change only when a candidate is chosen, so
testing each candidate against the planes as it is drawn, and choosing it
while it stays admissible, picks the same blocks.  When it meets the cap,
the round at the cap below would walk this path and nothing else, as a
subtree that holds a cap-block design is never cut; so its blocks are the
answer, with cap nodes and no cut, and nothing more is drawn.  Otherwise
it visits no node of the search: it sets the lowest target, and it is a
design to answer with.

Then the rest of the pool is drawn and rounds run at the targets T = cap,
cap - 1, ..., d0 + 1 (d0 = 0 when no descent was taken).  Each round
searches the tree with its best count seeded at T - 1, so it tests the
capacity bound against T - 1 and stops at the first node with T blocks.
A skipped subtree holds no T-block design, so that node is the first
T-block design in the search order, which is the witness a search from
best count 0 returns when the optimum is T.  A round that exhausts its
tree proves that no T-block design exists, and the next round starts; when
the round at d0 + 1 exhausts its tree, the first descent is optimal, and
it is the first d0-block design.  The rounds share one node budget, each
running on what the earlier ones left, and nodes and cuts are summed over
them.  When the budget runs out, the answer is the larger of the first
descent and the first node visited at the greatest depth in any round, the
earlier on a tie; the chosen blocks at every node form a packing.  Rounds
cost nodes as well as saving them: when the optimum is below the cap,
every round above it walks its tree to the end.

The one bounding rule is a capacity bound, one code for both searches,
tested before each sibling of a level, on the candidates the level has
left, whenever fewer than T - 1 blocks are chosen.  A level belongs to a
node with d chosen blocks and unit planes P, and holds the candidates that
node leaves admissible, in order; the root's level is the whole pool.
Below the parent, the siblings from position p on choose a first added
block from level[p:], and every later block from a child level, which
keeps only candidates of its own level at or after the one chosen; so
every block they add lies in level[p:], and uses only units in its union
`reach` = suffix[p], each at most as often as it has uses left under P:
free_j = reach & ~planes[j] holds the units with a (j+1)-th use left.  A
block uses C(k,t) units, so at most sum_j |free_j| // C(k,t) blocks can be
added (the unit bound).  A block through point x uses the C(k-1,t-1) units
of its own that contain x, all in star[x], the mask of the units holding
x; so at most floor(sum_j |free_j & star[x]| / C(k-1,t-1)) added blocks
pass through x, and as every block has k points, at most the sum of these
floors over x, divided by k and floored (the point bound).  The point
bound is never above the unit bound: without the floors the point sum is
t * sum_j |free_j| / C(k-1,t-1), and k * C(k-1,t-1) = t * C(k,t).  When d
plus either bound cannot pass T - 1, every sibling left is skipped with
that one test.  With d = T - 1 nothing is tested: a non-empty suffix holds
a block, admissible under P, whose k points each give at least 1, so the
point bound is at least 1.  Within a round the seed is fixed, so a test
with the reach of the last one made at its level is skipped, as that one
did not cut.  Each level's suffix unions come from one pass as it is
built.  The stars are built when the unit bound first fails to cut, so a
search that meets its cap on the first descent never builds them.

The cap is the least classical bound; the counting prunes on the chosen
blocks alone never cut below it.  Write lam for the multiplicity of the
unordered shadow (t! times the directed multiplicity) and JS for the
Johnson-Schonheim bound there; the cap is at most JS.  A point lies in at
most r_cap = lam*C(v-1,t-1)//C(k-1,t-1) blocks, so the points admit
v*r_cap//k blocks, and JS is no more: it is the floor of v/k times an
integer no larger than lam*C(v-1,t-1)/C(k-1,t-1), hence no larger than
r_cap.  The units admit lam*C(v,t)//C(k,t) blocks (for ordered t-tuples the
count is the same at the shadow multiplicity), and JS is no more, because
dropping every floor of the nested bound can only raise it.  The capacity
bound differs from these in counting only the units that the remaining
candidates still reach.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import NamedTuple

from .bounds import best_upper_bound
from .core import (
    Design,
    DesignParams,
    DirectedPackingDesign,
    PackingDesign,
    require_valid,
)

OPTIMAL = "optimal"
BUDGET_EXHAUSTED = "budget-exhausted lower bound"
# Largest candidate pool (all k-subsets, or all ordered k-tuples) a search
# takes on, however few of them the root admits.
POOL_LIMIT = 200_000
# Largest mask table, full pool size times unit count, in bits.  The prefix
# walk holds a stack of at most k prefixes, plus the drawn masks, so this
# bounds it too.
MASK_BITS_LIMIT = 100_000_000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the exact search; budgets must be positive when present."""

    node_budget: int | None = None

    def __post_init__(self) -> None:
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError(f"node_budget must be positive, got {self.node_budget}")


class SearchResult(NamedTuple):
    n: int
    witness: Design
    certificate: str
    nodes: int = 0  # nodes visited over all rounds, the unit the node budget counts
    cuts: int = 0  # capacity tests over all rounds that cut the siblings left in a level
    candidates: int = 0  # candidates drawn from the pool


def _search(
    masks: list[int],
    points: list[int],
    unit_cap: int,
    target: int,
    budget: int | None,
    cut: Callable[[int, list[int], int], bool],
) -> tuple[list[int], bool, int, int]:
    """One seeded round: depth-first search for a design of target blocks.

    Candidate i covers the coverage units set in masks[i] and the points set
    in points[i]; each unit may be used at most unit_cap times.  Block
    sequences are kept index-nondecreasing (one canonical order per multiset
    of blocks), the search is rooted at candidate 0, which any design can be
    relabeled to contain, and a candidate is chosen only when its fresh
    points come in order.  The best count is seeded at target - 1, so
    cut(reach, planes, room), the capacity bound's test that no more than
    room blocks fit, is made before each sibling below that depth, and a
    cut skips the siblings left.  At most budget nodes are visited (None:
    no limit).  Returns the candidate indices of the first node visited at
    the greatest depth (target blocks when the round reaches it), whether
    the budget ran out, the number of nodes visited and the number of tests
    that cut.
    """
    seed = target - 1
    chosen: list[int] = []
    deepest: list[int] = []
    nodes = cuts = 0
    # The open levels, innermost last: each holds the candidates admissible
    # there, the union of their masks from each position on, the reach of
    # its last capacity test, the end and next position of its loop, its
    # unit planes, where planes[j] holds the units used more than j times,
    # and the number of points its node uses.  The root level reaches every
    # candidate.
    level = list(range(len(masks)))
    suffix = [reduce(or_, masks)]
    tested = None
    end, pos, planes, used = 1, 0, [0] * unit_cap, 0
    stack = []
    while True:
        if pos == end:
            if not stack:
                return deepest, False, nodes, cuts
            chosen.pop()
            level, suffix, tested, end, pos, planes, used = stack.pop()
            continue
        idx = level[pos]
        # the points from `used` on must be used, used + 1, ... in turn
        fresh = points[idx] >> used
        if fresh & (fresh + 1):
            pos += 1
            continue
        # a test with the reach of the last one made at this level would not cut
        if len(chosen) < seed and suffix[pos] != tested:
            if cut(suffix[pos], planes, seed - len(chosen)):
                cuts += 1
                pos = end
                continue
            tested = suffix[pos]
        if nodes == budget:
            return deepest, True, nodes, cuts
        nodes += 1
        pos += 1
        chosen.append(idx)
        if len(chosen) > len(deepest):
            deepest = chosen.copy()
            if len(chosen) == target:
                return deepest, False, nodes, cuts
        carry = masks[idx]
        added = []
        for plane in planes:
            added.append(plane | carry)
            carry &= plane
        full = added[-1]
        # saturation only grows with depth, so the children's candidates
        # are this level's remaining ones that stay admissible
        children = [j for j in level[pos - 1 :] if not masks[j] & full]
        if not children:
            chosen.pop()
            continue
        stack.append((level, suffix, tested, end, pos, planes, used))
        tested = None
        suffix = list(accumulate(map(masks.__getitem__, reversed(children)), or_))
        suffix.reverse()
        level, end, pos, planes = children, len(children), 0, added
        used += fresh.bit_length()


def _count(v: int, k: int, directed: bool) -> tuple[int, str]:
    """P(v, k) or C(v, k) and its text, or, past 10,000 bits, 2**100 and "P(v, k)" or "C(v, k)".

    The count is below v**j, j = k or min(k, v - k), so it is computed when
    j * bits(v) <= 10,000.  Beyond that it is at least 2**100, which exceeds
    every limit here: either j > 100, and C(v, j) >= 2**j as j <= v/2 (and
    P(v, k) >= k!), or v >= 2**100 and j >= 1, so the count is at least v.
    Neither math.comb nor the message then meets a number of millions of digits.
    """
    j = k if directed else min(k, v - k)
    if j * v.bit_length() > 10_000:
        return 2**100, f"{'P' if directed else 'C'}({v}, {k})"
    count = math.perm(v, k) if directed else math.comb(v, k)
    return count, f"{count:,}"


def _shifts(v: int, t: int, directed: bool) -> list[list[int]]:
    """shift[j][x]: how far appending point x moves a unit of j - 1 points to its j-point unit."""
    if directed:
        return [[x * v ** (j - 1) for x in range(v)] for j in range(t + 1)]
    return [[math.comb(x, j) for x in range(v)] for j in range(t + 1)]


def _pool(
    v: int, k: int, t: int, lam: int, directed: bool
) -> Iterator[tuple[tuple[int, ...], int]]:
    """The search root (0, ..., k-1), then, in order, the candidates it leaves admissible.

    Yields (candidate, mask) pairs lazily, walking the prefixes of the
    k-subsets (or ordered k-tuples) depth-first in lexicographic order, one
    point at a time, on an explicit stack of at most k prefixes.  A t-set
    a1 < ... < at is unit sum C(ai, i), its colex rank; an ordered t-tuple is
    unit sum ai * v**(i-1), so the directed masks span v**t bits, a factor
    v/(v-1) above P(v, 2) at t = 2.  With units[j] the units of a prefix's
    j-point subsequences (units[0] = 1, the empty one), appending x sets
    units[j] |= units[j-1] << shift[j][x].  At lam = 1 the root's child level
    holds only candidates that miss the root's units, and every later node
    lies in it, so a prefix that meets them is cut with all its extensions;
    at larger lam nothing is cut.
    """
    shift = _shifts(v, t, directed)
    empty = (1,) + (0,) * t
    root = empty
    for x in range(k):
        root = (1, *[root[j] | root[j - 1] << shift[j][x] for j in range(1, t + 1)])
    taboo = root[t] if lam == 1 else 0
    if lam == 1:
        yield tuple(range(k)), taboo
    last = shift[t]
    # each entry: a prefix, its units, and the points still to append to it
    stack = [((), empty, iter(range(v if directed else v - k + 1)))]
    while stack:
        prefix, units, points = stack[-1]
        if len(prefix) == k - 1:
            # the last point: only the top level of units is needed
            stack.pop()
            top, below = units[t], units[t - 1]
            for x in points:
                if directed and x in prefix:
                    continue
                mask = top | below << last[x]
                if not mask & taboo:
                    yield (*prefix, x), mask
            continue
        for x in points:
            if directed and x in prefix:
                continue
            grown = (1, *[units[j] | units[j - 1] << shift[j][x] for j in range(1, t + 1)])
            if not grown[t] & taboo:
                stop = v if directed else v - k + len(prefix) + 2
                stack.append(((*prefix, x), grown, iter(range(0 if directed else x + 1, stop))))
                break
        else:
            stack.pop()


def _stars(v: int, t: int, directed: bool) -> list[int]:
    """Each point's star: a mask holding every unit that contains the point.

    The units of a point sequence (its t-point subsequences) come from
    prefix shifts, as in ``_pool``, and a point's star is what the whole
    sequence has beyond the sequence without it.  An increasing sequence
    gives the t-sets exactly; t copies of range(v) give every ordered t-tuple
    code, repeated points included, and those codes lie in no mask.
    """
    shift = _shifts(v, t, directed)

    def units(skip: int | None) -> int:
        grown = [1] + [0] * t
        for x in [y for y in range(v) if y != skip] * (t if directed else 1):
            for j in range(t, 0, -1):
                grown[j] |= grown[j - 1] << shift[j][x]
        return grown[t]

    every = units(None)
    return [every ^ units(x) for x in range(v)]


def _capacity_cut(
    v: int, k: int, t: int, directed: bool
) -> Callable[[int, list[int], int], bool]:
    """The capacity bound of the module docstring, as a test cut(reach, planes, room).

    The test is true when at most room blocks can be added from candidates
    whose masks lie in reach, planes[j] holding the units used more than j
    times.  It lays the free planes side by side in one int, so the unit
    bound is one popcount and each point one AND and one popcount against
    its star copied once per plane.  The stars are built at the first call
    that the unit bound does not settle.
    """
    per_block, per_point = math.comb(k, t), math.comb(k - 1, t - 1)
    width = v**t if directed else math.comb(v, t)
    wide_stars: list[int] = []

    def cut(reach: int, planes: list[int], room: int) -> bool:
        # the candidates miss the top plane, so all of reach is free there
        wide = reach
        for plane in planes[:-1]:
            wide = wide << width | reach & ~plane
        if wide.bit_count() // per_block <= room:
            return True
        if not wide_stars:
            copies = sum(1 << j * width for j in range(len(planes)))
            wide_stars.extend(star * copies for star in _stars(v, t, directed))
        need, total = (room + 1) * k, 0
        for star in wide_stars:
            total += (wide & star).bit_count() // per_point
            if total >= need:
                return False
        return True

    return cut


def _check_limits(v: int, k: int, t: int, directed: bool) -> None:
    """Refuse a pool past POOL_LIMIT, or a mask table past MASK_BITS_LIMIT, before drawing it."""
    what = "ordered blocks" if directed else "blocks"
    (pool, pool_text), (n_units, units_text) = _count(v, k, directed), _count(v, t, directed)
    if pool > POOL_LIMIT:
        raise ValueError(f"search pool of {pool_text} {what} exceeds the limit of {POOL_LIMIT:,}")
    if pool * n_units > MASK_BITS_LIMIT:
        raise ValueError(f"search pool of {pool_text} {what} over {units_text} units needs a "
                         f"mask table beyond the limit of {MASK_BITS_LIMIT:,} bits")


def _point_masks(cands: list[tuple[int, ...]]) -> list[int]:
    """Each candidate's points, as a mask for the fresh-point test."""
    return [sum(1 << x for x in cand) for cand in cands]


def _exact(params: DesignParams, directed: bool, config: SearchConfig | None) -> SearchResult:
    """The shared search: one mask per candidate block, capped by the classical bounds."""
    v, k, t, lam = params.v, params.k, params.t, params.lam
    _check_limits(v, k, t, directed)
    cap = best_upper_bound(params, directed=directed, include_exact=False).value
    budget = (config or SearchConfig()).node_budget
    design = DirectedPackingDesign if directed else PackingDesign
    # the first descent, taken while drawing: see the module docstring
    descend = budget is None or cap <= budget
    descent: list[tuple[int, ...]] = []
    planes = [0] * lam
    cands: list[tuple[int, ...]] = []
    masks: list[int] = []
    for cand, mask in _pool(v, k, t, lam, directed):
        cands.append(cand)
        masks.append(mask)
        while descend and not mask & planes[-1]:
            descent.append(cand)
            if len(descent) == cap:
                return SearchResult(cap, design(v, tuple(descent)), OPTIMAL, cap, 0, len(cands))
            carry = mask
            for j, plane in enumerate(planes):
                planes[j] = plane | carry
                carry &= plane
    # rounds at a falling target, on the budget the earlier ones left
    points = _point_masks(cands)
    cut = _capacity_cut(v, k, t, directed)
    best, certificate, nodes, cuts = descent, OPTIMAL, 0, 0
    for target in range(cap, len(descent), -1):
        left = None if budget is None else budget - nodes
        deepest, spent, round_nodes, round_cuts = _search(masks, points, lam, target, left, cut)
        nodes += round_nodes
        cuts += round_cuts
        if len(deepest) == target or len(deepest) > len(best):
            best = [cands[i] for i in deepest]
        if spent:
            certificate = BUDGET_EXHAUSTED
            break
        if len(deepest) == target:
            break
    return SearchResult(len(best), design(v, tuple(best)), certificate, nodes, cuts, len(cands))


def pdn_exact(params: DesignParams, config: SearchConfig | None = None) -> SearchResult:
    """Maximum number of blocks in a packing at these parameters.

    Searches k-subsets in lexicographic order while tracking t-subset
    multiplicities.  With certificate "optimal" the value is exact; a budget
    interruption downgrades it to a lower bound with witness.  Meant for
    desk-scale instances (around v <= 14 at t = 2); a pool of more than
    POOL_LIMIT k-subsets, or of more than MASK_BITS_LIMIT k-subset and t-set
    pairs, raises ValueError before anything is allocated.
    """
    return _exact(params, False, config)


def dpdn_exact(v: int, k: int, config: SearchConfig | None = None) -> SearchResult:
    """Maximum number of blocks in a directed packing at (t, lam) = (2, 1).

    Searches ordered k-tuples in lexicographic order while tracking ordered
    pairs (each usable once); the classical bounds of the unordered shadow
    at multiplicity two cap the search.  The full candidate pool has
    v!/(v-k)! tuples; above POOL_LIMIT (200,000, so v = 12 at k = 6 is
    out), or with a mask table above MASK_BITS_LIMIT bits, it raises
    ValueError before anything is allocated.
    """
    if not v >= k >= 2:
        raise ValueError(f"require v >= k >= 2, got v={v} k={k}")
    return _exact(DesignParams(v, k, 2, 1), True, config)


def certify_optimal(
    design: Design,
    params: DesignParams,
    config: SearchConfig | None = None,
) -> bool:
    """True when the design's block count provably equals the packing number.

    A match against the best upper bound settles it immediately.  Otherwise
    one round of the exact search, at target n + 1 with the best count
    seeded at n, decides: a round that exhausts its tree proves that no
    design has n + 1 blocks, one that reaches n + 1 shows n is not optimal,
    and a round that runs out of budget reports False.
    """
    require_valid(design, params)
    directed = isinstance(design, DirectedPackingDesign)
    n = len(design.blocks)
    if n == best_upper_bound(params, directed=directed).value:
        return True
    if directed and (params.t, params.lam) != (2, 1):
        return False
    v, k, t, lam = params.v, params.k, params.t, params.lam
    _check_limits(v, k, t, directed)
    cands, masks = zip(*_pool(v, k, t, lam, directed))
    cut = _capacity_cut(v, k, t, directed)
    budget = (config or SearchConfig()).node_budget
    deepest, spent, _, _ = _search(list(masks), _point_masks(cands), lam, n + 1, budget, cut)
    return not spent and len(deepest) <= n
