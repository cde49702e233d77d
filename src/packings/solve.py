"""Exact search for packing and directed packing numbers on small instances.

One search, ``_exact``, serves both kinds of design at any (t, lam):
``pdn_exact``, ``dpdn_exact`` (at (2, 1)), ``certify_optimal`` and
``packings solve`` all run it.

Depth-first search over candidate blocks in lexicographic order, for the
cap first: after a first descent, it runs rounds at a falling target, each
of which cuts only the subtrees that a capacity bound shows cannot reach
its target, and stops at the first round that reaches its target, at the
first descent when every round exhausts its tree, or at its node budget.
The cap is the least classical bound, never taken from the exact-value
windows, so an "optimal" certificate is independent ground truth for them.

Each candidate is one int mask over the coverage units (t-sets, or ordered
t-tuples in the directed case).  The unit counts of the chosen blocks are
lam bitplanes in one int, plane j at bits j*width on holding the units used
more than j times: a mask is admissible when it misses the top plane.

The candidates come from one prefix walker, ``_walk``: a depth-first walk
over the prefixes of the k-subsets (or ordered k-tuples), in lexicographic
order, with prefix shifts: a t-set is numbered by its colex rank sum
C(ai, i), an ordered t-tuple by sum ai * v**(i-1), so appending a point to a
prefix shifts the units of the prefix's shorter subsequences into place.
It yields the candidates whose masks miss a taboo mask that the caller may
grow as it goes, with their point masks, and cuts a prefix with all its
extensions once its units meet that mask, or once fewer points can still
follow it than it lacks.  The pool is the root (0, ..., k-1) plus a walk
whose taboo, at lam = 1, is the root's units.  POOL_LIMIT and
MASK_BITS_LIMIT still judge the full C(v, k) or P(v, k), and the lam unit
planes, before anything is drawn.

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
the fresh rule.  It is taken, when the node budget allows cap nodes, on a
walk of its own whose taboo is the live top plane: planes change only
when a candidate is chosen, and only grow, so every candidate the walk
skips would be refused, and choosing each one it yields while it stays
admissible picks the same blocks.  The walk's first candidate is the root,
whose units then enter the plane, so at lam = 1 it yields only what the
pool holds.  When the descent meets the cap, the round at the cap below
would walk this path and nothing else, as a subtree that holds a
cap-block design is never cut; so its blocks are the answer, with cap
nodes and no cut, and the walk is abandoned where it stands: no candidate
past the cap's block is drawn, and no pool.  Otherwise it visits no node of
the search: it sets the lowest target, and it is a design to answer with.

Then the pool is drawn, and rounds run at the targets T = cap,
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
every round above it walks its tree to the end.  `certify_optimal` runs
the same search for an n-block design with floor n: the cap falls to n + 1
and no round runs below n + 1, so the first descent or one round decides.

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
free_j = reach & ~P_j holds the units with a (j+1)-th use left.  A
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
built, and the stars with the cut, which a search that meets its cap on
the first descent never makes.

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
from functools import reduce
from itertools import accumulate, combinations, permutations
from operator import or_
from typing import NamedTuple

from .bounds import best_upper_bound
from .core import (
    Design,
    DesignParams,
    DirectedPackingDesign,
    PackingDesign,
    _Value,
    require_valid,
)

OPTIMAL = "optimal"
BUDGET_EXHAUSTED = "budget-exhausted lower bound"
# Largest candidate pool (all k-subsets, or all ordered k-tuples) a search
# takes on, however few of them the root admits.
POOL_LIMIT = 200_000
# Largest mask table, full pool size times mask width, in bits.  The prefix
# walk holds a stack of at most k prefixes, plus the drawn masks, so this
# bounds it too.  It also bounds the capacity cut's v point stars, each
# lam planes of a mask's width.
MASK_BITS_LIMIT = 100_000_000


class SearchConfig(_Value):
    """Knobs for the exact search; budgets must be positive ints when present."""

    def __init__(self, node_budget: int | None = None) -> None:
        if node_budget is not None and (type(node_budget) is not int or node_budget < 1):
            need = "an integer" if type(node_budget) is not int else "positive"
            raise ValueError(f"node_budget must be {need}, got {node_budget!r}")
        self.__dict__["node_budget"] = node_budget


class SearchResult(NamedTuple):
    n: int
    witness: Design
    certificate: str
    nodes: int = 0  # nodes visited over all rounds, the unit the node budget counts
    cuts: int = 0  # capacity tests over all rounds that cut the siblings left in a level
    candidates: int = 0  # candidates the walks yielded: the first descent's, then the pool's


def _saturate(planes: int, mask: int, width: int, copies: int) -> int:
    """The planes after one more use of each unit in mask: plane j gains mask & plane j-1."""
    return planes | (planes << width | mask) & mask * copies


def _search(
    masks: list[int],
    points: list[int],
    width: int,
    copies: int,
    target: int,
    budget: int | None,
    cut: Callable[[int, int, int], bool],
) -> tuple[list[int], bool, int, int]:
    """One seeded round: depth-first search for a design of target blocks.

    Candidate i covers the coverage units set in masks[i] and the points set
    in points[i]; each unit may be used once per one-bit of copies.  Block
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
    # unit planes and the number of points its node uses.  The root level
    # reaches every candidate.
    top = copies.bit_length() - 1  # the top plane's shift
    level = list(range(len(masks)))
    suffix = [reduce(or_, masks)]
    tested = None
    end, pos, planes, used = 1, 0, 0, 0
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
        added = _saturate(planes, masks[idx], width, copies)
        full = added >> top
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
    """shift[j][x]: how far appending point x moves a unit of j - 1 points to its j-point unit.

    That is x * v**(j-1) for ordered tuples and C(x, j), the sum of C(y, j-1)
    over y < x, for sets.
    """
    shift = [[1] * v]
    for j in range(1, t + 1):
        row = range(0, v**j, v ** (j - 1)) if directed else [0, *accumulate(shift[-1][:-1])]
        shift.append(list(row))
    return shift


def _grow(units: list[int], x: int, shift: list[list[int]]) -> list[int]:
    """Append point x to a sequence whose j-point subsequences have the units in units[j]."""
    grown = [1]
    for j in range(1, len(units)):
        grown.append(units[j] | units[j - 1] << shift[j][x])
    return grown


def _walk(
    v: int, k: int, t: int, directed: bool, taboo: list[int]
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """In lexicographic order, the k-subsets (or ordered k-tuples) whose masks miss taboo[-1].

    Yields (candidate, mask, point mask) triples, walking the prefixes
    depth-first, one point at a time, on an explicit stack of at most k
    prefixes, so a walk abandoned midway leaves nothing to collect.  With
    units[j] the units of a prefix's j-point subsequences (units[0] = 1, the
    empty one), ``_grow`` appends x as units[j] | units[j-1] << shift[j][x];
    the directed masks span v**t bits, a factor v/(v-1) above P(v, 2) at
    t = 2.  taboo[-1] is read live: the caller may grow it between yields
    (and must never shrink it).  A prefix is cut with all its extensions
    when its units meet it as the prefix is pushed, and a candidate is
    yielded when its mask misses it as the candidate is reached; a prefix
    that the grown taboo meets later yields nothing more, as each extension
    holds its units.  A prefix short of k - 1 points also keeps its
    followers: the later points (for ordered tuples, the other points) whose
    one-point extension missed taboo[-1] when the prefix was pushed.  A
    subsequence's units are among the sequence's, so every point of an
    extension is a follower, and a prefix with fewer followers than the
    points it lacks is cut too.
    """
    shift = _shifts(v, t, directed)
    last = shift[t]
    # each entry: a prefix, its units, its point mask, its followers and the
    # positions among them still to try, each leaving enough after it
    follow = list(range(v))
    stack = [((), [1] + [0] * t, 0, follow, iter(range(v if directed else v - k + 1)))]
    while stack:
        prefix, units, points, follow, tries = stack[-1]
        if len(prefix) == k - 1:
            # the last point: only the top level of units is needed
            stack.pop()
            top, below = units[t], units[t - 1]
            for x in follow:
                mask = top | below << last[x]
                if not mask & taboo[-1]:
                    yield (*prefix, x), mask, points | 1 << x
            continue
        need = k - len(prefix) - 1
        for i in tries:
            x = follow[i]
            grown = _grow(units, x, shift)
            live = taboo[-1]
            if grown[t] & live:
                continue
            rest = [y for y in follow if y != x] if directed else follow[i + 1 :]
            if need > 1 and live:
                below = grown[t - 1]
                rest = [y for y in rest if not below << last[y] & live]
                if len(rest) < need:
                    continue
            ahead = range(len(rest) if directed else len(rest) - need + 1)
            stack.append(((*prefix, x), grown, points | 1 << x, rest, iter(ahead)))
            break
        else:
            stack.pop()


def _pool(
    v: int, k: int, t: int, lam: int, directed: bool
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """The search root (0, ..., k-1), then, in order, the candidates it leaves admissible.

    Yields (candidate, mask, point mask) triples from one ``_walk``.  At
    lam = 1 the root's child level holds only candidates that miss the
    root's units, and every later node lies in it, so once the root is
    drawn its units become the walk's taboo; at larger lam nothing is cut.
    """
    taboo = [0]
    walk = _walk(v, k, t, directed, taboo)
    root = next(walk)
    yield root
    if lam == 1:
        taboo[-1] = root[1]
    yield from walk


def _stars(v: int, t: int, directed: bool) -> list[int]:
    """Each point's star: a mask holding every unit that contains the point.

    One pass over the units, the t-sets or the ordered t-tuples of distinct
    points, each numbered as in ``_walk``: the sum of shift[j][a_j] over its
    points a_j.  The stars are filled as bytes, so the pass costs
    C(v, t) * t (or P(v, t) * t) small steps and v conversions to int.
    """
    shift = _shifts(v, t, directed)
    width = v**t if directed else math.comb(v, t)
    rows = shift[1:]
    stars = [bytearray(width // 8 + 1) for _ in range(v)]
    for unit in (permutations if directed else combinations)(range(v), t):
        code = sum(map(list.__getitem__, rows, unit))
        for x in unit:
            stars[x][code >> 3] |= 1 << (code & 7)
    return [int.from_bytes(star, "little") for star in stars]


def _capacity_cut(
    v: int, k: int, t: int, directed: bool, copies: int
) -> Callable[[int, int, int], bool]:
    """The capacity bound of the module docstring, as a test cut(reach, planes, room).

    The test is true when at most room blocks can be added from candidates
    whose masks lie in reach, counted on the free planes, held in one int as
    the planes are, against the stars copied once per plane.
    """
    per_block, per_point = math.comb(k, t), math.comb(k - 1, t - 1)
    wide_stars = [star * copies for star in _stars(v, t, directed)]

    def cut(reach: int, planes: int, room: int) -> bool:
        free = reach * copies & ~planes
        if free.bit_count() // per_block <= room:
            return True
        need, total = (room + 1) * k, 0
        for star in wide_stars:
            total += (free & star).bit_count() // per_point
            if total >= need:
                return False
        return True

    return cut


def _exact(
    params: DesignParams, directed: bool, config: SearchConfig | None, floor: int | None = None
) -> SearchResult:
    """The shared search, capped by the classical bounds and, given a floor, by floor + 1."""
    v, k, t, lam = params.v, params.k, params.t, params.lam
    # refuse a pool past POOL_LIMIT, or masks or planes past MASK_BITS_LIMIT, before drawing any
    what = "ordered blocks" if directed else "blocks"
    pool, pool_text = _count(v, k, directed)
    if pool > POOL_LIMIT:
        raise ValueError(f"search pool of {pool_text} {what} exceeds the limit of {POOL_LIMIT:,}")
    # a mask spans the units as _walk numbers them: v**t bits for ordered t-tuples, which
    # the pool's limit keeps small, and C(v, t) for t-sets
    width, width_text = (v**t, f"{v**t:,}") if directed else _count(v, t, False)
    if pool * width > MASK_BITS_LIMIT:
        raise ValueError(f"search pool of {pool_text} {what} with masks of {width_text} bits "
                         f"needs a mask table beyond the limit of {MASK_BITS_LIMIT:,} bits")
    # the descent and the search hold lam planes of a mask's width, and the capacity cut
    # holds v stars of lam planes each
    if v * lam * width > MASK_BITS_LIMIT:
        raise ValueError(f"search at lambda={lam:,} needs {v} point stars of {lam:,} planes of "
                         f"{width_text} bits, beyond the limit of {MASK_BITS_LIMIT:,} bits")
    copies = ((1 << lam * width) - 1) // ((1 << width) - 1)  # lam ones, width bits apart
    cap = best_upper_bound(params, directed=directed, include_exact=False).value
    if floor is not None:
        cap = min(cap, floor + 1)
    budget = (config or SearchConfig()).node_budget
    design = DirectedPackingDesign if directed else PackingDesign
    # the first descent, on its own walk under the live top plane: see the
    # module docstring
    descent: list[tuple[int, ...]] = []
    drawn = 0
    if budget is None or cap <= budget:
        planes, full = 0, [0]
        for drawn, (cand, mask, _) in enumerate(_walk(v, k, t, directed, full), 1):
            while not mask & full[-1]:
                descent.append(cand)
                if len(descent) == cap:
                    return SearchResult(cap, design(v, tuple(descent)), OPTIMAL, cap, 0, drawn)
                planes = _saturate(planes, mask, width, copies)
                full[-1] = planes >> (lam - 1) * width
    # lists: the search reads them through list.__getitem__, faster than a tuple's
    cands, masks, points = map(list, zip(*_pool(v, k, t, lam, directed)))
    drawn += len(cands)
    # rounds at a falling target, on the budget the earlier ones left
    cut = _capacity_cut(v, k, t, directed, copies)
    best, certificate, nodes, cuts = descent, OPTIMAL, 0, 0
    for target in range(cap, max(len(descent), floor or 0), -1):
        left = None if budget is None else budget - nodes
        deepest, spent, n_nodes, n_cuts = _search(masks, points, width, copies, target, left, cut)
        nodes += n_nodes
        cuts += n_cuts
        if len(deepest) == target or len(deepest) > len(best):
            best = [cands[i] for i in deepest]
        if spent:
            certificate = BUDGET_EXHAUSTED
            break
        if len(deepest) == target:
            break
    return SearchResult(len(best), design(v, tuple(best)), certificate, nodes, cuts, drawn)


def pdn_exact(params: DesignParams, config: SearchConfig | None = None) -> SearchResult:
    """Maximum number of blocks in a packing at these parameters.

    Searches k-subsets in lexicographic order while tracking t-subset
    multiplicities.  With certificate "optimal" the value is exact; a budget
    interruption downgrades it to a lower bound with witness.  Meant for
    desk-scale instances (around v <= 14 at t = 2); a pool of more than
    POOL_LIMIT k-subsets, or of more than MASK_BITS_LIMIT k-subset and t-set
    pairs, or v*lam*C(v, t) above it, raises ValueError before anything is
    allocated.
    """
    return _exact(params, False, config)


def dpdn_exact(v: int, k: int, config: SearchConfig | None = None) -> SearchResult:
    """Maximum number of blocks in a directed packing at (t, lam) = (2, 1).

    The one search over ordered k-tuples at ``DesignParams(v, k, 2, 1)``,
    which checks v and k: ordered pairs are usable once, and the classical
    bounds of the unordered shadow at multiplicity two cap it.  The full
    pool has v!/(v-k)! tuples; above POOL_LIMIT (200,000, so v = 12 at
    k = 6 is out), or with a mask table above MASK_BITS_LIMIT bits (pool
    times v**2), it raises ValueError before anything is allocated.
    """
    return _exact(DesignParams(v, k, 2, 1), True, config)


def certify_optimal(
    design: Design,
    params: DesignParams,
    config: SearchConfig | None = None,
) -> bool:
    """True when the design's block count provably equals the packing number.

    For an unordered or a directed design, at any (t, lam).  A match
    against the best upper bound settles it immediately.  Otherwise the
    exact search runs with floor n, so its one target is n + 1: reaching
    it shows n is not optimal, exhausting the round's tree proves that no
    design has n + 1 blocks, and a search that runs out of budget reports False.
    """
    require_valid(design, params)
    directed = isinstance(design, DirectedPackingDesign)
    n = len(design.blocks)
    if n == best_upper_bound(params, directed=directed).value:
        return True
    result = _exact(params, directed, config, floor=n)
    return result.certificate == OPTIMAL and result.n <= n
