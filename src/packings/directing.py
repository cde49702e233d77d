"""Ordering the blocks of a 2-fold packing so that no ordered pair repeats.

Works for any 2-fold packing with variable block sizes, provided no point
lies in more than three blocks.  Points are inserted one at a time, in
ascending order, into the partially ordered blocks that hold them.  A point
in one or two blocks goes at an end.  A point ``a`` in three blocks must
come before each point it shares two blocks with in exactly one of them.

Call x, y and z the points that blocks 1 and 2, 1 and 3, and 2 and 3
share; each overlap already appears reversed in its later block.  Putting
``a`` after the first i shared points of block 1 fixes the gap between
x-points it takes in block 2 and the gap between y-points it takes in
block 3.  Each gap admits a range of m, the number of z-points before ``a``
in block 2 and after it in block 3.  At i = 0 the block-3 range starts at
0 and the block-2 range ends at |z|; after the last shared point the
block-2 range starts at 0.  An x-step moves the block-2 range down to end
where it started, a y-step moves the block-3 range up to start where it
ended, so the first step at which the block-2 range starts no higher than
the block-3 range ends is a step at which the two ranges meet; ``a`` takes
the least m they share.

Cost: a point in one or two blocks costs O(1).  For a point in three
blocks, ``direct_packing`` first tests at C speed, with one set of block 1
and one of block 2, whether the three blocks share any point.  When they
share none, ``a`` goes to the front of each, where ``insert_point`` would
put it, since every check below then holds vacuously.  Otherwise
``insert_point`` runs on tuples of the three blocks and the new tuples
replace them.  It maps each block's points to their positions, intersects
the maps and checks its placement on sets of block prefixes, all O(k) at C
speed; the reversal checks, the walk and the range counts (by bisection)
run over the s shared points only, O(s log s) in Python.

``insert_point`` raises ``ValueError`` on input that breaks the premises
(an overlap not reversed, a point in all three blocks, ``a`` already in a
block) and ``RuntimeError`` if no step admits a slot or if some x, y or z
point does not end up before ``a`` in exactly one of its two blocks; the
last two mean a bug.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from operator import lt

from .core import DirectedPackingDesign, PackingDesign, _blocks_holding, worst_multiplicity


class DirectingError(ValueError):
    """The input is not a 2-fold packing with every frequency at most three."""


def _reversed(points: list[int], pos: dict[int, int], names: str) -> list[int]:
    """The positions ``pos`` gives ``points``; raises unless they decrease."""
    ps = list(map(pos.__getitem__, points))
    if any(map(lt, ps, ps[1:])):
        i = next(i for i in range(1, len(ps)) if ps[i] > ps[i - 1])
        raise ValueError(
            f"point {points[i]} follows point {points[i - 1]} in both blocks {names}; "
            "a shared pair must appear reversed in the later block"
        )
    return ps


def insert_point(
    a: int,
    t1: tuple[int, ...],
    t2: tuple[int, ...],
    t3: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Insert a point into the three ordered blocks that contain it.

    In block 1, ``a`` goes right after the ell-th shared point, for the
    least ell that admits a slot; in blocks 2 and 3 it goes in the leftmost
    slot after the forced neighbours, so that every point sharing two
    blocks with ``a`` sees it once on each side.
    """
    pos1 = dict(zip(t1, range(len(t1))))
    pos2 = dict(zip(t2, range(len(t2))))
    pos3 = dict(zip(t3, range(len(t3))))
    if a in pos1 or a in pos2 or a in pos3:
        raise ValueError(f"point {a} is already in a block")
    x = pos1.keys() & pos2.keys()
    y = pos1.keys() & pos3.keys()
    if x & y:
        raise ValueError(f"point {min(x & y, key=pos1.__getitem__)} lies in all three blocks")
    z = pos2.keys() & pos3.keys()
    shared1 = sorted(x | y, key=pos1.__getitem__)  # the x- and y-points in block-1 order
    xs = _reversed([e for e in shared1 if e in x], pos2, "1 and 2")  # block-2 positions
    ys = _reversed([e for e in shared1 if e in y], pos3, "1 and 3")
    z2 = sorted(map(pos2.__getitem__, z))  # block-2 positions of the z-points, increasing
    z3 = _reversed([t2[p] for p in z2], pos3, "2 and 3")[::-1]  # block-3 ones, increasing

    # slot 0 of block 1, then the slot after each shared point of block 1 in turn
    j = k = slot1 = 0  # x- and y-points before slot1 of block 1
    for e in [None] + shared1:
        if e is not None:
            slot1 = pos1[e] + 1
            if e in x:
                j += 1
            else:
                k += 1
        # a sits after x_{j+1} and before x_j in block 2, likewise y in block 3
        lo2 = xs[j] + 1 if j < len(xs) else 0
        hi2 = xs[j - 1] if j else len(t2)
        lo3 = ys[k] + 1 if k < len(ys) else 0
        hi3 = ys[k - 1] if k else len(t3)
        # m: z-points before a in block 2 and after it in block 3
        m = max(bisect_left(z2, lo2), len(z) - bisect_left(z3, hi3))
        if m <= min(bisect_left(z2, hi2), len(z) - bisect_left(z3, lo3)):
            break
    else:
        raise RuntimeError(f"no slot for point {a} in blocks {t1}, {t2}, {t3}")

    slot2 = max(lo2, z2[m - 1] + 1 if m else 0)
    slot3 = max(lo3, z3[len(z) - 1 - m] + 1 if m < len(z) else 0)
    new = (
        t1[:slot1] + (a,) + t1[slot1:],
        t2[:slot2] + (a,) + t2[slot2:],
        t3[:slot3] + (a,) + t3[slot3:],
    )
    # Bi: the points before a in new block i; each x, y and z point must be in one of its two
    b1, b2, b3 = set(t1[:slot1]), set(t2[:slot2]), set(t3[:slot3])
    if not (x <= b1 ^ b2 and y <= b1 ^ b3 and z <= b2 ^ b3):
        raise RuntimeError(f"point {a} misplaced: {new}")
    return new


def _check_directable(design: PackingDesign) -> dict[int, list[int]]:
    """The indices of the blocks holding each point that occurs, once the design is directable."""
    pair, mult = worst_multiplicity(design.blocks, 2)
    if mult > 2:
        raise DirectingError(
            f"not a 2-fold packing: pair {pair} appears {mult} times "
            f"in blocks {_blocks_holding(design.blocks, pair, mult)}"
        )
    holders: dict[int, list[int]] = {}
    for i, block in enumerate(design.blocks):
        for x in block:
            holders.setdefault(x, []).append(i)
    freq = max(map(len, holders.values()), default=0)
    if freq > 3:
        point = min(x for x, hs in holders.items() if len(hs) == freq)
        raise DirectingError(
            f"more than three blocks, {tuple(holders[point])}, hold one point: "
            f"frequency bound violated at point {point}"
        )
    return holders


def direct_packing(design: PackingDesign) -> DirectedPackingDesign:
    """Order every block of a 2-fold packing so that no ordered pair repeats.

    Block i of the output is a permutation of block i of the input.  The
    points that occur are inserted in ascending order into the blocks that
    hold them, starting from empty blocks.
    """
    holders = _check_directable(design)
    # deques take a point at either end in O(1); only a three-block step
    # whose blocks share a point rebuilds its blocks
    ordered: list[deque[int]] = [deque() for _ in design.blocks]
    for a in sorted(holders):
        hs = holders[a]
        if len(hs) < 3:
            ordered[hs[0]].appendleft(a)
            if len(hs) == 2:
                ordered[hs[1]].append(a)
            continue
        b1, b2, b3 = (ordered[i] for i in hs)
        first = set(b1)
        if first.isdisjoint(b2) and first.isdisjoint(b3) and set(b2).isdisjoint(b3):
            # the blocks share no point, so insert_point would put a first in each
            b1.appendleft(a)
            b2.appendleft(a)
            b3.appendleft(a)
        else:
            for i, block in zip(hs, insert_point(a, tuple(b1), tuple(b2), tuple(b3))):
                ordered[i] = deque(block)
    return DirectedPackingDesign(design.v, ordered)
