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

``insert_point`` raises ``ValueError`` on input that breaks the premises
(an overlap not reversed, a point in all three blocks, ``a`` already in a
block) and ``RuntimeError`` if no step admits a slot or if some x, y or z
point does not end up before ``a`` in exactly one of its two blocks; the
last two mean a bug.
"""

from __future__ import annotations

from collections import deque

from .core import DirectedPackingDesign, PackingDesign, worst_multiplicity


class DirectingError(ValueError):
    """The input is not a 2-fold packing with every frequency at most three."""


def _require_reversed(first: tuple[int, ...], pos: dict[int, int], names: str) -> None:
    last = None
    for e in first:
        if e in pos:
            if last is not None and pos[e] > pos[last]:
                raise ValueError(
                    f"point {e} follows point {last} in both blocks {names}; "
                    "a shared pair must appear reversed in the later block"
                )
            last = e


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
    pos2 = {e: i for i, e in enumerate(t2)}
    pos3 = {e: i for i, e in enumerate(t3)}
    if a in pos2 or a in pos3 or a in t1:
        raise ValueError(f"point {a} is already in a block")
    for e in t1:
        if e in pos2 and e in pos3:
            raise ValueError(f"point {e} lies in all three blocks")
    _require_reversed(t1, pos2, "1 and 2")
    _require_reversed(t1, pos3, "1 and 3")
    _require_reversed(t2, pos3, "2 and 3")

    xs = [pos2[e] for e in t1 if e in pos2]  # x-points by block-2 position, decreasing
    ys = [pos3[e] for e in t1 if e in pos3]
    z = [e for e in t2 if e in pos3]
    # z_before[s]: z-points before slot s of block 2; z_after[s]: after slot s of block 3
    z_before = [0]
    for e in t2:
        z_before.append(z_before[-1] + (e in pos3))
    z_after = [0]
    for e in reversed(t3):
        z_after.append(z_after[-1] + (e in pos2))
    z_after.reverse()

    j = k = 0  # x- and y-points before slot1 of block 1
    for slot1 in range(len(t1) + 1):
        if slot1:
            prev = t1[slot1 - 1]
            if prev in pos2:
                j += 1
            elif prev in pos3:
                k += 1
            else:
                continue
        # a sits after x_{j+1} and before x_j in block 2, likewise y in block 3
        lo2 = xs[j] + 1 if j < len(xs) else 0
        hi2 = xs[j - 1] if j else len(t2)
        lo3 = ys[k] + 1 if k < len(ys) else 0
        hi3 = ys[k - 1] if k else len(t3)
        m = max(z_before[lo2], z_after[hi3])
        if m <= min(z_before[hi2], z_after[lo3]):
            break
    else:
        raise RuntimeError(f"no slot for point {a} in blocks {t1}, {t2}, {t3}")

    slot2 = max(lo2, pos2[z[m - 1]] + 1 if m else 0)
    slot3 = max(lo3, pos3[z[m]] + 1 if m < len(z) else 0)
    new = (
        t1[:slot1] + (a,) + t1[slot1:],
        t2[:slot2] + (a,) + t2[slot2:],
        t3[:slot3] + (a,) + t3[slot3:],
    )
    # Bi: the points before a in new block i
    b1, b2, b3 = (set(t[:s]) for t, s in zip((t1, t2, t3), (slot1, slot2, slot3)))
    x, y = pos2.keys() & t1, pos3.keys() & t1
    if not (x <= b1 ^ b2 and y <= b1 ^ b3 and set(z) <= b2 ^ b3):
        raise RuntimeError(f"point {a} misplaced: {new}")
    return new


def _check_directable(design: PackingDesign) -> dict[int, list[int]]:
    """The indices of the blocks holding each point that occurs, once the design is directable."""
    pair, mult = worst_multiplicity(design.blocks, 2)
    if mult > 2:
        raise DirectingError(f"not a 2-fold packing: pair {pair} appears {mult} times")
    holders: dict[int, list[int]] = {}
    for i, block in enumerate(design.blocks):
        for x in block:
            holders.setdefault(x, []).append(i)
    freq = max(map(len, holders.values()), default=0)
    if freq > 3:
        point = min(x for x, hs in holders.items() if len(hs) == freq)
        raise DirectingError(f"frequency bound violated at point {point}")
    return holders


def direct_packing(design: PackingDesign) -> DirectedPackingDesign:
    """Order every block of a 2-fold packing so that no ordered pair repeats.

    Block i of the output is a permutation of block i of the input.  The
    points that occur are inserted in ascending order into the blocks that
    hold them, starting from empty blocks.
    """
    holders = _check_directable(design)
    # deques take a point at either end in O(1); only the three-block step
    # rebuilds its blocks
    ordered: list[deque[int]] = [deque() for _ in design.blocks]
    for a in sorted(holders):
        hs = holders[a]
        if len(hs) < 3:
            ordered[hs[0]].appendleft(a)
            if len(hs) == 2:
                ordered[hs[1]].append(a)
        else:
            i1, i2, i3 = hs
            new = insert_point(a, tuple(ordered[i1]), tuple(ordered[i2]), tuple(ordered[i3]))
            ordered[i1], ordered[i2], ordered[i3] = map(deque, new)
    return DirectedPackingDesign(design.v, tuple(map(tuple, ordered)))
