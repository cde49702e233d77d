"""Ordering the blocks of a 2-fold packing so that no ordered pair repeats.

Works for any 2-fold packing with variable block sizes, provided no point
lies in more than three blocks.  Points are removed one at a time (largest
first) and reinserted into the partially ordered blocks.  A point returning
to one or two blocks goes at an end; a point returning to three blocks is
placed using sliding windows over the pairwise-shared points, computed in
``compute_state``, so that each point it shares two blocks with ends up once
before it and once after it.

The invariants of the window tables are checked with assert statements on
every insertion; they hold for every valid input, so a failure indicates a
bug rather than bad data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DirectedPackingDesign, PackingDesign, is_subsequence, worst_multiplicity


class DirectingError(ValueError):
    """The input is not a 2-fold packing with every frequency at most three."""


@dataclass(frozen=True)
class DirectingState:
    """Window tables guiding the insertion of point ``a`` into three blocks.

    ``x`` holds the points shared by blocks 1 and 2 in block-1 order, ``y``
    those shared by blocks 1 and 3 in block-1 order, and ``z`` those shared
    by blocks 2 and 3 in block-2 order.  For each prefix length i of block
    1 restricted to x+y, ``j[i]`` and ``k[i]`` count the x- and y-points
    seen, and ``r_windows[i]`` / ``s_windows[i]`` give the inclusive (lo, hi)
    range of z-slots (0 .. r+1, with 0 and r+1 as virtual ends) where ``a``
    may sit in blocks 2 and 3 respectively.  ``ell`` is the least prefix at
    which the two windows admit a common slot pair {m, m+1}.
    """

    a: int
    x: tuple[int, ...]
    y: tuple[int, ...]
    z: tuple[int, ...]
    j: tuple[int, ...]
    k: tuple[int, ...]
    r_windows: tuple[tuple[int, int], ...]
    s_windows: tuple[tuple[int, int], ...]
    ell: int
    m: int

    @property
    def p(self) -> int:
        return len(self.x)

    @property
    def q(self) -> int:
        return len(self.y)

    @property
    def r(self) -> int:
        return len(self.z)

    def r_window(self, i: int) -> set[int]:
        lo, hi = self.r_windows[i]
        return set(range(lo, hi + 1))

    def s_window(self, i: int) -> set[int]:
        lo, hi = self.s_windows[i]
        return set(range(lo, hi + 1))


def compute_state(
    a: int,
    t1: tuple[int, ...],
    t2: tuple[int, ...],
    t3: tuple[int, ...],
) -> DirectingState:
    """Build the insertion windows for a point returning to three blocks.

    The inputs are the already-ordered residual blocks (not containing
    ``a``).  Since they come from a valid partial ordering, each pairwise
    overlap appears in opposite orders in its two blocks; this is asserted
    along with the structural window properties.
    """
    s1, s2, s3 = set(t1), set(t2), set(t3)
    x = tuple(e for e in t1 if e in s2)
    y = tuple(e for e in t1 if e in s3)
    z = tuple(e for e in t2 if e in s3)
    assert not (set(x) & set(y)) and not (set(x) & set(z)) and not (set(y) & set(z))
    assert is_subsequence(tuple(reversed(x)), t2)
    assert is_subsequence(tuple(reversed(y)), t3)
    assert is_subsequence(tuple(reversed(z)), t3)
    p, q, r = len(x), len(y), len(z)

    xrank = {e: i + 1 for i, e in enumerate(x)}
    yrank = {e: i + 1 for i, e in enumerate(y)}
    zrank = {e: i + 1 for i, e in enumerate(z)}

    xy = [e for e in t1 if e in xrank or e in yrank]
    j = [0]
    k = [0]
    for e in xy:
        j.append(j[-1] + (1 if e in xrank else 0))
        k.append(k[-1] + (1 if e in yrank else 0))

    # block 2 with virtual ends: z slot 0 and x rank p+1 in front,
    # x rank 0 and z slot r+1 at the back; x ranks decrease along it
    seq2 = [("z", 0), ("x", p + 1)]
    seq2 += [
        ("x", xrank[e]) if e in xrank else ("z", zrank[e])
        for e in t2
        if e in xrank or e in zrank
    ]
    seq2 += [("x", 0), ("z", r + 1)]
    xpos2 = {idx: pos for pos, (kind, idx) in enumerate(seq2) if kind == "x"}
    zs2 = [(pos, idx) for pos, (kind, idx) in enumerate(seq2) if kind == "z"]

    # block 3 with virtual ends: both y ranks and z slots decrease along it
    seq3 = [("z", r + 1), ("y", q + 1)]
    seq3 += [
        ("y", yrank[e]) if e in yrank else ("z", zrank[e])
        for e in t3
        if e in yrank or e in zrank
    ]
    seq3 += [("y", 0), ("z", 0)]
    ypos3 = {idx: pos for pos, (kind, idx) in enumerate(seq3) if kind == "y"}
    zs3 = [(pos, idx) for pos, (kind, idx) in enumerate(seq3) if kind == "z"]

    def window2(jv: int) -> tuple[int, int]:
        lo = max(idx for pos, idx in zs2 if pos < xpos2[jv + 1])
        hi = min(idx for pos, idx in zs2 if pos > xpos2[jv])
        return lo, hi

    def window3(kv: int) -> tuple[int, int]:
        lo = max(idx for pos, idx in zs3 if pos > ypos3[kv])
        hi = min(idx for pos, idx in zs3 if pos < ypos3[kv + 1])
        return lo, hi

    r_windows = [window2(j[i]) for i in range(p + q + 1)]
    s_windows = [window3(k[i]) for i in range(p + q + 1)]

    for i in range(p + q + 1):
        assert r_windows[i][0] < r_windows[i][1]  # window has at least two slots
        assert s_windows[i][0] < s_windows[i][1]
    assert r_windows[0][1] == r + 1 and s_windows[0][0] == 0
    assert r_windows[p + q][0] == 0 and s_windows[p + q][1] == r + 1
    for i, e in enumerate(xy):
        if e in xrank:  # an x-step slides the block-2 window, fixes block 3
            assert j[i + 1] == j[i] + 1 and k[i + 1] == k[i]
            assert r_windows[i + 1][1] == r_windows[i][0] + 1
            assert s_windows[i + 1] == s_windows[i]
        else:  # a y-step slides the block-3 window, fixes block 2
            assert k[i + 1] == k[i] + 1 and j[i + 1] == j[i]
            assert s_windows[i + 1][0] == s_windows[i][1] - 1
            assert r_windows[i + 1] == r_windows[i]

    ell = next(
        i for i in range(p + q + 1) if r_windows[i][0] < s_windows[i][1]
    )
    lo = max(r_windows[ell][0], s_windows[ell][0])
    hi = min(r_windows[ell][1], s_windows[ell][1])
    assert hi - lo >= 1, "insertion windows share fewer than two slots"
    m = lo

    return DirectingState(
        a, x, y, z, tuple(j), tuple(k), tuple(r_windows), tuple(s_windows), ell, m
    )


def _leftmost_insert(
    seq: tuple[int, ...], a: int, after: list[int], before: list[int]
) -> tuple[int, ...]:
    lo = 0
    for e in after:
        lo = max(lo, seq.index(e) + 1)
    hi = len(seq)
    for e in before:
        hi = min(hi, seq.index(e))
    assert lo <= hi, "no valid insertion slot"
    return seq[:lo] + (a,) + seq[lo:]


def insert_point(
    a: int,
    t1: tuple[int, ...],
    t2: tuple[int, ...],
    t3: tuple[int, ...],
    state: DirectingState | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Insert a point into the three ordered blocks that contain it.

    In block 1, ``a`` goes right after the ell-th shared point; in blocks 2
    and 3 it goes in the leftmost slot between the forced neighbours, so that
    every point sharing two blocks with ``a`` sees it once on each side.
    """
    st = state if state is not None else compute_state(a, t1, t2, t3)
    xset, yset = set(st.x), set(st.y)

    if st.ell == 0:
        pos1 = 0
    else:
        shared = [e for e in t1 if e in xset or e in yset]
        pos1 = t1.index(shared[st.ell - 1]) + 1
    new1 = t1[:pos1] + (a,) + t1[pos1:]

    jv, kv, m = st.j[st.ell], st.k[st.ell], st.m
    # block 2: after x_{j+1} and z_m, before x_j and z_{m+1} (x order reversed there)
    after2 = []
    before2 = []
    if jv + 1 <= st.p:
        after2.append(st.x[jv])
    if jv >= 1:
        before2.append(st.x[jv - 1])
    if 1 <= m <= st.r:
        after2.append(st.z[m - 1])
    if m + 1 <= st.r:
        before2.append(st.z[m])
    new2 = _leftmost_insert(t2, a, after2, before2)

    # block 3: after y_{k+1} and z_{m+1}, before y_k and z_m (both reversed there)
    after3 = []
    before3 = []
    if kv + 1 <= st.q:
        after3.append(st.y[kv])
    if kv >= 1:
        before3.append(st.y[kv - 1])
    if m + 1 <= st.r:
        after3.append(st.z[m])
    if 1 <= m <= st.r:
        before3.append(st.z[m - 1])
    new3 = _leftmost_insert(t3, a, after3, before3)

    return new1, new2, new3


def _check_directable(design: PackingDesign) -> None:
    pair, mult = worst_multiplicity(design.blocks, 2)
    if mult > 2:
        raise DirectingError(f"not a 2-fold packing: pair {pair} appears {mult} times")
    # a frequency is the multiplicity of a 1-tuple; counting only the points
    # that occur keeps memory independent of v
    point, freq = worst_multiplicity(design.blocks, 1)
    if freq > 3:
        raise DirectingError(f"frequency bound violated at point {point[0]}")


def direct_packing(design: PackingDesign) -> DirectedPackingDesign:
    """Order every block of a 2-fold packing so that no ordered pair repeats.

    Block i of the output is a permutation of block i of the input.  Points
    are peeled off in decreasing order and reinserted ascending, starting
    from the single-point base case.
    """
    _check_directable(design)
    members = [set(block) for block in design.blocks]
    ordered: list[tuple[int, ...]] = [
        tuple(x for x in block if x == 0) for block in design.blocks
    ]
    for a in range(1, design.v):
        holders = [i for i, pts in enumerate(members) if a in pts]
        if len(holders) == 1:
            i = holders[0]
            ordered[i] = (a,) + ordered[i]
        elif len(holders) == 2:
            i1, i2 = holders
            ordered[i1] = (a,) + ordered[i1]
            ordered[i2] = ordered[i2] + (a,)
        elif len(holders) == 3:
            i1, i2, i3 = holders
            ordered[i1], ordered[i2], ordered[i3] = insert_point(
                a, ordered[i1], ordered[i2], ordered[i3]
            )
    return DirectedPackingDesign(design.v, tuple(ordered))
