import random
import re
from collections import deque
from itertools import combinations
from math import comb

import pytest

from packings import (
    DesignParams,
    DirectedPackingDesign,
    DirectingError,
    PackingDesign,
    direct_packing,
    general_construction,
    insert_point,
    is_subsequence,
    validate_directed,
    validate_packing,
)
from conftest import make_two_fold, point_frequencies


def _require_reversed(first, pos, names):
    last = None
    for e in first:
        if e in pos:
            if last is not None and pos[e] > pos[last]:
                raise ValueError(
                    f"point {e} follows point {last} in both blocks {names}; "
                    "a shared pair must appear reversed in the later block"
                )
            last = e


def reference_insert_point(a, t1, t2, t3):
    """The walk over every slot of block 1 that ``insert_point`` replaced, kept as its reference.

    It maps every point of blocks 2 and 3 to its position, counts the
    points blocks 2 and 3 share along both blocks, and tries each slot of
    block 1 that follows a shared point.
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

    xs = [pos2[e] for e in t1 if e in pos2]
    ys = [pos3[e] for e in t1 if e in pos3]
    z = [e for e in t2 if e in pos3]
    z_before = [0]
    for e in t2:
        z_before.append(z_before[-1] + (e in pos3))
    z_after = [0]
    for e in reversed(t3):
        z_after.append(z_after[-1] + (e in pos2))
    z_after.reverse()

    j = k = 0
    for slot1 in range(len(t1) + 1):
        if slot1:
            prev = t1[slot1 - 1]
            if prev in pos2:
                j += 1
            elif prev in pos3:
                k += 1
            else:
                continue
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
    b1, b2, b3 = (set(t[:s]) for t, s in zip((t1, t2, t3), (slot1, slot2, slot3)))
    x, y = pos2.keys() & t1, pos3.keys() & t1
    if not (x <= b1 ^ b2 and y <= b1 ^ b3 and set(z) <= b2 ^ b3):
        raise RuntimeError(f"point {a} misplaced: {new}")
    return new


def reference_direct_packing(design):
    """``direct_packing`` built on ``reference_insert_point``, its blocks rebuilt per point."""
    holders = {}
    for i, block in enumerate(design.blocks):
        for x in block:
            holders.setdefault(x, []).append(i)
    ordered = [deque() for _ in design.blocks]
    for a in sorted(holders):
        hs = holders[a]
        if len(hs) < 3:
            ordered[hs[0]].appendleft(a)
            if len(hs) == 2:
                ordered[hs[1]].append(a)
        else:
            i1, i2, i3 = hs
            new = reference_insert_point(
                a, tuple(ordered[i1]), tuple(ordered[i2]), tuple(ordered[i3])
            )
            ordered[i1], ordered[i2], ordered[i3] = map(deque, new)
    return DirectedPackingDesign(design.v, ordered)


def _outcome(insert, a, blocks):
    try:
        return insert(a, *blocks)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _riffle(rng, first, second):
    """``first`` and ``second`` merged at random, each keeping its order."""
    out, first, second = [], list(first), list(second)
    while first or second:
        side = first if not second or (first and rng.random() < 0.5) else second
        out.append(side.pop(0))
    return out


def random_triple(rng):
    """Three ordered blocks that mostly meet the premises of insert_point, sometimes not.

    Blocks 1 and 2 share x, 1 and 3 share y, 2 and 3 share z, each overlap
    reversed in its later block; then, one time in two, one premise is
    broken: two points of a block swapped, one or two points put in all three blocks,
    or the new point 0 put in a block.
    """
    points = iter(rng.sample(range(1, 60), 40))
    x, y, z, p1, p2, p3 = ([next(points) for _ in range(rng.randrange(0, 5))] for _ in range(6))
    t1 = rng.sample(x + y + p1, len(x + y + p1))
    t2 = _riffle(rng, [e for e in reversed(t1) if e in x], rng.sample(z + p2, len(z + p2)))
    shared3 = _riffle(rng, [e for e in reversed(t1) if e in y], [e for e in reversed(t2) if e in z])
    t3 = _riffle(rng, shared3, p3)
    blocks = [t1, t2, t3]
    fault = rng.randrange(6)  # 3, 4 and 5 break nothing
    if fault == 0:
        b = rng.choice(blocks)
        if len(b) >= 2:
            i, j = rng.sample(range(len(b)), 2)
            b[i], b[j] = b[j], b[i]
    elif fault == 1:
        for e in [next(points) for _ in range(rng.randrange(1, 3))]:
            for b in blocks:
                b.insert(rng.randrange(len(b) + 1), e)
    elif fault == 2:
        b = rng.choice(blocks)
        b.insert(rng.randrange(len(b) + 1), 0)
    return tuple(map(tuple, blocks))


# residual ordered blocks of the 12-point example after removing point 0
T1 = (1, 2, 3, 4, 5, 6)
T2 = (4, 3, 7, 8, 9, 1)
T3 = (6, 5, 10, 11, 9, 2)


class TestInsertPoint:
    def test_worked_example_placement(self):
        n1, n2, n3 = insert_point(0, T1, T2, T3)
        assert n1 == (1, 0, 2, 3, 4, 5, 6)
        # leftmost slot after 3 in block 2; before both 9 and 2's follower in block 3
        assert n2 == (4, 3, 0, 7, 8, 9, 1)
        assert n3 == (6, 5, 10, 11, 9, 2, 0)
        full = DirectedPackingDesign(12, (n1, n2, n3, (2, 1, 9, 11, 10, 8, 7)))
        assert validate_directed(full, DesignParams(12, 7, 2, 1)).valid

    def test_residuals_stay_subsequences(self):
        n1, n2, n3 = insert_point(0, T1, T2, T3)
        assert is_subsequence(T1, n1)
        assert is_subsequence(T2, n2)
        assert is_subsequence(T3, n3)

    def test_disjoint_blocks_any_position_works(self):
        n1, n2, n3 = insert_point(0, (1, 2), (3, 4), (5, 6))
        d = DirectedPackingDesign(7, (n1, n2, n3))
        assert validate_directed(d, DesignParams(7, 3, 2, 1)).valid

    @pytest.mark.parametrize(
        "blocks,message",
        [
            (((1, 2), (1, 2), ()), "point 2 follows point 1 in both blocks 1 and 2"),
            (((1, 5), (5, 2), (3, 5)), "point 5 lies in all three blocks"),
            (((1,), (0, 2), (3,)), "point 0 is already in a block"),
        ],
    )
    def test_input_breaking_the_premises_rejected(self, blocks, message):
        with pytest.raises(ValueError, match=message):
            insert_point(0, *blocks)

    def test_agrees_with_the_reference(self):
        rng = random.Random(11)
        seen = {"placed": 0, "moved": 0, "refused": 0}
        for _ in range(3000):
            blocks = random_triple(rng)
            got = _outcome(insert_point, 0, blocks)
            assert got == _outcome(reference_insert_point, 0, blocks), blocks
            if isinstance(got[0], type):
                seen["refused"] += 1
            else:
                seen["placed"] += 1
                seen["moved"] += any(t.index(0) for t in got)
        assert min(seen.values()) >= 300, seen


class TestDirectPacking:
    def test_twelve_point_design(self, twofold_12_7):
        out = direct_packing(twofold_12_7)
        assert validate_directed(out, DesignParams(12, 7, 2, 1)).valid
        assert all(
            sorted(o) == list(b) for o, b in zip(out.blocks, twofold_12_7.blocks)
        )

    def test_published_ordering_validates(self, directed_12_7):
        assert validate_directed(directed_12_7, DesignParams(12, 7, 2, 1)).valid

    def test_single_block(self):
        out = direct_packing(PackingDesign(4, ((0, 1, 2, 3),)))
        assert sorted(out.blocks[0]) == [0, 1, 2, 3]
        assert validate_directed(out, DesignParams(4, 4, 2, 1)).valid

    def test_shared_pair_flips(self):
        out = direct_packing(PackingDesign(4, ((0, 1, 2), (0, 1, 3))))
        b1, b2 = out.blocks
        first = b1.index(0) < b1.index(1)
        second = b2.index(0) < b2.index(1)
        assert first != second

    def test_two_block_insertion_convention(self):
        # a point returning to two blocks is prepended to the first and
        # appended to the second
        out = direct_packing(PackingDesign(5, ((0, 1, 4), (2, 3, 4))))
        assert out.blocks == ((4, 1, 0), (3, 2, 4))

    def test_three_blocks_through_one_point(self):
        out = direct_packing(PackingDesign(7, ((0, 1, 6), (2, 3, 6), (4, 5, 6))))
        assert validate_directed(out, DesignParams(7, 3, 2, 1)).valid

    def test_empty_and_repeated_blocks(self):
        d = PackingDesign(5, ((), (0, 1), (0, 1), ()))
        out = direct_packing(d)
        assert validate_directed(out, DesignParams(5, 5, 2, 1)).valid
        assert out.blocks[0] == () and out.blocks[3] == ()

    def test_frequency_violation_rejected(self):
        d = PackingDesign(9, ((0, 1), (0, 2), (0, 3), (0, 4)))
        with pytest.raises(DirectingError, match="frequency bound violated at point 0"):
            direct_packing(d)

    def test_errors_name_the_blocks(self):
        d = PackingDesign(6, ((0, 1, 2), (3, 4), (0, 1, 3), (0, 1, 5)))
        with pytest.raises(DirectingError) as exc:
            direct_packing(d)
        assert str(exc.value) == "not a 2-fold packing: pair (0, 1) appears 3 times in blocks (0, 2, 3)"
        d = PackingDesign(7, ((1, 2), (0, 3), (4,), (0, 4), (0, 5), (0, 6)))
        with pytest.raises(DirectingError) as exc:
            direct_packing(d)
        assert str(exc.value) == (
            "more than three blocks, (1, 3, 4, 5), hold one point: "
            "frequency bound violated at point 0"
        )

    def test_pair_overuse_rejected(self):
        d = PackingDesign(5, ((0, 1, 2), (0, 1, 3), (0, 1, 4)))
        with pytest.raises(DirectingError, match="not a 2-fold packing"):
            direct_packing(d)

    def test_randomized_inputs(self, rng):
        for _ in range(300):
            d = make_two_fold(rng)
            out = direct_packing(d)
            assert validate_directed(out, DesignParams(d.v, d.v, 2, 1)).valid
            assert all(sorted(o) == list(b) for o, b in zip(out.blocks, d.blocks))


    def test_rejects_exactly_the_undirectable(self, rng):
        seen = {"accepted": 0, "pairs": 0, "frequency": 0}
        for _ in range(400):
            v = rng.randrange(2, 9)
            blocks = tuple(
                tuple(sorted(rng.sample(range(v), rng.randrange(0, min(v, 4) + 1))))
                for _ in range(rng.randrange(0, 7))
            )
            d = PackingDesign(v, blocks)
            pair_counts = {
                pair: sum(set(pair) <= set(b) for b in blocks)
                for pair in combinations(range(v), 2)
            }
            top = max(pair_counts.values(), default=0)
            freq = [sum(x in b for b in blocks) for x in range(v)]
            if top > 2:
                worst = min(p for p, c in pair_counts.items() if c == top)
                message = re.escape(f"pair {worst} appears {top} times")
                with pytest.raises(DirectingError, match=message):
                    direct_packing(d)
                seen["pairs"] += 1
            elif max(freq) > 3:
                crowded = freq.index(max(freq))
                with pytest.raises(DirectingError, match=f"violated at point {crowded}$"):
                    direct_packing(d)
                seen["frequency"] += 1
            else:
                out = direct_packing(d)
                assert validate_directed(out, DesignParams(v, v, 2, 1)).valid
                seen["accepted"] += 1
        assert min(seen.values()) >= 20, seen


class TestAgreesWithReference:
    def test_random_two_fold_packings(self, rng):
        for _ in range(500):
            d = make_two_fold(rng, v_max=30)
            assert direct_packing(d) == reference_direct_packing(d)

    @pytest.mark.parametrize("n,k", [(3, 100), (4, 120), (5, 160), (5, 240), (5, 480)])
    @pytest.mark.parametrize("late", [False, True])
    def test_window_designs_with_large_blocks(self, n, k, late):
        v = max(k, -(-(n * k - comb(n, 3)) // 2))
        design = general_construction(n, v, k, 2, 2)
        if late:
            # relabelled so that the points in three blocks come last, when the
            # blocks are nearly full and each two of them share about k/(n - 1) points
            design = PackingDesign(v, [[v - 1 - p for p in b] for b in design.blocks])
        assert direct_packing(design) == reference_direct_packing(design)


class TestComposesWithConstruction:
    @pytest.mark.parametrize("v,k", [(12, 7), (9, 6), (7, 5), (14, 8)])
    def test_two_fold_window_designs_direct_cleanly(self, v, k):
        from packings import exact_dpdn_by_theorem

        n = exact_dpdn_by_theorem(v, k).value
        assert n is not None
        design = general_construction(n, v, k, 2, 2)
        assert max(point_frequencies(design)) <= 3
        assert validate_packing(design, DesignParams(v, k, 2, 2)).valid
        out = direct_packing(design)
        assert validate_directed(out, DesignParams(v, k, 2, 1)).valid
        assert len(out.blocks) == n
