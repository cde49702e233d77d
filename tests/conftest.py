"""Shared golden designs and random-design factories."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from packings import (
    BoundReport,
    DesignParams,
    DirectedPackingDesign,
    PackingDesign,
    gen_second_johnson_feasible,
    johnson_schonheim,
)
from packings.bounds import EXACT_THRESHOLD, EXACT_WINDOW, GEN_SECOND_JOHNSON
from packings.core import choose


@pytest.fixture
def pack_6_3() -> PackingDesign:
    """Optimal 4-block triple packing on 6 points."""
    return PackingDesign(6, ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)))


@pytest.fixture
def directed_6_4() -> DirectedPackingDesign:
    """Optimal 4-block directed packing on 6 points with blocks of size 4."""
    return DirectedPackingDesign(6, ((0, 1, 2, 3), (4, 3, 5, 0), (5, 3, 2, 4), (2, 1, 0, 5)))


@pytest.fixture
def pack_14_5() -> PackingDesign:
    """4-block packing on 14 points: per block two fresh points plus three shared ones.

    Points 0..7 each lie in one block; points 8..13 each lie in exactly two.
    """
    return PackingDesign(
        14, ((0, 1, 8, 9, 10), (2, 3, 8, 11, 12), (4, 5, 9, 11, 13), (6, 7, 10, 12, 13))
    )


@pytest.fixture
def twofold_12_7() -> PackingDesign:
    """2-fold packing on 12 points with four blocks of size 7, frequencies <= 3."""
    return PackingDesign(
        12,
        (
            (0, 1, 2, 3, 4, 5, 6),
            (0, 1, 3, 4, 7, 8, 9),
            (0, 2, 5, 6, 9, 10, 11),
            (1, 2, 7, 8, 9, 10, 11),
        ),
    )


@pytest.fixture
def directed_12_7() -> DirectedPackingDesign:
    """A published ordering of the blocks of twofold_12_7 with no repeated ordered pair."""
    return DirectedPackingDesign(
        12,
        (
            (1, 0, 2, 3, 4, 5, 6),
            (4, 3, 7, 8, 0, 9, 1),
            (6, 5, 10, 11, 9, 2, 0),
            (2, 1, 9, 11, 10, 8, 7),
        ),
    )


def point_frequencies(design) -> list[int]:
    """How many blocks hold each point, indexed by point."""
    counts = Counter(x for block in design.blocks for x in block)
    return [counts[x] for x in range(design.v)]


def make_two_fold(rng: random.Random, v_max: int = 14) -> PackingDesign:
    """Random 2-fold packing with variable block sizes and all frequencies <= 3."""
    v = rng.randrange(2, v_max + 1)
    n = rng.randrange(0, 7)
    pair_use: Counter = Counter()
    freq: Counter = Counter()
    blocks = []
    for _ in range(n):
        size = rng.randrange(0, v + 1)
        block: list[int] = []
        for x in rng.sample(range(v), size):
            if freq[x] >= 3:
                continue
            if all(pair_use[(min(x, y), max(x, y))] < 2 for y in block):
                block.append(x)
        for i, a in enumerate(block):
            for b in block[i + 1 :]:
                pair_use[(min(a, b), max(a, b))] += 1
            freq[a] += 1
        blocks.append(tuple(sorted(block)))
    return PackingDesign(v, tuple(blocks))


def make_packing(
    rng: random.Random, v: int, k: int, t: int, lam: int, tries: int = 30
) -> PackingDesign:
    """Random valid uniform packing built greedily from shuffled candidate blocks."""
    counts: Counter = Counter()
    blocks = []
    from itertools import combinations

    for _ in range(tries):
        block = tuple(sorted(rng.sample(range(v), k)))
        subs = list(combinations(block, t))
        if all(counts[s] < lam for s in subs):
            for s in subs:
                counts[s] += 1
            blocks.append(block)
    return PackingDesign(v, tuple(blocks))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def sj_quadratic_feasible(d: int, v: int, k: int, t: int = 2) -> bool:
    """The quadratic counting condition a size-d packing must satisfy at lam = 1.

    The reference for ``gen_second_johnson_feasible`` at lam = 1, which is
    this test with both sides halved.
    """
    q, r = divmod(d * k, v)
    return d * (d - 1) * (t - 1) >= q * (q - 1) * v + 2 * q * r


def linear_first_infeasible(params: DesignParams) -> BoundReport:
    """The convexity bound by testing every d up to the Johnson-Schonheim cap + 1.

    The reference for ``gen_second_johnson_bound``, which must return the
    same report.
    """
    cap = johnson_schonheim(params).value
    for d in range(cap + 2):
        if not gen_second_johnson_feasible(d, params):
            q, r = divmod(d * params.k, params.v)
            return BoundReport(
                d - 1, GEN_SECOND_JOHNSON, {"first_infeasible": d, "q": q, "r": r}
            )
    return BoundReport(
        None, GEN_SECOND_JOHNSON, {"first_infeasible": None, "scanned_to": cap + 1}
    )


def linear_exact_by_theorems(params: DesignParams) -> BoundReport:
    """The exact windows by stepping ell up from lam and trying every n up to it.

    The reference for ``exact_by_theorems``, which must return the same
    report; like it, this raises when two main windows hold lam*v.
    """
    v, k, t, lam = params.v, params.k, params.t, params.lam

    def edge(n: int) -> int:
        return n * k - (t - 1) * choose(n, lam + 1)

    ell = lam
    while (t - 1) * choose(ell, lam) <= k:
        ell += 1
    hits = [(n, edge(n), edge(n + 1)) for n in range(1, ell + 1)
            if edge(n) <= lam * v < edge(n + 1)]
    if len(hits) > 1:
        raise RuntimeError(f"overlapping windows for {params}: {hits}")
    if hits:
        n, lo, hi = hits[0]
        return BoundReport(n, EXACT_WINDOW, {"n": n, "window": (lo, hi)}, exact=True)
    lo = edge(ell)
    hi = Fraction((lam + 1) * (ell + 1) * k - (t - 1) * choose(ell + 1, lam + 1), lam + 2)
    if lo <= lam * v < hi:
        return BoundReport(ell, EXACT_THRESHOLD, {"ell": ell, "window": (lo, hi)}, exact=True)
    return BoundReport(None, EXACT_WINDOW, {"reason": "outside both windows", "ell": ell})
