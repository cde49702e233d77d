"""A fixed kernel that measures how fast the machine is right now.

The benchmark was built on a shared 2-vCPU sandbox whose speed drifts by up
to 2x over minutes with the load of other tenants.  The runner times this
kernel before every set-up and after each ``EVERY_S`` seconds of measured
operations, and reports each timing at the speed where the kernel takes
``NOMINAL_S``.  So drift cancels to first order while a change to the
program still shows in full.  The kernel is a mix of the interpreter work
the program does: pair counting in C (``Counter`` over ``combinations``)
and in bytecode, an LCS table, frozenset intersections, integer arithmetic
and a small depth-first search.  It never calls ``packings``, and a change
that claims a gain may not edit it.
"""

from __future__ import annotations

import gc
import random
from collections import Counter
from itertools import combinations
from time import perf_counter

NOMINAL_S = 0.15
EVERY_S = 1.0

_rng = random.Random(0)
# small inputs, looped over, so the kernel adds little to peak memory
_LARGE = [_rng.sample(range(2000), 60) for _ in range(4)]
_SMALL = [tuple(_rng.sample(range(400), 8)) for _ in range(300)]
_WORD_A = [_rng.randrange(50) for _ in range(300)]
_WORD_B = [_rng.randrange(50) for _ in range(300)]
_PAIR_ID = {pair: i for i, pair in enumerate(combinations(range(9), 2))}
_CANDS = [tuple(_PAIR_ID[p] for p in combinations(c, 2)) for c in combinations(range(9), 3)]


def _search() -> int:
    """Depth-first packing of triples on 9 points, the shape of the exact search."""
    counts = [0] * len(_PAIR_ID)
    nodes = 0

    def dfs(start: int, depth: int) -> None:
        nonlocal nodes
        for idx in range(start, len(_CANDS)):
            subs = _CANDS[idx]
            if any(counts[s] >= 1 for s in subs):
                continue
            nodes += 1
            for s in subs:
                counts[s] += 1
            if depth < 2:
                dfs(idx + 1, depth + 1)
            for s in subs:
                counts[s] -= 1

    dfs(0, 0)
    return nodes


def _kernel() -> int:
    found = 0
    for _ in range(15):
        counted = Counter()
        for block in _LARGE:
            counted.update(combinations(block, 2))
        found += len(counted)
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(5):
        counts: dict = {}
        for block in _SMALL:
            for pair in combinations(block, 2):
                counts[pair] = counts.get(pair, 0) + 1
        found += len(counts)
    prev = [0] * (len(_WORD_B) + 1)
    for x in _WORD_A:
        cur = [0]
        for j, y in enumerate(_WORD_B):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    sets = [frozenset(combinations(b, 2)) for b in _SMALL]
    hits = sum(1 for i in range(0, 300, 3) for j in range(i + 1, 300, 7) if sets[i] & sets[j])
    return found + total % 7 + prev[-1] + hits + _search()


def kernel_seconds() -> float:
    """Seconds the kernel takes now; a timing times NOMINAL_S / this is at nominal speed.

    The cyclic collector is off meanwhile: the kernel shares the program's
    heap, and a collection would cost what the program keeps alive, not what
    the machine's speed is.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
