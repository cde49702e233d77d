"""Exact search for packing and directed packing numbers on small instances.

Depth-first search over candidate blocks in lexicographic order, with
counting-based pruning.  The pruning caps come only from the classical
bounds, never from the exact-value windows, so an "optimal" certificate is
independent ground truth for them.

Each candidate is one int mask over the coverage units (t-sets, or ordered
pairs in the directed case).  The unit counts of the chosen blocks are held
as saturating bitplanes, so a candidate is admissible when its mask misses
the top plane, and a node costs a few integer operations.

The reach prune is the same at every depth.  With c blocks chosen and
r_cap = shadow_lam*C(v-1, t-1)//C(k-1, t-1), a point of frequency f has room
for r_cap - f more blocks (at t = 2 its pair capacity gives the same figure:
(shadow_lam*(v-1) - (k-1)*f)//(k-1) = r_cap - f).  The frequencies sum to
k*c, so the points admit v*r_cap//k - c more blocks, and the units admit
unit_cap*n_units//per_block - c more.  Adding back the c blocks chosen, no
branch can exceed min(v*r_cap//k, unit_cap*n_units//per_block, bound_cap).

The frequency-distribution (convexity) test needs no per-node check: any
shadow_lam + 1 blocks of a valid partial design (its unordered shadow, when
directed) share at most t - 1 points, so the sum over points of
C(freq, shadow_lam + 1) is at most (t-1)*C(c, shadow_lam + 1), which never
exceeds the test's threshold at the reach of a branch worth exploring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import NamedTuple, Union

from .bounds import best_upper_bound
from .core import (
    DesignParams,
    DirectedPackingDesign,
    PackingDesign,
    choose,
    require_valid,
)

OPTIMAL = "optimal"
BUDGET_EXHAUSTED = "budget-exhausted lower bound"
# Largest candidate pool (k-subsets, or ordered k-tuples) a search builds.
POOL_LIMIT = 200_000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the exact search; budgets must be positive when present."""

    node_budget: int | None = None
    symmetry_breaking: bool = True

    def __post_init__(self) -> None:
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError(f"node_budget must be positive, got {self.node_budget}")


class SearchResult(NamedTuple):
    n: int
    witness: Union[PackingDesign, DirectedPackingDesign]
    certificate: str
    nodes: int = 0  # nodes visited, the unit the node budget counts


def _search(
    v: int,
    k: int,
    t: int,
    unit_cap: int,
    shadow_lam: int,
    masks: list[int],
    n_units: int,
    bound_cap: int,
    cfg: SearchConfig,
) -> tuple[int, list[int], str, int]:
    """Shared depth-first engine over precomputed candidate blocks.

    Candidate i covers the coverage units set in masks[i]; each unit may be
    used at most unit_cap times.  The reach prune uses shadow_lam, the
    multiplicity of the unordered shadow (equal to unit_cap for plain
    packings, 2 for directed ones).  Block sequences are kept
    index-nondecreasing (one canonical order per multiset of blocks);
    symmetry breaking additionally roots the search at candidate 0, which
    any design can be relabeled to contain.  Returns the best count, its
    candidate indices, the certificate and the number of nodes visited.
    """
    r_cap = shadow_lam * choose(v - 1, t - 1) // choose(k - 1, t - 1)
    reach = min(v * r_cap // k, unit_cap * n_units // masks[0].bit_count(), bound_cap)
    budget = cfg.node_budget

    chosen: list[int] = []
    best: list[int] = []
    best_n = nodes = 0
    certificate = OPTIMAL
    # The open levels, innermost last: each holds the candidates admissible
    # there, the end and next position of its loop, and its unit planes,
    # where planes[j] holds the units used more than j times.
    level = list(range(len(masks)))
    end = 1 if cfg.symmetry_breaking else len(level)
    pos, planes = 0, [0] * unit_cap
    stack = []
    while True:
        if pos == end:
            if not stack:
                break
            chosen.pop()
            level, end, pos, planes = stack.pop()
            continue
        if nodes == budget:
            certificate = BUDGET_EXHAUSTED
            break
        nodes += 1
        idx = level[pos]
        pos += 1
        chosen.append(idx)
        if len(chosen) > best_n:
            best_n = len(chosen)
            best = chosen.copy()
            if best_n >= bound_cap:
                break
        if reach > best_n:
            carry = masks[idx]
            added = []
            for plane in planes:
                added.append(plane | carry)
                carry &= plane
            full = added[-1]
            stack.append((level, end, pos, planes))
            # saturation only grows with depth, so the children's candidates
            # are this level's remaining ones that stay admissible
            level = [j for j in level[pos - 1 :] if not masks[j] & full]
            end, pos, planes = len(level), 0, added
        else:
            chosen.pop()
    return best_n, best, certificate, nodes


def _require_pool(size: int, what: str) -> None:
    if size > POOL_LIMIT:
        raise ValueError(f"search pool of {size:,} {what} exceeds the limit of {POOL_LIMIT:,}")


def pdn_exact(params: DesignParams, config: SearchConfig | None = None) -> SearchResult:
    """Maximum number of blocks in a packing at these parameters.

    Searches k-subsets in lexicographic order while tracking t-subset
    multiplicities.  With certificate "optimal" the value is exact; a budget
    interruption downgrades it to a lower bound with witness.  Meant for
    desk-scale instances (around v <= 14 at t = 2); a pool of more than
    POOL_LIMIT k-subsets raises ValueError before anything is allocated.
    """
    cfg = config or SearchConfig()
    v, k, t, lam = params.v, params.k, params.t, params.lam
    _require_pool(math.comb(v, k), "blocks")
    cands = list(combinations(range(v), k))
    unit = {s: 1 << i for i, s in enumerate(combinations(range(v), t))}
    masks = [sum(map(unit.__getitem__, combinations(c, t))) for c in cands]
    cap = best_upper_bound(params, include_exact=False).value
    best_n, best, certificate, nodes = _search(
        v, k, t, lam, lam, masks, len(unit), cap, cfg
    )
    witness = PackingDesign(v, tuple(cands[i] for i in best))
    return SearchResult(best_n, witness, certificate, nodes)


def dpdn_exact(v: int, k: int, config: SearchConfig | None = None) -> SearchResult:
    """Maximum number of blocks in a directed packing at (t, lam) = (2, 1).

    Searches ordered k-tuples in lexicographic order while tracking ordered
    pairs (each usable once); the classical bounds of the unordered shadow
    at multiplicity two cap the search.  The candidate pool has v!/(v-k)!
    tuples; above POOL_LIMIT (200,000, so v = 12 at k = 6 is out) it raises
    ValueError before anything is allocated.
    """
    if not v >= k >= 2:
        raise ValueError(f"require v >= k >= 2, got v={v} k={k}")
    cfg = config or SearchConfig()
    _require_pool(math.perm(v, k), "ordered blocks")
    cands = list(permutations(range(v), k))
    unit = {p: 1 << i for i, p in enumerate(permutations(range(v), 2))}
    masks = [sum(map(unit.__getitem__, combinations(c, 2))) for c in cands]
    cap = best_upper_bound(DesignParams(v, k, 2, 2), include_exact=False).value
    best_n, best, certificate, nodes = _search(
        v, k, 2, 1, 2, masks, len(unit), cap, cfg
    )
    witness = DirectedPackingDesign(v, tuple(cands[i] for i in best))
    return SearchResult(best_n, witness, certificate, nodes)


def certify_optimal(
    design: Union[PackingDesign, DirectedPackingDesign],
    params: DesignParams,
    config: SearchConfig | None = None,
) -> bool:
    """True when the design's block count provably equals the packing number.

    A match against the best upper bound settles it immediately; otherwise
    the exact search decides, and an inconclusive (budget-limited) search
    reports False.
    """
    require_valid(design, params)
    directed = isinstance(design, DirectedPackingDesign)
    n = len(design.blocks)
    bound = best_upper_bound(params, directed=directed)
    if n == bound.value:
        return True
    if directed:
        if (params.t, params.lam) != (2, 1):
            return False
        result = dpdn_exact(params.v, params.k, config)
    else:
        result = pdn_exact(params, config)
    return result.certificate == OPTIMAL and result.n == n
