"""Exact search for packing and directed packing numbers on small instances.

Depth-first search over candidate blocks in lexicographic order, with
counting-based pruning.  The pruning caps come only from the classical
bounds, never from the exact-value windows, so an "optimal" certificate is
independent ground truth for them.
"""

from __future__ import annotations

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


class _Budget(Exception):
    pass


class _Done(Exception):
    pass


def _search(
    v: int,
    k: int,
    t: int,
    unit_cap: int,
    shadow_lam: int,
    cands: list[tuple[int, ...]],
    cand_subs: list[tuple[int, ...]],
    n_subs: int,
    bound_cap: int,
    cfg: SearchConfig,
) -> tuple[int, list[int], str]:
    """Shared depth-first engine over precomputed candidate blocks.

    Candidate i covers the coverage-unit ids in cand_subs[i]; each unit may
    be used at most unit_cap times.  The frequency-based prunes use
    shadow_lam, the multiplicity of the unordered shadow (equal to unit_cap
    for plain packings, 2 for directed ones).  Block sequences are kept
    index-nondecreasing (one canonical order per multiset of blocks);
    symmetry breaking additionally roots the search at candidate 0, which
    any design can be relabeled to contain.
    """
    per_block = len(cand_subs[0])
    r_cap = shadow_lam * choose(v - 1, t - 1) // choose(k - 1, t - 1)

    counts = [0] * n_subs
    freq = [0] * v
    # per-point remaining pair capacity drives the sharpest prune at t=2
    pair_cap = [shadow_lam * (v - 1)] * v if t == 2 else None
    cand_points = [tuple(sorted(set(c))) for c in cands]

    chosen: list[int] = []
    best_n = 0
    best: list[int] = []
    used = 0
    s_conv = 0  # sum over points of C(freq, shadow_lam + 1)
    nodes = 0

    conv_step = [choose(f, shadow_lam) for f in range(bound_cap + 2)]
    total_units = unit_cap * n_subs

    def extra_bound() -> int:
        room = 0
        if pair_cap is not None:
            km1 = k - 1
            for x in range(v):
                room += min(r_cap - freq[x], pair_cap[x] // km1)
        else:
            for x in range(v):
                room += r_cap - freq[x]
        extra = room // k
        return min(extra, (total_units - used) // per_block)

    def dfs(start: int, c: int) -> None:
        nonlocal best_n, best, used, s_conv, nodes
        end = 1 if (c == 0 and cfg.symmetry_breaking) else len(cands)
        for idx in range(start, end):
            subs = cand_subs[idx]
            if any(counts[s] >= unit_cap for s in subs):
                continue
            nodes += 1
            if cfg.node_budget is not None and nodes > cfg.node_budget:
                raise _Budget
            for s in subs:
                counts[s] += 1
            used += per_block
            for x in cand_points[idx]:
                s_conv += conv_step[freq[x]]
                freq[x] += 1
            if pair_cap is not None:
                for x in cand_points[idx]:
                    pair_cap[x] -= k - 1
            chosen.append(idx)

            if c + 1 > best_n:
                best_n = c + 1
                best = chosen.copy()
                if best_n >= bound_cap:
                    raise _Done
            if c + 1 < bound_cap:
                reach = min(c + 1 + extra_bound(), bound_cap)
                # the frequency-distribution bound must admit some count
                # above the incumbent for the branch to be worth exploring
                if reach > best_n and s_conv <= (t - 1) * choose(reach, shadow_lam + 1):
                    dfs(idx, c + 1)

            chosen.pop()
            if pair_cap is not None:
                for x in cand_points[idx]:
                    pair_cap[x] += k - 1
            for x in cand_points[idx]:
                freq[x] -= 1
                s_conv -= conv_step[freq[x]]
            used -= per_block
            for s in subs:
                counts[s] -= 1

    certificate = OPTIMAL
    try:
        dfs(0, 0)
    except _Done:
        pass
    except _Budget:
        certificate = BUDGET_EXHAUSTED
    return best_n, best, certificate


def pdn_exact(params: DesignParams, config: SearchConfig | None = None) -> SearchResult:
    """Maximum number of blocks in a packing at these parameters.

    Searches k-subsets in lexicographic order while tracking t-subset
    multiplicities.  With certificate "optimal" the value is exact; a budget
    interruption downgrades it to a lower bound with witness.  Meant for
    desk-scale instances (around v <= 14 at t = 2).
    """
    cfg = config or SearchConfig()
    v, k, t, lam = params.v, params.k, params.t, params.lam
    cands = list(combinations(range(v), k))
    sub_ids = {s: i for i, s in enumerate(combinations(range(v), t))}
    cand_subs = [tuple(sub_ids[s] for s in combinations(c, t)) for c in cands]
    cap = best_upper_bound(params, include_exact=False).value
    best_n, best, certificate = _search(
        v, k, t, lam, lam, cands, cand_subs, len(sub_ids), cap, cfg
    )
    witness = PackingDesign(v, tuple(cands[i] for i in best))
    return SearchResult(best_n, witness, certificate)


def dpdn_exact(v: int, k: int, config: SearchConfig | None = None) -> SearchResult:
    """Maximum number of blocks in a directed packing at (t, lam) = (2, 1).

    Searches ordered k-tuples in lexicographic order while tracking ordered
    pairs (each usable once); the classical bounds of the unordered shadow
    at multiplicity two cap the search.  The candidate pool has v!/(v-k)!
    tuples, so keep v around 8 or below.
    """
    if not v >= k >= 2:
        raise ValueError(f"require v >= k >= 2, got v={v} k={k}")
    cfg = config or SearchConfig()
    cands = list(permutations(range(v), k))
    pair_ids = {p: i for i, p in enumerate(permutations(range(v), 2))}
    cand_subs = [tuple(pair_ids[p] for p in combinations(c, 2)) for c in cands]
    cap = best_upper_bound(DesignParams(v, k, 2, 2), include_exact=False).value
    best_n, best, certificate = _search(
        v, k, 2, 1, 2, cands, cand_subs, len(pair_ids), cap, cfg
    )
    witness = DirectedPackingDesign(v, tuple(cands[i] for i in best))
    return SearchResult(best_n, witness, certificate)


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
