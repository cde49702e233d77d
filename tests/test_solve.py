import gc
import random
import tracemalloc
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from packings import (
    DesignParams,
    DirectedPackingDesign,
    PackingDesign,
    SearchConfig,
    best_upper_bound,
    certify_optimal,
    dpdn_exact,
    johnson_schonheim,
    pdn_exact,
    validate_directed,
    validate_packing,
)
from packings.core import choose
from packings import solve
from packings.solve import (
    BUDGET_EXHAUSTED,
    MASK_BITS_LIMIT,
    OPTIMAL,
    POOL_LIMIT,
    SearchResult,
    _capacity_cut,
    _pool,
    _saturate,
    _stars,
    _walk,
)


def brute_pdn(v, k, t, lam):
    """Independent oracle: enumerate block multisets outright, largest first."""
    params = DesignParams(v, k, t, lam)
    cands = list(combinations(range(v), k))
    for size in range(johnson_schonheim(params).value, 0, -1):
        pick = combinations_with_replacement if lam > 1 else combinations
        for blocks in pick(cands, size):
            if validate_packing(PackingDesign(v, blocks), params).valid:
                return size
    return 0


def brute_dpdn(v, k):
    """Independent oracle: enumerate ordered-block sets outright, largest first."""
    params = DesignParams(v, k, 2, 1)
    cands = list(permutations(range(v), k))
    cap = johnson_schonheim(DesignParams(v, k, 2, 2)).value
    for size in range(cap, 0, -1):
        for blocks in combinations(cands, size):
            if validate_directed(DirectedPackingDesign(v, blocks), params).valid:
                return size
    return 0


class _Budget(Exception):
    pass


class _Done(Exception):
    pass


def reference_search(
    v, k, t, unit_cap, shadow_lam, cands, cand_subs, n_subs, bound_cap, cfg, symmetry=True,
    bound=True, sibling=True, seeded=True, fresh=True,
):
    """The per-unit counting engine the bitset engine replaced, kept as its reference.

    At every node it recomputes the reach prune from per-point frequencies
    and pair capacities and checks the convexity test, and each level
    rescans the saturated candidates.  With bound set it also applies the
    capacity bound, counted unit by unit: with sibling set, before each
    candidate of a loop that may be chosen, on the candidates admissible
    from it on, and a cut ends the loop; otherwise (the earlier rule) once
    after choosing a candidate, on its child level.  With symmetry set it
    roots the search at candidate 0, as the engine does.  With fresh set a
    candidate may be chosen only when its points beyond those the chosen
    blocks use are the next ones in order.  With seeded set, when the budget
    allows bound_cap nodes, it takes the first descent (the first admissible
    candidate at or after the last, at every depth), which answers with
    bound_cap nodes when it meets bound_cap and is not counted otherwise;
    then it runs one search per target from bound_cap down to one above the
    descent, with the best count at target - 1, all on one node budget: a
    round that reaches its target answers with that node, a spent budget
    with the first node visited at the greatest depth (the descent's end
    included), and when every round exhausts its tree the descent answers.
    Otherwise it runs one search from best count 0, the earlier rule.
    Returns (n, candidate indices, certificate, nodes visited, capacity
    tests that cut).
    """
    per_block = len(cand_subs[0])
    r_div = choose(k - 1, t - 1)
    r_cap = shadow_lam * choose(v - 1, t - 1) // r_div
    unit_points = {}
    for c, subs in zip(cands, cand_subs):
        unit_points.update(zip(subs, combinations(c, t)))

    counts = [0] * n_subs
    freq = [0] * v
    pair_cap = [shadow_lam * (v - 1)] * v if t == 2 else None
    cand_points = [tuple(sorted(set(c))) for c in cands]

    chosen = []
    deepest = []
    best_n, target = 0, bound_cap
    used = 0
    s_conv = 0
    nodes = cuts = 0

    conv_step = [choose(f, shadow_lam) for f in range(bound_cap + 2)]
    total_units = unit_cap * n_subs

    def extra_bound():
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

    def admissible(idx):
        return all(counts[s] < unit_cap for s in cand_subs[idx])

    def in_order(idx, u):
        # the points the chosen blocks use are 0, ..., u - 1
        new = [x for x in cand_points[idx] if x >= u]
        return not fresh or new == list(range(u, u + len(new)))

    def capacity_cut(start, c):
        # the uses left on each unit the admissible candidates from start
        # reach, summed per point; no cut when none is admissible
        children = [j for j in range(start, len(cands)) if admissible(j)]
        if not children:
            return False
        reached = {s for j in children for s in cand_subs[j]}
        left = [0] * v
        for s in reached:
            for x in unit_points[s]:
                left[x] += unit_cap - counts[s]
        return c + sum(n // r_div for n in left) // k <= best_n

    def visit(idx):
        # count a node and choose its candidate; True when it reaches the target
        nonlocal nodes
        nodes += 1
        if cfg.node_budget is not None and nodes > cfg.node_budget:
            raise _Budget
        return choose_block(idx)

    def choose_block(idx):
        nonlocal best_n, deepest, used, s_conv
        for s in cand_subs[idx]:
            counts[s] += 1
        used += per_block
        for x in cand_points[idx]:
            s_conv += conv_step[freq[x]]
            freq[x] += 1
        if pair_cap is not None:
            for x in cand_points[idx]:
                pair_cap[x] -= k - 1
        chosen.append(idx)
        if len(chosen) > len(deepest):
            deepest = chosen.copy()
        best_n = max(best_n, len(chosen))
        return best_n >= target

    def leave(idx):
        nonlocal used, s_conv
        chosen.pop()
        if pair_cap is not None:
            for x in cand_points[idx]:
                pair_cap[x] += k - 1
        for x in cand_points[idx]:
            freq[x] -= 1
            s_conv -= conv_step[freq[x]]
        used -= per_block
        for s in cand_subs[idx]:
            counts[s] -= 1

    def dfs(start, c, u):
        nonlocal cuts
        end = 1 if (c == 0 and symmetry) else len(cands)
        for idx in range(start, end):
            if not admissible(idx) or not in_order(idx, u):
                continue
            if bound and sibling and c < best_n and capacity_cut(idx, c):
                cuts += 1
                break
            if visit(idx):
                raise _Done
            if c + 1 < target:
                reach = min(c + 1 + extra_bound(), target)
                if reach > best_n and s_conv <= (t - 1) * choose(reach, shadow_lam + 1):
                    if bound and not sibling and c + 1 < best_n and capacity_cut(idx, c + 1):
                        cuts += 1
                    else:
                        dfs(idx, c + 1, max(u, cand_points[idx][-1] + 1))
            leave(idx)

    certificate = OPTIMAL
    try:
        if seeded:
            descent, idx, u = [], 0, 0
            while cfg.node_budget is None or bound_cap <= cfg.node_budget:
                idx = next(
                    (j for j in range(idx, len(cands)) if admissible(j) and in_order(j, u)), None
                )
                if idx is None:
                    break
                descent.append(idx)
                if choose_block(idx):
                    # the round at the cap would walk this path, and nothing else
                    nodes = bound_cap
                    raise _Done
                u = max(u, cand_points[idx][-1] + 1)
            for idx in reversed(descent):
                leave(idx)
            for target in range(bound_cap, len(descent), -1):
                best_n = target - 1
                dfs(0, 0, 0)
            best_n = len(deepest)
        else:
            dfs(0, 0, 0)
    except _Done:
        deepest = chosen.copy()  # the node that reached the target, as a round answers
    except _Budget:
        certificate = BUDGET_EXHAUSTED
        nodes -= 1  # the node that broke the budget was not visited
        best_n = len(deepest)
    return best_n, deepest, certificate, nodes, cuts


def reference_pdn(params, cfg, **rules):
    v, k, t, lam = params.v, params.k, params.t, params.lam
    cands = list(combinations(range(v), k))
    sub_ids = {s: i for i, s in enumerate(combinations(range(v), t))}
    cand_subs = [tuple(sub_ids[s] for s in combinations(c, t)) for c in cands]
    cap = best_upper_bound(params, include_exact=False).value
    n, best, certificate, nodes, cuts = reference_search(
        v, k, t, lam, lam, cands, cand_subs, len(sub_ids), cap, cfg, **rules
    )
    return n, tuple(cands[i] for i in best), certificate, nodes, cuts


def reference_dpdn(v, k, cfg, **rules):
    cands = list(permutations(range(v), k))
    pair_ids = {p: i for i, p in enumerate(permutations(range(v), 2))}
    cand_subs = [tuple(pair_ids[p] for p in combinations(c, 2)) for c in cands]
    cap = best_upper_bound(DesignParams(v, k, 2, 2), include_exact=False).value
    n, best, certificate, nodes, cuts = reference_search(
        v, k, 2, 1, 2, cands, cand_subs, len(pair_ids), cap, cfg, **rules
    )
    return n, tuple(cands[i] for i in best), certificate, nodes, cuts


REFERENCE_BUDGETS = (1, 2, 7, 60, 600, 3000)
REFERENCE_PDN_CELLS = [
    *((v, k, 2, lam) for lam in (1, 2, 3) for k in (3, 4, 5) for v in range(k, 10)),
    (6, 4, 3, 1), (7, 4, 3, 1), (7, 5, 3, 2), (8, 4, 3, 1), (5, 3, 3, 2), (6, 3, 1, 2),
]
REFERENCE_DPDN_CELLS = [
    (4, 3), (5, 3), (6, 3), (7, 3), (5, 4), (6, 4), (5, 5), (7, 5), (8, 3), (8, 4),
]


class TestSearchEngine:
    """The bitset engine walks the reference engine's tree node for node."""

    def test_pdn_matches_reference(self):
        for cell in REFERENCE_PDN_CELLS:
            params = DesignParams(*cell)
            for budget in REFERENCE_BUDGETS:
                cfg = SearchConfig(node_budget=budget)
                r = pdn_exact(params, cfg)
                got = (r.n, r.witness.blocks, r.certificate, r.nodes, r.cuts)
                assert got == reference_pdn(params, cfg), (cell, budget)

    def test_dpdn_matches_reference(self):
        for v, k in REFERENCE_DPDN_CELLS:
            for budget in REFERENCE_BUDGETS:
                cfg = SearchConfig(node_budget=budget)
                r = dpdn_exact(v, k, cfg)
                got = (r.n, r.witness.blocks, r.certificate, r.nodes, r.cuts)
                assert got == reference_dpdn(v, k, cfg), (v, k, budget)

    def test_unbudgeted_matches_reference(self):
        cfg = SearchConfig()
        for cell in [(7, 3, 2, 1), (8, 4, 2, 1), (6, 3, 2, 2), (7, 4, 3, 1)]:
            r = pdn_exact(DesignParams(*cell), cfg)
            assert (r.n, r.witness.blocks, r.certificate, r.nodes, r.cuts) == reference_pdn(
                DesignParams(*cell), cfg
            )
        r = dpdn_exact(6, 3, cfg)
        assert (r.n, r.witness.blocks, r.certificate, r.nodes, r.cuts) == reference_dpdn(6, 3, cfg)

    def test_exhausted_budget_is_the_node_count(self):
        # (10,3,2,2) is certified in 5,650 nodes, so each of these budgets runs out
        for budget in (1, 5, 1000):
            result = pdn_exact(DesignParams(10, 3, 2, 2), SearchConfig(node_budget=budget))
            assert result.certificate == BUDGET_EXHAUSTED
            assert result.nodes == budget

    def test_search_leaves_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            pdn_exact(DesignParams(9, 4, 2, 1))
            after_pdn = gc.collect()
            dpdn_exact(8, 5)
            after_dpdn = gc.collect()
            dpdn_exact(9, 6)  # answered on the first descent, its walk abandoned at the cap
            after_abandoned = gc.collect()
            pdn_exact(DesignParams(12, 3, 2, 1))  # the descent falls short and the pool is drawn
            after_short = gc.collect()
        finally:
            gc.enable()
        assert (after_pdn, after_dpdn, after_abandoned, after_short) == (0, 0, 0, 0)

    @pytest.mark.parametrize(
        "search,size",
        [
            (lambda: pdn_exact(DesignParams(30, 15, 2, 1)), choose(30, 15)),
            (lambda: dpdn_exact(12, 6), 665_280),
            (lambda: dpdn_exact(30, 15), None),
        ],
    )
    def test_oversized_pool_rejected_before_allocation(self, search, size):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"limit of {POOL_LIMIT:,}") as info:
                search()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if size is not None:
            assert f"{size:,}" in str(info.value)
        assert peak < 2**20, peak

    @pytest.mark.parametrize(
        "search",
        [
            lambda: pdn_exact(DesignParams(20, 10, 5, 1)),
            lambda: pdn_exact(DesignParams(30, 29, 15, 1)),
            lambda: dpdn_exact(400, 2),
        ],
    )
    def test_oversized_mask_table_rejected_before_allocation(self, search):
        # few enough candidates for POOL_LIMIT, but billions of mask bits
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"limit of {MASK_BITS_LIMIT:,}"):
                search()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    @pytest.mark.parametrize("lam,refused", [(1_111_111, False), (1_111_112, True)])
    def test_lambda_planes_are_counted_before_anything_is_drawn(self, monkeypatch, lam, refused):
        # 6 stars of lam planes of C(6, 2) = 15 bits: 99,999,990 bits pass, 100,000,080 do not
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(solve, "best_upper_bound", reached)
        monkeypatch.setattr(solve, "_walk", reached)
        with pytest.raises(ValueError if refused else Reached) as info:
            pdn_exact(DesignParams(6, 3, 2, lam))
        if refused:
            assert str(info.value).endswith(f"beyond the limit of {MASK_BITS_LIMIT:,} bits")

    def test_directed_masks_span_v_to_the_t_bits(self):
        # (15, 4, 3): 32,760 ordered blocks over P(15, 3) = 2,730 units, masks of 3,375 bits
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="masks of 3,375 bits"):
                solve._exact(DesignParams(15, 4, 3, 1), True, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak

    def test_no_counting_prune_cuts_below_the_cap(self):
        # no reach prune on the chosen blocks alone can cut, because the cap
        # never exceeds the point count v*r_cap//k or the unit count
        # lam*C(v,t)//C(k,t)
        cells = 0
        for t in range(1, 5):
            for lam in (1, 2, 3, 6):
                for k in range(t, 30):
                    r_div = choose(k - 1, t - 1)
                    for v in range(k, 120):
                        r_cap = lam * choose(v - 1, t - 1) // r_div
                        reach = min(v * r_cap // k, lam * choose(v, t) // choose(k, t))
                        cap = johnson_schonheim(DesignParams(v, k, t, lam)).value
                        assert cap <= reach, (v, k, t, lam)
                        cells += 1
        assert cells == 45_880

    def test_largest_benchmarked_pool_is_admitted(self):
        result = dpdn_exact(9, 6)
        assert (result.n, result.certificate) == (3, OPTIMAL)


class TestCapacityBound:
    """The capacity bound cuts only subtrees that cannot beat the best design."""

    def test_values_and_witnesses_match_the_search_without_it(self):
        # the first design found with the best count is the same, in no more nodes
        compared = 0
        cfg = SearchConfig(node_budget=16_000)
        runs = [
            (pdn_exact(DesignParams(*c), cfg), reference_pdn(DesignParams(*c), cfg, bound=False))
            for c in REFERENCE_PDN_CELLS
        ]
        runs += [
            (dpdn_exact(v, k, cfg), reference_dpdn(v, k, cfg, bound=False))
            for v, k in REFERENCE_DPDN_CELLS
        ]
        for r, (n, blocks, certificate, nodes, cuts) in runs:
            assert cuts == 0
            if r.certificate == certificate == OPTIMAL:
                assert (r.n, r.witness.blocks) == (n, blocks)
                assert r.nodes <= nodes
                compared += 1
            elif certificate == OPTIMAL:
                raise AssertionError(f"certified without the bound only: {r}")
        assert compared == 63

    @pytest.mark.parametrize("v,k,t,lam", [(7, 5, 3, 2), (5, 4, 3, 2), (5, 4, 3, 3), (6, 5, 3, 3)])
    def test_agrees_with_outright_enumeration_at_t3(self, v, k, t, lam):
        result = pdn_exact(DesignParams(v, k, t, lam))
        assert result.certificate == OPTIMAL
        assert result.n == brute_pdn(v, k, t, lam)

    def test_cuts_below_the_cap(self):
        # (7,5,3,2) stops at 4 under a cap of 5 only by cutting subtrees
        params = DesignParams(7, 5, 3, 2)
        result = pdn_exact(params)
        assert best_upper_bound(params, include_exact=False).value == 5
        assert (result.n, result.certificate) == (4, OPTIMAL) and result.cuts > 0

    @pytest.mark.parametrize(
        "cell,expected",
        [
            ((12, 3, 2, 1), 20),  # Schonheim (1966)
            ((9, 3, 2, 2), 24),  # two copies of the affine plane of order 3
            ((10, 5, 2, 2), 8),  # the classical cap
            ((9, 4, 3, 1), 18),  # the classical cap
            ((8, 5, 3, 2), 10),  # also certified without the bound, in 232,992 nodes
        ],
    )
    def test_new_certificates_at_the_acceptance_budget(self, cell, expected):
        params = DesignParams(*cell)
        result = pdn_exact(params, SearchConfig(node_budget=120_000))
        assert (result.n, result.certificate) == (expected, OPTIMAL)
        assert validate_packing(result.witness, params).valid
        assert len(result.witness.blocks) == expected
        if cell in ((10, 5, 2, 2), (9, 4, 3, 1)):
            assert best_upper_bound(params, include_exact=False).value == expected

    def test_no_cut_when_the_descent_answers(self, monkeypatch):
        # a search that the first descent answers makes no capacity test and
        # builds no stars; every test has room for at least one block
        rooms = []
        make = solve._capacity_cut

        def spy(*shape):
            cut = make(*shape)
            return lambda reach, planes, room: rooms.append(room) or cut(reach, planes, room)

        monkeypatch.setattr(solve, "_capacity_cut", spy)
        monkeypatch.setattr(solve, "_stars", None)
        assert pdn_exact(DesignParams(7, 3, 2, 1)).n == 7
        assert rooms == []
        monkeypatch.setattr(solve, "_stars", _stars)
        assert pdn_exact(DesignParams(7, 5, 3, 2)).cuts > 0
        assert min(rooms) >= 1

    @pytest.mark.parametrize("directed", [False, True])
    def test_stars_hold_the_units_through_each_point(self, directed):
        arrange = permutations if directed else combinations
        for t in (1, 2, 3):
            for v in range(t, 8):
                code = {s: unit_code(s, v, directed) for s in arrange(range(v), t)}
                units = sum(1 << c for c in code.values())
                for x, star in enumerate(_stars(v, t, directed)):
                    through = sum(1 << c for s, c in code.items() if x in s)
                    assert star & units == through, (v, t, x)
                    assert directed or star == through

    def test_results_without_cuts_still_build(self):
        result = SearchResult(1, PackingDesign(3, ((0, 1, 2),)), OPTIMAL)
        assert (result.nodes, result.cuts, result.candidates) == (0, 0, 0)


class TestPackedPlanes:
    """The lam unit planes, packed in one int, agree with a count per unit."""

    @pytest.mark.parametrize("lam", [1, 2, 3, 7])
    @pytest.mark.parametrize("width", [1, 5, 64])
    def test_planes_and_free_units_follow_the_counts(self, lam, width):
        copies = ((1 << lam * width) - 1) // ((1 << width) - 1)
        # at t = k = 1 each unit is a block and its own star, so the cut holds
        # exactly when the free planes have at most room units in all
        cut = _capacity_cut(width, 1, 1, False, copies)
        rng = random.Random(lam * 1000 + width)
        for _ in range(5):
            planes, counts = 0, [0] * width
            for _ in range(3 * lam + 3):
                mask = rng.getrandbits(width)
                planes = _saturate(planes, mask, width, copies)
                for u in range(width):
                    counts[u] = min(counts[u] + (mask >> u & 1), lam)
                model = [sum(1 << u for u in range(width) if counts[u] > j) for j in range(lam)]
                assert [planes >> j * width & (1 << width) - 1 for j in range(lam)] == model
                assert planes >> lam * width == 0
                reach = rng.getrandbits(width)
                free = sum((reach & ~plane).bit_count() for plane in model)
                assert cut(reach, planes, free) and (free == 0 or not cut(reach, planes, free - 1))


class TestSiblingCut:
    """Testing the bound before every sibling loses nothing against testing it per child level."""

    def test_agrees_with_the_child_level_rule(self):
        cfg = SearchConfig(node_budget=16_000)
        runs = [
            (pdn_exact(DesignParams(*c), cfg), reference_pdn(DesignParams(*c), cfg, sibling=False))
            for c in REFERENCE_PDN_CELLS
        ]
        runs += [
            (dpdn_exact(v, k, cfg), reference_dpdn(v, k, cfg, sibling=False))
            for v, k in REFERENCE_DPDN_CELLS
        ]
        compared = fewer = 0
        for r, (n, blocks, certificate, nodes, _) in runs:
            if r.certificate == certificate == OPTIMAL:
                assert (r.n, r.witness.blocks) == (n, blocks)
                assert r.nodes <= nodes
                compared += 1
                fewer += r.nodes < nodes
            elif certificate == OPTIMAL:
                raise AssertionError(f"certified by the child-level rule only: {r}")
            else:
                assert r.n >= n, r
        assert (compared, fewer) == (66, 18)

    @pytest.mark.parametrize("cell,nodes", [((12, 3, 2, 1), 478), ((9, 3, 2, 2), 40)])
    def test_capacity_searches_take_few_nodes(self, cell, nodes):
        # 5,711 and 3,966 nodes when the bound was tested once per child level
        result = pdn_exact(DesignParams(*cell), SearchConfig(node_budget=120_000))
        assert result.certificate == OPTIMAL
        assert result.nodes == nodes


class TestSeededRounds:
    """Rounds at a falling target, choosing fresh points in order, keep the unseeded search's answers."""

    def test_agrees_with_the_unseeded_search(self):
        # where both certify, the same value and witness; where neither
        # does, never a smaller n
        cfg = SearchConfig(node_budget=16_000)
        old = {"seeded": False, "fresh": False}
        runs = [
            (pdn_exact(DesignParams(*c), cfg), reference_pdn(DesignParams(*c), cfg, **old))
            for c in REFERENCE_PDN_CELLS
        ]
        runs += [
            (dpdn_exact(v, k, cfg), reference_dpdn(v, k, cfg, **old))
            for v, k in REFERENCE_DPDN_CELLS
        ]
        compared = gained = 0
        for r, (n, blocks, certificate, _, _) in runs:
            if r.certificate == certificate == OPTIMAL:
                assert (r.n, r.witness.blocks) == (n, blocks)
                compared += 1
            elif certificate == OPTIMAL:
                raise AssertionError(f"certified by the unseeded search only: {r}")
            elif r.certificate == OPTIMAL:
                gained += 1
            else:
                assert r.n >= n, r
        assert (compared, gained) == (65, 3)

    def test_budget_spans_the_rounds(self):
        # (6,4,2,3): cap 7, optimum 6.  The round at 7 exhausts its tree
        # after reaching 6 blocks, and a budget spent in the round at 6
        # answers with that deepest node
        params = DesignParams(6, 4, 2, 3)
        full = pdn_exact(params)
        assert (full.n, full.certificate, full.nodes) == (6, OPTIMAL, 113)
        cut_short = pdn_exact(params, SearchConfig(node_budget=112))
        assert (cut_short.n, cut_short.certificate, cut_short.nodes) == (6, BUDGET_EXHAUSTED, 112)
        assert cut_short.witness.blocks != full.witness.blocks
        assert validate_packing(cut_short.witness, params).valid


def unit_code(s, v, directed):
    """A t-set's colex rank sum C(a_i, i), or an ordered t-tuple's sum a_i * v**(i-1)."""
    if directed:
        return sum(a * v**i for i, a in enumerate(s))
    return sum(choose(a, i) for i, a in enumerate(s, 1))


def admitted_by_filter(v, k, t, lam, directed):
    """The root and the candidates it admits, by filtering every candidate outright."""
    arrange = permutations if directed else combinations
    cands = list(arrange(range(v), k))
    root_units = set(combinations(cands[0], t))
    if lam > 1:
        return cands
    return cands[:1] + [c for c in cands if root_units.isdisjoint(combinations(c, t))]


def columns(masks):
    """Each unit as the set of candidates covering it, counted over the units."""
    units = {}
    for i, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            units.setdefault(low, set()).add(i)
            mask ^= low
    return Counter(frozenset(c) for c in units.values())


def drawn(v, k, t, lam, directed):
    """Every (candidate, mask, point mask) triple the pool yields, as three lists."""
    cands, masks, points = [], [], []
    for cand, mask, point_mask in _pool(v, k, t, lam, directed):
        cands.append(cand)
        masks.append(mask)
        points.append(point_mask)
    return cands, masks, points


class TestPool:
    """The prefix walk yields what filtering the whole pool would keep."""

    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_a_filter_of_every_candidate(self, directed):
        cells = 0
        for t in (1, 2, 3):
            for lam in (1, 2, 3):
                for k in range(t, 9):
                    for v in range(k, 9):
                        cands, masks, points = drawn(v, k, t, lam, directed)
                        assert cands == admitted_by_filter(v, k, t, lam, directed), (v, k, t, lam)
                        assert len(masks) == len(cands)
                        assert points == [sum(1 << x for x in c) for c in cands]
                        cells += 1
        assert cells == 255

    @pytest.mark.parametrize("directed", [False, True])
    def test_masks_equal_the_unit_table_up_to_relabelling(self, directed):
        # the masks a dictionary of all units gives, with the same candidates covering each unit
        arrange = permutations if directed else combinations
        for t in (1, 2, 3):
            for lam in (1, 2):
                for k in range(t, 7):
                    for v in range(k, 8):
                        cands, masks, _ = drawn(v, k, t, lam, directed)
                        unit = {s: 1 << i for i, s in enumerate(arrange(range(v), t))}
                        table = [sum(unit[s] for s in combinations(c, t)) for c in cands]
                        assert columns(masks) == columns(table), (v, k, t, lam)

    @pytest.mark.parametrize("directed", [False, True])
    def test_walk_matches_a_filter_under_a_growing_taboo(self, directed):
        # every lam-th mask the walk yields joins the taboo; the walk must
        # yield, in order, the candidates whose masks miss the taboo of the
        # moment each is reached, with their masks and point masks
        arrange = permutations if directed else combinations
        cells = 0
        for t in (1, 2, 3):
            for k in range(t, 9):
                for v in range(k, 9):
                    code = {s: 1 << unit_code(s, v, directed) for s in arrange(range(v), t)}
                    every = [
                        (c, sum(code[s] for s in combinations(c, t)), sum(1 << x for x in c))
                        for c in arrange(range(v), k)
                    ]
                    for lam in (1, 2, 3):
                        taboo, got = [0], []
                        for triple in _walk(v, k, t, directed, taboo):
                            got.append(triple)
                            if len(got) % lam == 0:
                                taboo[-1] |= triple[1]
                        live, want = 0, []
                        for triple in every:
                            if not triple[1] & live:
                                want.append(triple)
                                if len(want) % lam == 0:
                                    live |= triple[1]
                        assert got == want, (v, k, t, lam)
                        cells += 1
        assert cells == 255

    def test_largest_oracle_pool(self):
        cands = drawn(9, 6, 2, 1, True)[0]
        assert len(cands) == len(admitted_by_filter(9, 6, 2, 1, True)) == 3860


@pytest.fixture
def no_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(solve, "_search", refuse)


class TestFirstDescent:
    """A first descent that meets the cap answers without drawing the rest of the pool."""

    @pytest.mark.parametrize(
        "search,n",
        [
            (lambda: dpdn_exact(9, 6), 3),
            (lambda: dpdn_exact(8, 5), 4),
            (lambda: dpdn_exact(8, 6), 2),
            (lambda: dpdn_exact(7, 5), 3),
            (lambda: pdn_exact(DesignParams(12, 4, 2, 1)), 9),
            (lambda: pdn_exact(DesignParams(12, 5, 2, 1)), 3),
            (lambda: pdn_exact(DesignParams(5, 5, 2, 3)), 3),  # the one block, chosen thrice
        ],
    )
    def test_answers_without_the_search(self, no_search, search, n):
        result = search()
        assert (result.n, result.certificate, result.nodes, result.cuts) == (n, OPTIMAL, n, 0)

    @pytest.mark.parametrize("cell", [(12, 3, 2, 1), (9, 3, 2, 2)])
    def test_search_runs_when_the_descent_falls_short(self, no_search, cell):
        with pytest.raises(AssertionError, match="the search ran"):
            pdn_exact(DesignParams(*cell))

    def test_candidates_drawn(self):
        # the candidates the walks yielded; at lam = 1 the descent's walk
        # yields only the blocks it chooses, so a descent that meets the cap
        # draws the cap
        assert dpdn_exact(9, 6).candidates == 3
        assert dpdn_exact(8, 6).candidates == 2
        # a cell that searches then draws its whole pool: here after a
        # descent of 17 blocks under a cap of 20
        whole = len(drawn(12, 3, 2, 1, False)[0])
        assert pdn_exact(DesignParams(12, 3, 2, 1)).candidates == 17 + whole == 210

    def test_budget_below_the_cap_searches(self):
        result = dpdn_exact(9, 6, SearchConfig(node_budget=2))
        assert (result.n, result.certificate, result.nodes) == (2, BUDGET_EXHAUSTED, 2)


class TestPdnExact:
    @pytest.mark.parametrize(
        "v,k,t,lam,expected",
        [
            (6, 3, 2, 1, 4),
            (4, 3, 2, 1, 1),  # any two triples on four points share a pair
            (8, 4, 2, 1, 2),
            (9, 4, 2, 1, 3),
            (7, 3, 2, 1, 7),
            (5, 5, 2, 1, 1),
            (5, 5, 2, 3, 3),  # full blocks repeat up to the multiplicity cap
            (4, 3, 2, 2, 4),
        ],
    )
    def test_known_values(self, v, k, t, lam, expected):
        result = pdn_exact(DesignParams(v, k, t, lam))
        assert result.certificate == OPTIMAL
        assert result.n == expected
        assert validate_packing(result.witness, DesignParams(v, k, t, lam)).valid
        assert len(result.witness.blocks) == result.n

    def test_lexicographically_least_witness(self):
        result = pdn_exact(DesignParams(6, 3, 2, 1))
        assert result.witness.blocks == ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))

    def test_symmetry_toggle_keeps_value(self):
        # rooting at candidate 0 loses no value against the unrooted reference
        for lam in (1, 2):
            for k in range(3, 7):
                for v in range(k, 9):
                    params = DesignParams(v, k, 2, lam)
                    on = pdn_exact(params)
                    off_n, _, off_certificate, _, _ = reference_pdn(params, SearchConfig(), symmetry=False)
                    assert on.certificate == off_certificate == OPTIMAL
                    assert on.n == off_n, (v, k, lam)

    def test_budget_interruption(self):
        result = pdn_exact(DesignParams(9, 3, 2, 1), SearchConfig(node_budget=5))
        assert result.certificate == BUDGET_EXHAUSTED
        assert validate_packing(result.witness, DesignParams(9, 3, 2, 1)).valid

    def test_monotone_in_points_and_block_size(self):
        # more points never hurt; larger blocks never help
        values = {}
        for v in range(4, 9):
            for k in (3, 4):
                values[(v, k)] = pdn_exact(DesignParams(v, k, 2, 1)).n
        for v in range(4, 8):
            for k in (3, 4):
                assert values[(v, k)] <= values[(v + 1, k)]
        for v in range(4, 9):
            assert values[(v, 3)] >= values[(v, 4)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(node_budget=0)

    @pytest.mark.parametrize("v,k,t,lam", [(6, 4, 3, 1), (5, 3, 2, 2), (5, 4, 2, 1)])
    def test_agrees_with_outright_enumeration(self, v, k, t, lam):
        result = pdn_exact(DesignParams(v, k, t, lam))
        assert result.certificate == OPTIMAL
        assert result.n == brute_pdn(v, k, t, lam)


class TestDpdnExact:
    def test_six_four(self, directed_6_4):
        # the known 4-block design meets the doubled-shadow bound
        result = dpdn_exact(6, 4)
        assert result.certificate == OPTIMAL and result.n == 4
        assert validate_directed(result.witness, DesignParams(6, 4, 2, 1)).valid
        assert validate_directed(directed_6_4, DesignParams(6, 4, 2, 1)).valid

    def test_four_three_exhaustive(self):
        result = dpdn_exact(4, 3)
        assert result.certificate == OPTIMAL
        assert result.n == 4
        assert result.n <= pdn_exact(DesignParams(4, 3, 2, 2)).n

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_full_blocks_give_two(self, k):
        result = dpdn_exact(k, k)
        assert result.certificate == OPTIMAL and result.n == 2

    def test_symmetry_toggle_keeps_value(self):
        for v, k in [(4, 3), (5, 4), (4, 4)]:
            on = dpdn_exact(v, k)
            off_n, _, off_certificate, _, _ = reference_dpdn(v, k, SearchConfig(), symmetry=False)
            assert on.n == off_n
            assert on.certificate == off_certificate == OPTIMAL

    def test_never_exceeds_two_fold_shadow(self):
        for v, k in [(4, 3), (5, 3), (5, 4), (6, 4), (5, 5)]:
            directed = dpdn_exact(v, k)
            shadow = pdn_exact(DesignParams(v, k, 2, 2))
            assert directed.certificate == OPTIMAL and shadow.certificate == OPTIMAL
            assert directed.n <= shadow.n

    def test_agrees_with_outright_enumeration(self):
        result = dpdn_exact(4, 3)
        assert result.certificate == OPTIMAL
        assert result.n == brute_dpdn(4, 3)


def dfs_directed(v, k, t, lam, stop, steps=200_000):
    """Independent oracle: the most blocks in a directed packing, by a plain depth-first search.

    Builds multisets of ordered k-tuples of distinct points, one
    index-nondecreasing sequence each, and takes a block while every ordered
    t-subsequence of it lies in fewer than lam chosen blocks.  Nothing is
    pruned: it returns the greatest depth reached, or stop once a design of
    stop blocks is found, and raises _Budget past steps nodes.
    """
    cands = list(permutations(range(v), k))
    unit_ids = {u: i for i, u in enumerate(permutations(range(v), t))}
    units = [[unit_ids[u] for u in combinations(c, t)] for c in cands]
    counts = [0] * len(unit_ids)
    best = nodes = 0

    def grow(start, depth):
        nonlocal best, nodes
        best = max(best, depth)
        if best == stop:
            raise _Done
        for i in range(start, len(cands)):
            if all(counts[u] < lam for u in units[i]):
                nodes += 1
                if nodes > steps:
                    raise _Budget
                for u in units[i]:
                    counts[u] += 1
                grow(i, depth + 1)
                for u in units[i]:
                    counts[u] -= 1

    try:
        grow(0, 0)
    except _Done:
        pass
    return best


# The directed cells with (t, lam) != (2, 1), t, lam <= 3, k <= 4 and v <= 5 that the
# oracle test leaves out: the oracle does not finish these within 200,000 steps, and
# the search does not certify (5, 4, 3, 3) within 200,000 nodes.
DIRECTED_ORACLE_LEFT_OUT = {
    (5, 3, 1, 3), (5, 4, 1, 3), (4, 2, 2, 2), (5, 2, 2, 2), (5, 3, 2, 2), (5, 4, 2, 2),
    (4, 2, 2, 3), (5, 2, 2, 3), (4, 3, 2, 3), (5, 3, 2, 3), (5, 4, 2, 3), (4, 3, 3, 1),
    (5, 3, 3, 1), (5, 4, 3, 1), (4, 3, 3, 2), (5, 3, 3, 2), (4, 4, 3, 2), (5, 4, 3, 2),
    (4, 3, 3, 3), (5, 3, 3, 3), (4, 4, 3, 3), (5, 4, 3, 3),
}
DIRECTED_ORACLE_CELLS = [
    (v, k, t, lam)
    for t in (1, 2, 3) for lam in (1, 2, 3) for k in range(t, 5) for v in range(k, 6)
    if (t, lam) != (2, 1) and (v, k, t, lam) not in DIRECTED_ORACLE_LEFT_OUT
]


class TestDirectedAtAnyPair:
    """The one search, on ordered blocks at (t, lam) other than (2, 1)."""

    def test_agrees_with_a_plain_search(self):
        assert len(DIRECTED_ORACLE_CELLS) == 53
        for cell in DIRECTED_ORACLE_CELLS:
            params = DesignParams(*cell)
            result = solve._exact(params, True, None)
            assert result.certificate == OPTIMAL, cell
            assert validate_directed(result.witness, params).valid, cell
            assert len(result.witness.blocks) == result.n
            assert dfs_directed(*cell, stop=result.n + 1) == result.n, cell

    def test_certify_runs_the_search_below_the_bound(self, monkeypatch):
        params = DesignParams(3, 2, 2, 2)
        witness = solve._exact(params, True, None).witness
        short = DirectedPackingDesign(3, witness.blocks[:-1])
        assert len(short.blocks) < best_upper_bound(params, directed=True).value
        calls = []
        search = solve._exact

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return search(*args, **kwargs)

        monkeypatch.setattr(solve, "_exact", spy)
        assert not certify_optimal(short, params)
        assert calls == [((params, True, None), {"floor": len(short.blocks)})]


class TestCertifyOptimal:
    def test_optimal_triple_packing(self, pack_6_3):
        assert certify_optimal(pack_6_3, DesignParams(6, 3, 2, 1))

    def test_subdesign_is_not_optimal(self, pack_6_3):
        smaller = PackingDesign(6, pack_6_3.blocks[:3])
        assert not certify_optimal(smaller, DesignParams(6, 3, 2, 1))

    def test_directed_design(self, directed_12_7):
        assert certify_optimal(directed_12_7, DesignParams(12, 7, 2, 1))

    def test_directed_below_the_bound(self, directed_6_4):
        # a bound miss is settled by the search, at (2, 1) and at (t, lam) = (3, 1)
        three = DirectedPackingDesign(6, directed_6_4.blocks[:3])
        assert not certify_optimal(three, DesignParams(6, 4, 2, 1))
        reversed_pair = DirectedPackingDesign(4, ((0, 1, 2, 3), (3, 2, 1, 0)))
        assert not certify_optimal(reversed_pair, DesignParams(4, 4, 3, 1))

    def test_invalid_design_rejected(self):
        bad = PackingDesign(4, ((0, 1, 2), (0, 1, 3)))
        with pytest.raises(ValueError):
            certify_optimal(bad, DesignParams(4, 3, 2, 1))

    def test_agrees_with_the_full_search(self):
        # the search with floor n answers what comparing n with a full
        # search's certified optimum answers, on optimal designs and on
        # designs one block short of them
        cells = [(DesignParams(v, k, 2, lam), False) for lam in (1, 2) for k in (3, 4) for v in range(k, 10)]
        cells += [(DesignParams(v, k, 3, 1), False) for k in (4, 5) for v in range(k, 9)]
        # optima below the best upper bound, so settled only by the search
        cells += [(DesignParams(*c), False) for c in [(6, 4, 2, 3), (7, 4, 3, 2), (7, 5, 3, 2), (8, 5, 3, 2)]]
        cells += [(DesignParams(v, k, 2, 1), True) for k in (3, 4, 5) for v in range(k, 9)]
        answers = Counter()
        for params, directed in cells:
            full = dpdn_exact(params.v, params.k) if directed else pdn_exact(params)
            assert full.certificate == OPTIMAL
            for blocks in (full.witness.blocks, full.witness.blocks[:-1]):
                design = type(full.witness)(params.v, blocks)
                answer = certify_optimal(design, params)
                assert answer == (len(blocks) == full.n), (params, directed, len(blocks))
                answers[answer] += 1
        assert answers == {True: 54, False: 54}

    def test_spent_budget_is_inconclusive(self):
        # (7,5,3,2): optimum 4 under a classical cap of 5
        params = DesignParams(7, 5, 3, 2)
        witness = pdn_exact(params).witness
        assert certify_optimal(witness, params)
        assert not certify_optimal(witness, params, SearchConfig(node_budget=1))

    @pytest.mark.parametrize("cell,directed,n", [((9, 6, 2, 1), True, 2), ((12, 4, 2, 1), False, 8)])
    def test_descent_to_n_plus_one_answers(self, no_search, cell, directed, n):
        # one block short of a design the first descent finds at the cap n + 1:
        # the descent reaches n + 1 while the pool is drawn, and no round runs
        params = DesignParams(*cell)
        witness = (dpdn_exact(params.v, params.k) if directed else pdn_exact(params)).witness
        short = type(witness)(params.v, witness.blocks[:-1])
        assert len(short.blocks) == n
        assert best_upper_bound(params, directed=directed, include_exact=False).value == n + 1
        assert not certify_optimal(short, params)

    def test_solver_witness_certifies(self):
        result = pdn_exact(DesignParams(8, 3, 2, 1))
        assert result.certificate == OPTIMAL
        assert certify_optimal(result.witness, DesignParams(8, 3, 2, 1))
