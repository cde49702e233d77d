"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to watch them).
Values are exact; the stated runtime limits are asserted as well.
"""

import random
import time
from itertools import combinations

import pytest

from packings import (
    DesignParams,
    DirectedPackingDesign,
    PackingDesign,
    SearchConfig,
    add_constant_words,
    construct_optimal,
    deletion_channel_check,
    direct_packing,
    exact_by_theorems,
    exact_dpdn_by_theorem,
    gen_second_johnson_bound,
    gen_second_johnson_feasible,
    general_construction,
    hanani_b,
    horsley_bound_1,
    horsley_bound_2,
    johnson_schonheim,
    max_pairwise_lcs,
    min_hamming_distance,
    pdn_exact,
    second_johnson,
    to_constant_weight,
    to_indel_code,
    validate_directed,
    validate_packing,
)
from packings.bounds import sj_quadratic_feasible
from packings.solve import OPTIMAL
from conftest import make_two_fold, point_frequencies

GRID = [
    (v, k, lam)
    for lam in (1, 2)
    for k in range(3, 7)
    for v in range(k, 13)
]


def report(num: int, description: str, ok: bool, elapsed: float, limit: float) -> None:
    line = (
        f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description} "
        f"({elapsed:.2f}s, limit {limit:.0f}s)"
    )
    print(line)
    assert ok, line
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit: {line}"


@pytest.fixture(scope="module")
def oracle_sweep():
    """One oracle pass over the grid, shared by criteria 3 and 8."""
    config = SearchConfig(node_budget=120_000)
    start = time.time()
    results = {}
    for v, k, lam in GRID:
        params = DesignParams(v, k, 2, lam)
        results[(v, k, lam)] = (params, pdn_exact(params, config), exact_by_theorems(params))
    return results, time.time() - start


# Optima PDN_lam(v, 3..6, 2) on the grid that the exact search certifies at
# the acceptance budget by rounds at a falling target, keyed by (v, k, lam).
# (9,4,2) = 10 lies below its classical cap of 11.
NEW_EXACT = {
    (10, 3, 2): 30, (11, 3, 2): 36, (10, 4, 2): 15, (11, 4, 2): 16,
    (11, 5, 2): 11, (12, 6, 2): 8, (9, 4, 2): 10,
}


def test_oracle_sweep_certifies_the_new_values(oracle_sweep):
    results, _ = oracle_sweep
    certified = sum(oracle.certificate == OPTIMAL for _, oracle, _ in results.values())
    assert certified >= 65, certified
    for cell, n in NEW_EXACT.items():
        params, oracle, _ = results[cell]
        assert (oracle.n, oracle.certificate, len(oracle.witness.blocks)) == (n, OPTIMAL, n), cell
        assert validate_packing(oracle.witness, params).valid, cell


def test_criterion_1_golden_designs_validate():
    start = time.time()
    triple = PackingDesign(6, ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)))
    directed4 = DirectedPackingDesign(
        6, ((0, 1, 2, 3), (4, 3, 5, 0), (5, 3, 2, 4), (2, 1, 0, 5))
    )
    shared14 = PackingDesign(
        14, ((0, 1, 8, 9, 10), (2, 3, 8, 11, 12), (4, 5, 9, 11, 13), (6, 7, 10, 12, 13))
    )
    twofold = PackingDesign(
        12,
        (
            (0, 1, 2, 3, 4, 5, 6),
            (0, 1, 3, 4, 7, 8, 9),
            (0, 2, 5, 6, 9, 10, 11),
            (1, 2, 7, 8, 9, 10, 11),
        ),
    )
    directed7 = DirectedPackingDesign(
        12,
        (
            (1, 0, 2, 3, 4, 5, 6),
            (4, 3, 7, 8, 0, 9, 1),
            (6, 5, 10, 11, 9, 2, 0),
            (2, 1, 9, 11, 10, 8, 7),
        ),
    )
    ok = (
        validate_packing(triple, DesignParams(6, 3, 2, 1)).valid
        and validate_directed(directed4, DesignParams(6, 4, 2, 1)).valid
        and validate_packing(shared14, DesignParams(14, 5, 2, 1)).valid
        and validate_packing(twofold, DesignParams(12, 7, 2, 2)).valid
        and validate_directed(directed7, DesignParams(12, 7, 2, 1)).valid
    )
    report(1, "golden designs validate", ok, time.time() - start, 1.0)


def test_criterion_2_exact_values_reproduced():
    start = time.time()
    ok = True
    for v, expected in ((8, 2), (9, 3)):
        params = DesignParams(v, 4, 2, 1)
        theorem = exact_by_theorems(params)
        oracle = pdn_exact(params)
        ok = ok and theorem.value == expected
        ok = ok and oracle.certificate == OPTIMAL and oracle.n == expected
    report(2, "window values 2 and 3 via theorem and oracle", ok, time.time() - start, 10.0)


def test_criterion_3_theorem_vs_oracle_sweep(oracle_sweep):
    results, sweep_time = oracle_sweep
    start = time.time()
    checks = [(params, oracle, theorem) for params, oracle, theorem in results.values()]
    # a second source for the t >= 3 windows: every window cell of the grid
    # t in {3, 4}, lam <= 3, t <= k <= v <= 12, searched at the same budget
    config = SearchConfig(node_budget=120_000)
    high_t = 0
    for t, lam in [(t, lam) for t in (3, 4) for lam in (1, 2, 3)]:
        for k in range(t, 13):
            for v in range(k, 13):
                params = DesignParams(v, k, t, lam)
                theorem = exact_by_theorems(params)
                if theorem.value is not None:
                    checks.append((params, pdn_exact(params, config), theorem))
                    high_t += 1
    ok = high_t == 145
    for params, oracle, theorem in checks:
        if theorem.value is None:
            continue
        # the window cells are all easy: the oracle must settle them
        if oracle.certificate != OPTIMAL:
            ok = False
            print(f"  window cell {params} did not certify")
            continue
        if oracle.n != theorem.value:
            ok = False
            print(f"  mismatch at {params}: oracle {oracle.n} vs {theorem.value}")
    report(
        3,
        f"exact windows agree with the oracle on the sweep grid and {high_t} t >= 3 cells",
        ok,
        time.time() - start + sweep_time,
        600.0,
    )


def test_criterion_4_construction_optimality():
    start = time.time()
    ok = True
    for v, k, lam in GRID:
        params = DesignParams(v, k, 2, lam)
        theorem = exact_by_theorems(params)
        if theorem.value is None:
            continue
        design, rep = construct_optimal(params)
        good = (
            len(design.blocks) == theorem.value == rep.value
            and validate_packing(design, params).valid
            and max(point_frequencies(design)) <= lam + 1
        )
        if not good:
            ok = False
            print(f"  construction failed at ({v},{k},lam={lam})")
    report(4, "constructions hit the window size and validate", ok, time.time() - start, 60.0)


def test_criterion_5_directing_randomized():
    start = time.time()
    rng = random.Random(0x5EED)
    ok = True
    for _ in range(1000):
        design = make_two_fold(rng, v_max=14)
        out = direct_packing(design)  # internal window assertions run here
        valid = validate_directed(out, DesignParams(design.v, design.v, 2, 1)).valid
        perm = all(sorted(o) == list(b) for o, b in zip(out.blocks, design.blocks))
        if not (valid and perm):
            ok = False
            print(f"  directing failed on {design}")
            break
    report(5, "1000 random 2-fold packings direct cleanly", ok, time.time() - start, 60.0)


def test_criterion_6_directed_window_realized():
    start = time.time()
    ok = True
    cells = 0
    for k in range(2, 9):
        for v in range(k, 21):
            theorem = exact_dpdn_by_theorem(v, k)
            if theorem.value is None:
                continue
            cells += 1
            n = theorem.value
            design = general_construction(n, v, k, 2, 2)
            directed = direct_packing(design)
            good = (
                len(directed.blocks) == n
                and validate_directed(directed, DesignParams(v, k, 2, 1)).valid
            )
            if not good:
                ok = False
                print(f"  directed window not realized at ({v},{k})")
    ok = ok and cells > 10
    report(
        6,
        f"directed window realized on all {cells} cells with k <= 8, v <= 20",
        ok,
        time.time() - start,
        60.0,
    )


def test_criterion_7_code_equivalences():
    start = time.time()
    triple = PackingDesign(6, ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)))
    cw = to_constant_weight(triple, DesignParams(6, 3, 2, 1))
    ok = min_hamming_distance(cw) == 4 == 2 * (3 - 2 + 1)

    directed7 = DirectedPackingDesign(
        12,
        (
            (1, 0, 2, 3, 4, 5, 6),
            (4, 3, 7, 8, 0, 9, 1),
            (6, 5, 10, 11, 9, 2, 0),
            (2, 1, 9, 11, 10, 8, 7),
        ),
    )
    indel = to_indel_code(directed7, DesignParams(12, 7, 2, 1))
    ok = ok and max_pairwise_lcs(indel) == 1
    # deletion_channel_check itself cross-checks enumeration against the LCS
    # threshold for words this short; repeat the enumeration here explicitly
    ok = ok and deletion_channel_check(indel, 5)
    residues = [set(combinations(w, 2)) for w in indel.words]
    enum = all(
        not (residues[i] & residues[j]) for i, j in combinations(range(len(residues)), 2)
    )
    ok = ok and enum == deletion_channel_check(indel, 5)
    ok = ok and deletion_channel_check(add_constant_words(indel), 5)
    report(7, "constant-weight and deletion code guarantees hold", ok, time.time() - start, 10.0)


def test_criterion_8_bound_sanity_sweep(oracle_sweep):
    results, sweep_time = oracle_sweep
    start = time.time()
    ok = True
    for (v, k, lam), (params, oracle, _) in results.items():
        bounds = [johnson_schonheim(params), hanani_b(v, k, lam)]
        if lam == 1:
            bounds.append(second_johnson(v, k, 2))
        bounds.append(gen_second_johnson_bound(params))
        if 3 <= k < v:
            bounds.append(horsley_bound_1(v, k, lam))
            bounds.append(horsley_bound_2(v, k, lam))
        for rep in bounds:
            if rep.value is not None and oracle.n > rep.value:
                ok = False
                print(f"  oracle {oracle.n} beats {rep.provenance}={rep.value} at ({v},{k},{lam})")
    # the general convexity test must reduce to the quadratic one at lam = 1
    for v, k, lam in GRID:
        if lam != 1:
            continue
        params = DesignParams(v, k, 2, 1)
        for d in range(13):
            if gen_second_johnson_feasible(d, params) != sj_quadratic_feasible(d, v, k, 2):
                ok = False
                print(f"  feasibility tests disagree at ({v},{k}) d={d}")
    report(
        8,
        "oracle never beats a bound; convexity test reduces at lam=1",
        ok,
        time.time() - start + sweep_time,
        600.0,
    )
