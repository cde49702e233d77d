"""Independent checks of the program's answers.

Nothing here imports ``packings``: every expected value is recomputed from
the definitions (multiplicities, ordered pairs, the Johnson-Schonheim nested
floor, the convexity counting test and the exact-value windows), so a
defect in the library cannot hide behind the same defect in its checker.
Each check returns a list of problems; an empty list means the answer holds.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from math import comb, factorial


def choose(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


# -- designs ---------------------------------------------------------------


def multiplicity_problems(blocks, v: int, k: int, t: int, lam: int) -> list[str]:
    """Blocks must be k distinct points of range(v); no t-set in more than lam blocks."""
    problems = []
    counts: Counter = Counter()
    for i, block in enumerate(blocks):
        if len(block) != k or len(set(block)) != k:
            problems.append(f"block {i} is not {k} distinct points: {list(block)[:8]}")
            continue
        if any(not 0 <= x < v for x in block):
            problems.append(f"block {i} has a point outside range({v})")
            continue
        counts.update(combinations(sorted(block), t))
    worst = max(counts.items(), key=lambda kv: kv[1], default=(None, 0))
    if worst[1] > lam:
        problems.append(f"t-set {worst[0]} lies in {worst[1]} blocks (limit {lam})")
    return problems


def ordered_pair_problems(blocks, v: int, k: int) -> list[str]:
    """No ordered pair (a before b) may occur in two blocks (t = 2, lam = 1)."""
    problems = []
    seen: dict[tuple[int, int], int] = {}
    for i, block in enumerate(blocks):
        if len(block) != k or len(set(block)) != k or any(not 0 <= x < v for x in block):
            problems.append(f"block {i} is not {k} distinct points of range({v})")
            continue
        for pair in combinations(block, 2):  # positions in increasing order
            if pair in seen:
                problems.append(f"ordered pair {pair} repeats in blocks {seen[pair]} and {i}")
                return problems
            seen[pair] = i
    return problems


def permutation_problems(directed, undirected) -> list[str]:
    """Block i of a directed output must reorder block i of its input."""
    if len(directed) != len(undirected):
        return [f"{len(directed)} directed blocks for {len(undirected)} input blocks"]
    for i, (a, b) in enumerate(zip(directed, undirected)):
        if sorted(a) != sorted(b):
            return [f"directed block {i} is not a permutation of input block {i}"]
    return []


def load_json(path) -> tuple[object, list[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh), []
    except (OSError, ValueError) as exc:
        return None, [f"cannot read {path}: {exc}"]


def design_file_problems(path, *, v, k, t, lam, directed, n=None) -> tuple[list, list[str]]:
    """Parse a design file and compare its header with what was asked for."""
    data, problems = load_json(path)
    if problems:
        return [], problems
    want = {"v": v, "k": k, "t": t, "lambda": lam, "directed": directed}
    for key, value in want.items():
        if data.get(key) != value:
            problems.append(f"{path}: {key}={data.get(key)!r}, expected {value!r}")
    blocks = data.get("blocks") or []
    if n is not None and len(blocks) != n:
        problems.append(f"{path}: {len(blocks)} blocks, expected {n}")
    return [tuple(b) for b in blocks], problems


# -- bounds ----------------------------------------------------------------


def johnson_schonheim(v: int, k: int, t: int, lam: int) -> int:
    """floor(v/k floor((v-1)/(k-1) ... floor(lam (v-t+1)/(k-t+1))))."""
    value = lam * (v - t + 1) // (k - t + 1)
    for j in range(t - 2, -1, -1):
        value = (v - j) * value // (k - j)
    return value


def hanani(v: int, k: int, lam: int) -> int:
    base = johnson_schonheim(v, k, 2, lam)
    improved = lam * (v - 1) % (k - 1) == 0 and lam * v * (v - 1) % k == (-1) % k
    return base - 1 if improved else base


def convexity_feasible(d: int, v: int, k: int, t: int, lam: int) -> bool:
    """A size-d packing needs (t-1) C(d, lam+1) >= v C(q, lam+1) + r C(q, lam), dk = qv + r."""
    q, r = divmod(d * k, v)
    return (t - 1) * choose(d, lam + 1) >= v * choose(q, lam + 1) + r * choose(q, lam)


def window_edge(n: int, k: int, t: int, lam: int) -> int:
    return n * k - (t - 1) * choose(n, lam + 1)


def exact_window(v: int, k: int, t: int, lam: int) -> int | None:
    """Packing number pinned by the large-block windows, or None outside them.

    n when edge(n) <= lam v < edge(n+1) for some n <= ell, where ell is the
    least count with (t-1) C(ell, lam) > k; otherwise ell when
    edge(ell) <= lam v < ((lam+1)(ell+1)k - (t-1)C(ell+1, lam+1)) / (lam+2).
    """
    ell = lam
    while (t - 1) * choose(ell, lam) <= k:
        ell += 1
    for n in range(1, ell + 1):
        if window_edge(n, k, t, lam) <= lam * v < window_edge(n + 1, k, t, lam):
            return n
    top = (lam + 1) * (ell + 1) * k - (t - 1) * choose(ell + 1, lam + 1)
    if window_edge(ell, k, t, lam) <= lam * v and (lam + 2) * lam * v < top:
        return ell
    return None


def exact_directed_window(v: int, k: int) -> int | None:
    """Directed packing number at (t, lam) = (2, 1): n with nk - C(n,3) <= 2v < (n+1)k - C(n+1,3)."""
    ell = 2
    while choose(ell, 2) <= k:
        ell += 1
    for n in range(1, ell + 1):
        if n * k - choose(n, 3) <= 2 * v < (n + 1) * k - choose(n + 1, 3):
            return n
    return None


def _scan_problems(name, value, cap, feasible) -> list[str]:
    # the program reports one less than the first infeasible count, or
    # nothing when every count up to cap + 1 passes
    if value is None:
        return [] if feasible(cap + 1) else [f"{name}: empty, but cap+1={cap + 1} is infeasible"]
    if not feasible(value) or feasible(value + 1):
        return [f"{name}={value} is not the feasibility boundary"]
    return []


def parse_tsv(text: str) -> list[list[str]]:
    return [line.split("\t") for line in text.splitlines() if line]


def bounds_problems(stdout: str, v: int, k: int, t: int, lam: int, directed: bool) -> list[str]:
    """Check a ``bounds --tsv`` report."""
    rows = parse_tsv(stdout)
    if len(rows) < 3 or rows[0] != ["provenance", "value", "kind"] or rows[-1][0] != "best":
        return ["bounds report is not a provenance/value/kind table ending in 'best'"]
    try:
        values = {row[0]: int(row[1]) if row[1] else None for row in rows[1:-1]}
        best = int(rows[-1][1])
    except (IndexError, ValueError):
        return ["bounds report has a malformed row"]
    problems = []
    shadow = factorial(t) * lam if directed else lam
    wrap = (lambda name: f"via-undirected({name})") if directed else (lambda name: name)
    cap = johnson_schonheim(v, k, t, shadow)
    expect = {wrap("johnson-schonheim"): cap}
    if t == 2:
        expect[wrap("hanani")] = hanani(v, k, shadow)
    if directed and (t, lam) == (2, 1):
        expect["exact-directed"] = exact_directed_window(v, k)
    if not directed:
        # the exact row is named after the window that applies
        name = "exact-threshold" if "exact-threshold" in values else "exact-window"
        expect[name] = exact_window(v, k, t, lam)
    for name, want in expect.items():
        if name not in values:
            problems.append(f"row {name} missing")
        elif values[name] != want:
            problems.append(f"{name}={values[name]}, expected {want}")
    gsj = wrap("generalized-second-johnson")
    if gsj not in values:
        problems.append(f"row {gsj} missing")
    else:
        problems += _scan_problems(
            gsj, values[gsj], cap, lambda d: convexity_feasible(d, v, k, t, shadow)
        )
    if shadow == 1 and "second-johnson" not in values:
        problems.append("row second-johnson missing")
    elif shadow == 1:
        problems += _scan_problems(
            "second-johnson", values.get("second-johnson"), cap,
            lambda d: convexity_feasible(d, v, k, t, 1),
        )
    stated = [x for name, x in values.items() if x is not None and not name.endswith("(closed)")]
    if not stated or best != min(stated):
        problems.append(f"best={best} is not the least stated bound")
    elif best > cap:
        problems.append(f"best={best} exceeds the Johnson-Schonheim bound {cap}")
    return problems


def table_problems(stdout: str, v_range, k_range, t: int, lam: int) -> tuple[int, list[str]]:
    """Check a ``table --tsv`` sweep; returns the sum of the exact values it pins."""
    rows = parse_tsv(stdout)
    if not rows or rows[0] != ["v", "k", "value", "kind", "provenance"]:
        return 0, ["table output lacks its v/k/value/kind/provenance header"]
    cells = [(v, k) for v in v_range for k in k_range if t <= k <= v]
    if len(rows) - 1 != len(cells):
        return 0, [f"table has {len(rows) - 1} rows for {len(cells)} cells"]
    problems = []
    pinned = 0
    for (v, k), row in zip(cells, rows[1:]):
        if row[:2] != [str(v), str(k)]:
            problems.append(f"row {row[:2]} where ({v},{k}) was expected")
            continue
        try:
            value, kind = int(row[2]), row[3]
        except (IndexError, ValueError):
            problems.append(f"({v},{k}) row is malformed: {row}")
            continue
        exact = exact_window(v, k, t, lam)
        if kind == "exact":
            if value != exact:
                problems.append(f"({v},{k}) exact {value}, window gives {exact}")
            pinned += value
        elif kind != "upper" or exact is not None:
            problems.append(f"({v},{k}) kind {kind!r} but the window gives {exact}")
        elif not 1 <= value <= johnson_schonheim(v, k, t, lam):
            problems.append(f"({v},{k}) upper bound {value} outside 1..Johnson-Schonheim")
    return pinned, problems


# -- codes -----------------------------------------------------------------


def indel_code_problems(path, words, v: int, k: int) -> list[str]:
    data, problems = load_json(path)
    if problems:
        return problems
    if (data.get("type"), data.get("length"), data.get("alphabet")) != ("indel", k, v):
        problems.append(f"{path}: header {data.get('type')}/{data.get('length')}/{data.get('alphabet')}")
    if [tuple(w) for w in data.get("words", [])] != [tuple(w) for w in words]:
        problems.append(f"{path}: code words differ from the directed blocks")
    return problems


def cw_code_problems(path, blocks, v: int, k: int) -> list[str]:
    data, problems = load_json(path)
    if problems:
        return problems
    if (data.get("type"), data.get("length"), data.get("weight")) != ("cw", v, k):
        problems.append(f"{path}: header {data.get('type')}/{data.get('length')}/{data.get('weight')}")
    expected = []
    for block in blocks:
        bits = ["0"] * v
        for x in block:
            bits[x] = "1"
        expected.append("".join(bits))
    if data.get("words") != expected:
        problems.append(f"{path}: words are not the characteristic vectors of the blocks")
    return problems
