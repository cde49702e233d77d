"""The four workloads: inputs made from a seed, their operations and checks.

One pass of a workload is a fixed list of operations.  The seed decides the
free parts of the inputs (which v inside each window, the random designs,
the sampled bound cells, the order of the pass) but never the shapes, so
block counts and certificates repeat exactly from seed to seed while the
contents change.  Every operation goes in-process through
``packings.cli.main`` or, for the oracle, through ``pdn_exact`` and
``dpdn_exact``; both are looked up on their module at call time, so the
traced run sees them through its wrappers.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from io import StringIO
from itertools import combinations
from pathlib import Path
from time import perf_counter
from typing import Callable

from packings import cli as pk_cli
from packings import solve as pk_solve
from packings.core import DesignParams
from packings.solve import BUDGET_EXHAUSTED, OPTIMAL, SearchConfig

import checks


@dataclass
class Outcome:
    rc: object  # exit code, or "raised <exception>" when the call did not return
    stdout: str = ""
    stderr: str = ""
    value: object = None  # the SearchResult of an oracle call


class CliOp:
    """One ``packings`` command line run through ``cli.main``.

    ``check`` receives the outcome once the exit code matched and returns
    problems; ``blocks`` gives the block count the answer states, if any.
    """

    def __init__(self, name, argv, check=None, *, expect_rc=0, outputs=(), blocks=None):
        self.name = name
        self.argv = [str(a) for a in argv]
        self.expect_rc = expect_rc
        self.outputs = tuple(outputs)
        self._check = check
        self._blocks = blocks

    def execute(self) -> tuple[float, Outcome]:
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            try:
                rc = pk_cli.main(self.argv)
            except Exception as exc:  # a crash is a failed operation, not a failed run
                rc = f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        return elapsed, Outcome(rc, out.getvalue(), err.getvalue())

    def check(self, outcome: Outcome) -> list[str]:
        if outcome.rc != self.expect_rc:
            return [f"exit {outcome.rc!r}, expected {self.expect_rc}: {outcome.stderr.strip()[:200]}"]
        return self._check(outcome) if self._check else []

    def digest(self, outcome: Outcome):
        files = []
        for path in self.outputs:
            try:
                files.append(Path(path).read_bytes())
            except OSError:
                files.append(None)
        return outcome.rc, outcome.stdout, outcome.stderr, tuple(files)

    def restore(self, digest) -> None:
        """Put back the output files that ``digest`` was taken of."""
        for path, data in zip(self.outputs, digest[3]):
            if data is None:
                Path(path).unlink(missing_ok=True)
            else:
                Path(path).write_bytes(data)

    def answer(self, outcome: Outcome) -> tuple[int, int]:
        return 1, self._blocks(outcome) if self._blocks else 0


class SearchOp:
    """One exact search at the acceptance budget, with its known optimum."""

    def __init__(self, name, directed, v, k, lam, known):
        self.name = name
        self.directed = directed
        self.v, self.k, self.lam = v, k, lam
        self.known = known
        self.config = SearchConfig(node_budget=ORACLE_BUDGET)
        self.params = None if directed else DesignParams(v, k, 2, lam)

    def execute(self) -> tuple[float, Outcome]:
        start = perf_counter()
        try:
            if self.directed:
                result = pk_solve.dpdn_exact(self.v, self.k, self.config)
            else:
                result = pk_solve.pdn_exact(self.params, self.config)
            rc = 0
        except Exception as exc:
            result, rc = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        return elapsed, Outcome(rc, value=result)

    def check(self, outcome: Outcome) -> list[str]:
        if outcome.rc != 0:
            return [f"search {outcome.rc}"]
        return oracle_problems(outcome.value, self.directed, self.v, self.k, self.lam, self.known)

    def digest(self, outcome: Outcome):
        r = outcome.value
        return outcome.rc if r is None else (r.n, r.witness.blocks, r.certificate)

    def restore(self, digest) -> None:
        """A search writes no files."""

    def answer(self, outcome: Outcome) -> tuple[int, int]:
        return int(outcome.value.certificate == OPTIMAL), outcome.value.n


def oracle_problems(result, directed, v, k, lam, known) -> list[str]:
    """A witness must validate and stay within the classical bound and the known
    optimum; an ``optimal`` certificate must state the known optimum.  A larger
    n than today's is a gain, never a failure."""
    blocks = result.witness.blocks
    if len(blocks) != result.n:
        return [f"witness has {len(blocks)} blocks but n={result.n}"]
    if directed:
        problems = checks.ordered_pair_problems(blocks, v, k)
        cap = checks.johnson_schonheim(v, k, 2, 2)
    else:
        problems = checks.multiplicity_problems(blocks, v, k, 2, lam)
        cap = checks.johnson_schonheim(v, k, 2, lam)
    if result.n > min(cap, known):
        problems.append(f"n={result.n} exceeds the known optimum {known} (bound {cap})")
    if result.certificate == OPTIMAL and result.n != known:
        problems.append(f"certified optimal n={result.n}, known optimum {known}")
    elif result.certificate not in (OPTIMAL, BUDGET_EXHAUSTED):
        problems.append(f"unknown certificate {result.certificate!r}")
    return problems


@dataclass
class Workload:
    """One pass of operations, in order, and the operations that warm up.

    A pass holds 35, 65 or 135 operations: with a count ending in 5 the
    median and the 90th percentile of the latencies fall inside the samples
    of one operation, not on the edge between two.
    """

    ops: list
    warmup: list


# -- large_blocks ----------------------------------------------------------

# (lam, n, k): window cells of the paper's regime, few blocks of size k.  The
# seed picks v inside the window, which fixes n while moving the contents.
LARGE_CELLS = (
    (2, 3, 40), (2, 4, 90), (2, 3, 120), (2, 5, 160), (2, 5, 240),
    (1, 3, 60), (1, 2, 100), (1, 2, 250), (1, 4, 150), (1, 3, 400),
)


def window_range(n: int, k: int, lam: int) -> tuple[int, int]:
    """The v with nk - C(n, lam+1) <= lam v < (n+1)k - C(n+1, lam+1), at t = 2."""
    lo = -(-checks.window_edge(n, k, 2, lam) // lam)
    hi = -(-checks.window_edge(n + 1, k, 2, lam) // lam) - 1
    return max(lo, k), hi


def _verify_check(out: Outcome) -> list[str]:
    lines = out.stdout.splitlines()
    if not lines or lines[0] != "valid: yes":
        return [f"verify says {lines[:1]}"]
    failing = [line for line in lines if line.startswith("check ") and ": pass" not in line]
    return [f"diagnostic failed: {failing[0]}"] if failing else []


def _construct_op(tag, v, k, lam, n, design):
    def check(out):
        blocks, problems = checks.design_file_problems(
            design, v=v, k=k, t=2, lam=lam, directed=False, n=n
        )
        return problems or checks.multiplicity_problems(blocks, v, k, 2, lam)

    return CliOp(
        f"construct {tag}",
        ["construct", "--v", v, "--k", k, "--t", 2, "--lambda", lam, "-o", design],
        check, outputs=[design], blocks=lambda out: n,
    )


def _direct_op(tag, v, k, source, target):
    def check(out):
        original, problems = checks.load_json(source)
        directed, more = checks.design_file_problems(
            target, v=v, k=k, t=2, lam=1, directed=True
        )
        problems += more
        if problems:
            return problems
        return checks.permutation_problems(directed, original["blocks"]) or checks.ordered_pair_problems(
            directed, v, k
        )

    return CliOp(
        f"direct {tag}", ["direct", "-i", source, "-o", target], check,
        outputs=[target], blocks=lambda out: len(checks.load_json(target)[0]["blocks"]),
    )


def _indel_op(tag, v, k, source, code):
    def check(out):
        if not out.stdout.rstrip().endswith(f"deletion check (s={k - 2}): pass"):
            return [f"deletion check did not pass: {out.stdout.strip()[-80:]}"]
        words = checks.load_json(source)[0]["blocks"]
        return checks.indel_code_problems(code, words, v, k)

    return CliOp(
        f"export-indel {tag}",
        ["export-code", "-i", source, "--format", "indel", "--check-deletions", k - 2, "-o", code],
        check, outputs=[code],
    )


def _cw_op(tag, v, k, source, code):
    def check(out):
        return checks.cw_code_problems(code, checks.load_json(source)[0]["blocks"], v, k)

    return CliOp(
        f"export-cw {tag}", ["export-code", "-i", source, "--format", "cw", "-o", code],
        check, outputs=[code],
    )


def _pipeline(tag, work: Path, v, k, lam, n):
    """construct -> direct -> verify -> export indel (lam=2) or construct -> verify -> export cw."""
    design, directed, code = (str(work / f"{tag}.{ext}.json") for ext in ("design", "directed", "code"))
    ops = [_construct_op(tag, v, k, lam, n, design)]
    if lam == 2:
        ops += [
            _direct_op(tag, v, k, design, directed),
            CliOp(f"verify {tag}", ["verify", "-i", directed], _verify_check),
            _indel_op(tag, v, k, directed, code),
        ]
    else:
        ops += [
            CliOp(f"verify {tag}", ["verify", "-i", design], _verify_check),
            _cw_op(tag, v, k, design, code),
        ]
    return ops


def build_large_blocks(rng: random.Random, work: Path) -> Workload:
    cells = []
    for lam, n, k in LARGE_CELLS:
        lo, hi = window_range(n, k, lam)
        cells.append((lam, n, k, rng.randint(lo, hi)))
    smallest = min(cells, key=lambda c: c[2])
    warmup = _pipeline("warmup", work, smallest[3], smallest[2], smallest[0], smallest[1])
    rng.shuffle(cells)
    ops = []
    for lam, n, k, v in cells:
        ops += _pipeline(f"v{v}k{k}l{lam}", work, v, k, lam, n)
    return Workload(ops, warmup)


# -- small_blocks ----------------------------------------------------------

# (v, k, n): uniform 2-fold packings with every frequency at most three, n*k
# within nine tenths of 3v so a random fill always completes.
SMALL_TWOFOLD = (
    (90, 3, 80), (200, 3, 180), (160, 4, 108), (150, 5, 80), (140, 6, 62), (140, 7, 54), (150, 8, 50),
)
# (v, k, n): uniform 1-fold packings for the constant-weight path.
SMALL_ONEFOLD = ((100, 3, 300), (80, 5, 60))


def random_packing(rng: random.Random, v: int, k: int, n: int, lam: int, max_freq: int | None):
    """n random k-subsets of range(v), no pair in more than lam of them, no
    point in more than max_freq of them; restarts until n blocks fit."""
    while True:
        freq = [0] * v
        pairs: Counter = Counter()
        blocks = []
        for _ in range(50 * n):
            if len(blocks) == n:
                return blocks
            room = [x for x in range(v) if max_freq is None or freq[x] < max_freq]
            if len(room) < k:
                break
            block = sorted(rng.sample(room, k))
            subs = list(combinations(block, 2))
            if any(pairs[p] >= lam for p in subs):
                continue
            pairs.update(subs)
            for x in block:
                freq[x] += 1
            blocks.append(block)
        if len(blocks) == n:
            return blocks


def write_design(path: Path, v, k, t, lam, blocks, directed=False) -> str:
    doc = {"v": v, "k": k, "t": t, "lambda": lam, "directed": directed, "blocks": [list(b) for b in blocks]}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return str(path)


def build_small_blocks(rng: random.Random, work: Path) -> Workload:
    groups = []
    invalid = []
    for v, k, n in SMALL_TWOFOLD:
        tag = f"v{v}k{k}n{n}"
        blocks = random_packing(rng, v, k, n, 2, 3)
        source = write_design(work / f"{tag}.input.json", v, k, 2, 2, blocks)
        directed = str(work / f"{tag}.directed.json")
        groups.append([
            CliOp(f"verify-input {tag}", ["verify", "-i", source], _verify_check),
            _direct_op(tag, v, k, source, directed),
            CliOp(f"verify {tag}", ["verify", "-i", directed], _verify_check),
            _indel_op(tag, v, k, directed, str(work / f"{tag}.code.json")),
        ])
        if not invalid:
            # the first packing with a block tripled (a pair now lies in three
            # blocks), with its blocks in random order, and with a point out of range
            tripled = blocks + blocks[:1] * 2
            worst = max(Counter(p for b in tripled for p in combinations(b, 2)).values())
            shuffled = [rng.sample(b, k) for b in blocks]
            expect = 1 if checks.ordered_pair_problems(shuffled, v, k) else 0
            invalid = [
                CliOp(f"verify-tripled {tag}",
                      ["verify", "-i", write_design(work / f"{tag}.tripled.json", v, k, 2, 2, tripled)],
                      _invalid_check(worst), expect_rc=1),
                CliOp(f"verify-unordered {tag}",
                      ["verify", "-i", write_design(work / f"{tag}.unordered.json", v, k, 2, 1, shuffled, True)],
                      _invalid_check(2) if expect else _verify_check, expect_rc=expect),
                CliOp(f"verify-out-of-range {tag}",
                      ["verify", "-i", write_design(work / f"{tag}.range.json", v, k, 2, 2, [[v] + blocks[0][1:]])],
                      _error_check(f"point {v} out of range"), expect_rc=1),
            ]
    for v, k, n in SMALL_ONEFOLD:
        tag = f"v{v}k{k}n{n}"
        source = write_design(work / f"{tag}.input.json", v, k, 2, 1, random_packing(rng, v, k, n, 1, None))
        groups.append([
            CliOp(f"verify {tag}", ["verify", "-i", source], _verify_check),
            _cw_op(tag, v, k, source, str(work / f"{tag}.code.json")),
        ])
    groups += [[op] for op in invalid]
    rng.shuffle(groups)
    return Workload([op for group in groups for op in group], warmup=groups[0][:1])


def _error_check(message):
    def check(out):
        return [] if message in out.stderr else [f"stderr lacks {message!r}: {out.stderr.strip()[:80]}"]

    return check


def _invalid_check(multiplicity):
    def check(out):
        lines = out.stdout.splitlines()
        if not lines or lines[0] != "valid: no":
            return [f"an invalid design was reported as {lines[:1]}"]
        if f"multiplicity {multiplicity} " not in out.stdout:
            return [f"witness multiplicity is not {multiplicity}: {lines[1:2]}"]
        return []

    return check


# -- oracle ----------------------------------------------------------------

ORACLE_BUDGET = 120_000

# Known optima PDN_lam(v, k) at t = 2 for the acceptance-grid cells kept in
# the workload (every one the search certifies within a second), keyed by
# (v, k, lam).  Each equals the classical cap or the search's certificate;
# the window cells also equal the exact-value windows.
KNOWN_PDN = {
    **{(v, 3, 1): n for v, n in zip(range(3, 13), (1, 1, 2, 4, 7, 8, 12, 13, 17, 20))},
    **{(v, 4, 1): n for v, n in zip(range(4, 13), (1, 1, 1, 2, 2, 3, 5, 6, 9))},
    **{(v, 5, 1): n for v, n in zip(range(5, 13), (1, 1, 1, 1, 2, 2, 2, 3))},
    **{(v, 6, 1): n for v, n in zip(range(6, 13), (1, 1, 1, 1, 1, 2, 2))},
    **{(v, 3, 2): n for v, n in zip(range(3, 10), (2, 4, 6, 10, 14, 18, 24))},
    **{(v, 4, 2): n for v, n in zip(range(4, 9), (2, 2, 4, 7, 8))},
    **{(v, 5, 2): n for v, n in zip(range(5, 10), (2, 2, 3, 4, 6))},
    **{(v, 6, 2): n for v, n in zip(range(6, 11), (2, 2, 2, 3, 5))},
}
# (12,3,1) = 20 (Schonheim 1966) and (9,3,2) = 24 (two copies of the affine
# plane of order 3) exhaust the budget today: they are the cells where a
# better search shows up in `certified` and `best_n_sum`.
# Known optima DPDN(v, k) at (t, lam) = (2, 1), all certified by the search.
KNOWN_DPDN = {
    (4, 3): 4, (6, 3): 10, (7, 3): 14, (5, 4): 2, (6, 4): 4, (7, 5): 3, (8, 5): 4, (8, 6): 2, (9, 6): 3,
}


def build_oracle(rng: random.Random, work: Path) -> Workload:
    # Cells and order are fixed, so the seed does not enter: the answers are
    # what this workload measures, and a fixed order also fixes when the
    # cyclic collector frees each search's tables, which steadies peak memory.
    ops = [SearchOp(f"pdn {v},{k},2,{lam}", False, v, k, lam, n) for (v, k, lam), n in KNOWN_PDN.items()]
    ops += [SearchOp(f"dpdn {v},{k}", True, v, k, 1, n) for (v, k), n in KNOWN_DPDN.items()]
    return Workload(ops, warmup=[SearchOp("warm-up", False, 8, 4, 1, KNOWN_PDN[8, 4, 1])])


# -- bounds_sweep ----------------------------------------------------------

# (t, lam, k, base): v is drawn within five percent above base.  The bases
# climb geometrically so the sample spans short and full-length scans.
BOUND_STRATA = tuple(
    [(2, lam, k, base * k) for lam in (1, 2, 3) for k in (3, 4, 5, 6, 7, 8) for base in (2, 4, 8, 16)]
    + [(3, lam, k, base * k) for lam in (1, 2, 3) for k in (4, 5, 6, 7, 8) for base in (2, 4)]
)
# Large-v cells, fixed so that the long scans weigh the same in every pass:
# (v, k, t, lam, directed).
BOUND_LARGE = (
    (600, 3, 2, 1, False), (600, 3, 2, 1, True), (400, 4, 2, 2, False), (100, 4, 3, 1, False),
    (150, 3, 2, 3, False), (300, 5, 2, 1, True), (500, 6, 2, 1, False), (60, 5, 3, 2, False),
    (40, 4, 3, 3, False),
)
# table sweeps: (t, lam, v_max), over v from 6 and k from 3 to 8.
BOUND_TABLES = tuple((t, lam, 30 if t == 2 else 20) for t in (2, 3) for lam in (1, 2, 3))


def _bounds_op(v, k, t, lam, directed):
    tag = f"v{v}k{k}t{t}l{lam}{'d' if directed else ''}"

    def check(out):
        return checks.bounds_problems(out.stdout, v, k, t, lam, directed)

    argv = ["bounds", "--v", v, "--k", k, "--t", t, "--lambda", lam, "--tsv"]
    return CliOp(f"bounds {tag}", argv + (["--directed"] if directed else []), check)


def _table_op(t, lam, v_max):
    v_range, k_range = range(6, v_max + 1), range(3, 9)

    def check(out):
        return checks.table_problems(out.stdout, v_range, k_range, t, lam)[1]

    def pinned(out):
        return checks.table_problems(out.stdout, v_range, k_range, t, lam)[0]

    argv = ["table", "--v-min", 6, "--v-max", v_max, "--k-min", 3, "--k-max", 8,
            "--t", t, "--lambda", lam, "--tsv"]
    return CliOp(f"table t{t}l{lam}", argv, check, blocks=pinned)


def build_bounds_sweep(rng: random.Random, work: Path) -> Workload:
    ops = []
    for t, lam, k, base in BOUND_STRATA:
        v = rng.randint(base, base + base // 20)
        ops.append(_bounds_op(v, k, t, lam, False))
        if (t, lam) == (2, 1) and base > 2 * k:
            ops.append(_bounds_op(v, k, t, lam, True))
    ops += [_bounds_op(*cell) for cell in BOUND_LARGE]
    ops += [_table_op(*table) for table in BOUND_TABLES]
    rng.shuffle(ops)
    return Workload(ops, warmup=[_bounds_op(20, 4, 2, 1, False)])


BUILDERS: dict[str, Callable[[random.Random, Path], Workload]] = {
    "large_blocks": build_large_blocks,
    "small_blocks": build_small_blocks,
    "oracle": build_oracle,
    "bounds_sweep": build_bounds_sweep,
}


def build(name: str, seed: int, work: Path) -> Workload:
    return BUILDERS[name](random.Random(f"{name}:{seed}"), work)
