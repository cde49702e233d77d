"""Benchmark for packings: one command, four workloads, every output checked.

    python3 benchmarks/run.py                          # every workload, untraced
    python3 benchmarks/run.py --trace 1                # every workload, per-layer figures
    python3 benchmarks/run.py --workload oracle --seed 3 --seconds 20 --trace 0

A run is a closed loop in one process: one client issues one operation at a
time and the next only after the previous returned.  It sets up several
times, each cold in a fresh interpreter (import, input generation, warm-up),
and reports the median, then repeats whole passes of the workload until the
next pass would overrun ``--seconds`` of measured time.  Outputs are checked
after the passes: the first pass by the independent checks, later passes by
being identical to the first.  With ``--trace 1`` untraced and traced passes
alternate, and the per-layer figures are reported per traced pass together
with the tracing overhead (traced minus untraced median pass time).  Every
timing is reported at nominal machine speed (see ``calibration``).  The last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))
try:
    import packings
except ImportError as exc:
    sys.exit(f"run.py: cannot import packings from {SRC}: {exc}")
if Path(packings.__file__).resolve().parent != SRC / "packings":
    sys.exit(f"run.py: packings was imported from {packings.__file__}, not from {SRC}")

import calibration  # noqa: E402  (the modules below need the path above)
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN_SECONDS = 20
SETUP_REPEATS = 9
MIN_SAMPLES = 100

# (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("certified", "count"),
    ("best_n_sum", "count"),
    ("peak_rss_mb", "MB"),
)

# One cold set-up in a fresh interpreter: import, inputs and warm-up, so that
# work done lazily on first use is paid in every sample, as by each CLI call.
SETUP_PROBE = """\
import sys, time
src, bench, name, seed, work = sys.argv[1:]
sys.path[:0] = [src, bench]
start = time.perf_counter()
import pathlib, workloads
workload = workloads.build(name, int(seed), pathlib.Path(work))
for op in workload.warmup:
    op.execute()
print(time.perf_counter() - start)
"""


class Recorder:
    """Runs passes and keeps latencies; ``check_outputs`` then counts failures.

    Nothing is checked during the passes, so the checker's memory stays out
    of the measured peak.  The first execution of each operation is kept with
    its digest; a later one only notes whether it reproduced that digest.
    ``check_outputs`` checks each first execution in full, and a later one
    inherits its verdict unless its output differed.  Latencies and pass
    times are kept at nominal machine speed (see ``calibration``); the
    budget of ``passes`` is in measured seconds.
    """

    def __init__(self, ops):
        self.ops = ops
        self.first: list = [None] * len(ops)  # (digest, outcome) of the first execution
        self.differed: list[set[int]] = []  # per pass, the operations whose output changed
        self.latencies: list[float] = []
        self.kernel_s: list[float] = []
        self._factor = 0.0
        self._since = 0.0  # measured seconds since the kernel last ran
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.certified: list[int] = []
        self.blocks: list[int] = []

    def run_pass(self) -> tuple[float, float]:
        """(pass time at nominal speed, measured pass time)."""
        gc.collect()
        measured = scaled = 0.0
        differed = set()
        for i, op in enumerate(self.ops):
            if not self.kernel_s or self._since >= calibration.EVERY_S:
                self.kernel_s.append(calibration.kernel_seconds())
                # the median of the last three samples damps the noise of one
                # sample while still following drift over a few seconds
                self._factor = calibration.NOMINAL_S / statistics.median(self.kernel_s[-3:])
                self._since = 0.0
            elapsed, outcome = op.execute()
            measured += elapsed
            self._since += elapsed
            scaled += elapsed * self._factor
            self.latencies.append(elapsed * self._factor)
            digest = op.digest(outcome)
            if self.first[i] is None:
                self.first[i] = (digest, outcome)
            elif digest != self.first[i][0]:
                differed.add(i)
        self.differed.append(differed)
        return scaled, measured

    def check_outputs(self) -> None:
        """Check the first executions, with their output files as the first
        pass left them, and count every failed operation of every pass."""
        for op, (digest, _) in zip(self.ops, self.first):
            op.restore(digest)
        verdicts = []
        for op, (_, outcome) in zip(self.ops, self.first):
            problems = op.check(outcome)
            verdicts.append((problems, None if problems else op.answer(outcome)))
        for differed in self.differed:
            certified = blocks = 0
            for i, op in enumerate(self.ops):
                self.attempted += 1
                problems, answer = verdicts[i]
                if i in differed:
                    problems = ["output differs from the first pass"]
                if problems:
                    self.failed += 1
                    if len(self.problems) < 10:
                        self.problems.append(f"{op.name}: {problems[0]}")
                    continue
                certified += answer[0]
                blocks += answer[1]
            self.certified.append(certified)
            self.blocks.append(blocks)

    def passes(self, seconds: float) -> tuple[list[float], list[float]]:
        """Whole passes until the next one would overrun the measured budget,
        and at least until MIN_SAMPLES latencies, so that ten or more lie
        beyond the 90th percentile."""
        scaled, measured = [], []
        while len(self.latencies) < MIN_SAMPLES or sum(measured) + measured[-1] <= seconds:
            at_nominal, seconds_taken = self.run_pass()
            scaled.append(at_nominal)
            measured.append(seconds_taken)
        return scaled, measured


def set_up(name: str, seed: int, work: Path) -> list[float]:
    """Set up SETUP_REPEATS times, each cold in a fresh interpreter; the
    set-up times are at nominal speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        factor = calibration.NOMINAL_S / calibration.kernel_seconds()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir()
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(seed), str(work)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout) * factor)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / f"work-{name}-{seed}-{trace:d}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times = [] if trace else set_up(name, seed, work / "setup")
        workload = workloads.build(name, seed, work)
        for op in workload.warmup:
            op.execute()
        rec = Recorder(workload.ops)
        if not trace:
            pass_times, measured = rec.passes(seconds)
            # read before the outputs are checked, so the peak is the program's
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rec.check_outputs()
            lat = rec.latencies
            values = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(pass_times),
                "ops_per_s": len(lat) / sum(pass_times),
                "op_p50_ms": 1e3 * statistics.median(lat),
                "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
                "certified": statistics.median(rec.certified),
                "best_n_sum": statistics.median(rec.blocks),
                "peak_rss_mb": peak_rss_mb,
            }
            units = dict(END_TO_END)
            notes = {
                "setup_s": f"median of {len(setup_times)} set-ups",
                "wall_s": f"median of {len(pass_times)} passes of {len(workload.ops)} operations; "
                f"measured {statistics.median(measured):.4f} s, kernel {statistics.median(rec.kernel_s):.4f} s",
                "op_p90_ms": f"{len(lat)} samples",
            }
        else:
            # alternate untraced and traced passes so that drift in machine
            # speed falls on both sides of the overhead
            tracer = tracing.Tracer()
            untraced, traced = [], []
            spent = last = 0.0
            while not traced or spent + last <= seconds:
                scaled, plain = rec.run_pass()
                untraced.append(scaled)
                with tracer:
                    scaled, with_spans = rec.run_pass()
                traced.append(scaled)
                last = plain + with_spans
                spent += last
            rec.check_outputs()
            values = tracer.metrics(len(traced))
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            calls = values["solve.calls"]
            notes = {
                "solve.certified_ratio": f"base: {calls:g} solve calls per pass",
                "trace.overhead_s": f"traced {statistics.median(traced):.4f} s - untraced "
                f"{statistics.median(untraced):.4f} s per pass",
            }
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{name}-seed{seed}.tsv")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    per_pass = len(workload.ops)
    print(f"{name} seed={seed} trace={trace:d}: {rec.attempted} operations "
          f"({per_pass} per pass), {rec.failed} failed")
    for problem in rec.problems:
        print(f"  FAILED {problem}")
    for metric, value in values.items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:<26} {value:>16.6f} {units[metric]}{note}")
    print(f"  {'failed_frac':<26} {rec.failed / rec.attempted:>16.6f} (of {rec.attempted} attempted)")
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.BUILDERS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", flush=True)
            merged["correct"], status = False, 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *workloads.BUILDERS])
    parser.add_argument("--seed", type=int, default=1)
    # passed by whoever runs the benchmark, as BENCHMARK.json's run_seconds
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
