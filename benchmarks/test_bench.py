"""Tests of the benchmark itself: failures are counted, names match BENCHMARK.json.

    python3 -m pytest benchmarks -q
"""

import json
from pathlib import Path

import run  # puts the checkout's src on the path
import tracing
import workloads
from packings.core import DirectedPackingDesign, PackingDesign
from packings.solve import BUDGET_EXHAUSTED, OPTIMAL, SearchResult


def one_pass(op) -> run.Recorder:
    rec = run.Recorder([op])
    rec.run_pass()
    rec.check_outputs()
    return rec


def faked(op, outcome, write=None):
    """Make op return ``outcome`` (after writing its output file) instead of running."""

    def execute():
        if write:
            write()
        return 0.001, outcome

    op.execute = execute
    return op


def direct_op(tmp_path, output_blocks):
    source = workloads.write_design(tmp_path / "in.json", 6, 3, 2, 2, [(0, 1, 2), (0, 1, 3)])
    target = tmp_path / "out.json"
    op = workloads._direct_op("test", 6, 3, source, str(target))
    write = lambda: workloads.write_design(target, 6, 3, 2, 1, output_blocks, directed=True)  # noqa: E731
    return faked(op, workloads.Outcome(0), write)


def test_directed_output_with_a_repeated_ordered_pair_counts_as_failed(tmp_path):
    rec = one_pass(direct_op(tmp_path, [(0, 1, 2), (0, 1, 3)]))
    assert (rec.attempted, rec.failed) == (1, 1)
    assert "ordered pair (0, 1) repeats" in rec.problems[0]
    assert rec.certified == [0]


def test_directed_output_that_reverses_the_shared_pair_passes(tmp_path):
    rec = one_pass(direct_op(tmp_path, [(0, 1, 2), (1, 0, 3)]))
    assert (rec.attempted, rec.failed) == (1, 0)
    assert (rec.certified, rec.blocks) == ([1], [2])


def test_directed_output_that_is_not_a_permutation_of_its_input_counts_as_failed(tmp_path):
    rec = one_pass(direct_op(tmp_path, [(0, 1, 2), (1, 0, 4)]))
    assert rec.failed == 1
    assert "not a permutation" in rec.problems[0]


def search_op(result, v=12, k=3, lam=1, known=20):
    op = workloads.SearchOp("test", False, v, k, lam, known)
    return faked(op, workloads.Outcome(0, value=result))


def test_oracle_witness_that_breaks_multiplicity_counts_as_failed():
    witness = PackingDesign(12, ((0, 1, 2), (0, 1, 3)))
    rec = one_pass(search_op(SearchResult(2, witness, BUDGET_EXHAUSTED)))
    assert rec.failed == 1
    assert "lies in 2 blocks (limit 1)" in rec.problems[0]


def test_oracle_optimal_certificate_must_state_the_known_optimum():
    witness = PackingDesign(12, ((0, 1, 2), (3, 4, 5)))
    rec = one_pass(search_op(SearchResult(2, witness, OPTIMAL)))
    assert rec.failed == 1
    assert "known optimum 20" in rec.problems[0]


def test_oracle_improvement_is_a_gain_not_a_failure():
    # the cyclic Steiner triple system of order 13 minus one point: 20 triples
    # on 12 points, the optimum the search misses today (it stops at 19)
    sts13 = {
        tuple(sorted((x + a) % 13 for a in base)) for base in ((0, 1, 4), (0, 2, 7)) for x in range(13)
    }
    witness = PackingDesign(12, tuple(b for b in sorted(sts13) if 12 not in b))
    rec = one_pass(search_op(SearchResult(20, witness, OPTIMAL)))
    assert (rec.failed, rec.certified, rec.blocks) == (0, [1], [20])


def test_unexpected_exit_code_counts_as_failed(tmp_path):
    missing = tmp_path / "missing.json"
    rec = one_pass(workloads.CliOp("verify missing", ["verify", "-i", missing], workloads._verify_check))
    assert rec.failed == 1
    assert "exit 1, expected 0" in rec.problems[0]


def test_expected_nonzero_exit_code_passes(tmp_path):
    blocks = [(0, 1, 2), (0, 1, 2), (0, 1, 2)]
    source = workloads.write_design(tmp_path / "bad.json", 6, 3, 2, 2, blocks)
    op = workloads.CliOp("verify bad", ["verify", "-i", source], workloads._invalid_check(3), expect_rc=1)
    assert one_pass(op).failed == 0


def test_output_that_changes_between_passes_counts_as_failed():
    results = iter([
        SearchResult(1, PackingDesign(12, ((0, 1, 2),)), BUDGET_EXHAUSTED),
        SearchResult(1, PackingDesign(12, ((0, 1, 3),)), BUDGET_EXHAUSTED),
    ])
    op = workloads.SearchOp("test", False, 12, 3, 1, 20)
    op.execute = lambda: (0.001, workloads.Outcome(0, value=next(results)))
    rec = run.Recorder([op])
    rec.run_pass()
    rec.run_pass()
    rec.check_outputs()
    assert (rec.attempted, rec.failed) == (2, 1)
    assert "differs from the first pass" in rec.problems[0]


def test_first_pass_is_checked_with_its_own_output_files(tmp_path):
    # checks run after every pass; the second pass leaves a bad file behind,
    # but the first is judged on the file it wrote
    outputs = iter([[(0, 1, 2), (1, 0, 3)], [(0, 1, 2), (0, 1, 3)]])
    op = direct_op(tmp_path, None)
    target = tmp_path / "out.json"
    op.execute = lambda: (
        0.001, workloads.Outcome(0, stdout=workloads.write_design(target, 6, 3, 2, 1, next(outputs), True))
    )
    rec = run.Recorder([op])
    rec.run_pass()
    rec.run_pass()
    rec.check_outputs()
    assert (rec.attempted, rec.failed, rec.certified) == (2, 1, [1, 0])
    assert "differs from the first pass" in rec.problems[0]


def test_tracer_records_self_time_and_restores_the_program():
    import packings.cli
    from packings import directing

    original = packings.cli.main
    tracer = tracing.Tracer()
    design = PackingDesign(12, (
        (0, 1, 2, 3, 4, 5, 6), (0, 1, 3, 4, 7, 8, 9), (0, 2, 5, 6, 9, 10, 11), (1, 2, 7, 8, 9, 10, 11),
    ))
    with tracer:
        assert packings.cli.main is not original
        out = directing.direct_packing(design)
    assert packings.cli.main is original
    assert isinstance(out, DirectedPackingDesign)
    m = tracer.metrics(passes=1)
    assert m["directing.direct.calls"] == 1
    assert m["directing.insert.calls"] >= 1
    calls, self_s = tracer.group_totals()
    assert all(s >= 0 for s in self_s.values())
    total = tracer.span_end[0] - tracer.span_start[0]
    assert abs(sum(self_s.values()) - total) < 1e-6  # self times partition the outer span


def test_benchmark_json_names_the_metrics_and_workloads_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert spec["paths"] == [Path(run.BENCH).name]
