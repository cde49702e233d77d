import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import packings
from packings import (
    DesignParams,
    PackingDesign,
    best_upper_bound,
    exact_by_theorems,
    johnson_schonheim,
    pdn_exact,
    save_design,
)
from packings.bounds import VIA_UNDIRECTED, bound_candidates, least_bound
from packings import cli, solve
from packings.cli import main
from packings.io import dumps_design, load_design
from packings.io import DesignDocument

from conftest import linear_first_infeasible


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_alone(*argv, timeout=None):
    """Exit code, stdout and stderr of the command line in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(packings.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "packings", *argv], capture_output=True, text=True, env=env,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_keeps_no_state_between_calls(capsys):
    calls = [
        ("bounds", "--v", "12", "--k", "7", "--directed"),
        ("bounds", "--v", "x"),
        ("bounds", "--v", "12", "--k", "7"),
        ("table", "--v-min", "6", "--v-max", "9", "--k-min", "3", "--k-max", "5"),
        ("export-code", "-i", "none.json", "--format", "cw", "--check-deletions", "2"),
    ]
    for argv in calls:
        assert run(capsys, *argv) == run_alone(*argv), argv


def test_python_m_packings_exits_with_the_command_code():
    # ``python -m packings`` runs ``cli.run``, which exits with what ``main`` returns
    code, out, err = run_alone("bounds", "--v", "6", "--k", "3", "--tsv")
    assert (code, err) == (0, "") and out.startswith("provenance\tvalue\tkind\n")
    assert run_alone() == (1, "", "error: the following arguments are required: command\n")


def outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main``, also when argparse exits, as on --help."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv,lines",
    [
        # the rest of this table once ended in "error: [Errno 32] Broken pipe"
        (("table", "--v-min", "1", "--v-max", "200", "--k-min", "3", "--k-max", "30"), 1),
        # this output fits stdout's buffer, so it meets the closed pipe only when flushed
        (("bounds", "--v", "20", "--k", "4"), 0),
    ],
)
def test_a_closed_pipe_ends_the_command_without_a_message(argv, lines):
    # the reader leaves after a few lines, as `| head -1` does
    env = {**os.environ, "PYTHONPATH": str(Path(packings.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)  # stdout into a pipe is block-buffered by default
    with subprocess.Popen(
        [sys.executable, "-m", "packings", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env,
    ) as proc:
        first = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
    assert all(first) and (proc.returncode, err) == (1, b"")


def test_a_known_command_parses_as_through_the_top_level_parser(
    capsys, monkeypatch, tmp_path, twofold_12_7
):
    design = tmp_path / "d.json"
    design.write_text(dumps_design(DesignDocument(twofold_12_7, 7, 2, 2)))
    per_command = {
        "bounds": ["--v", "12", "--k", "7", "--directed"],
        "construct": ["--v", "14", "--k", "5"],
        "direct": ["-i", str(design)],
        "verify": ["-i", str(design)],
        "solve": ["--v", "7", "--k", "3"],
        "export-code": ["-i", str(design), "--format", "cw"],
        "table": ["--v-min", "6", "--v-max", "8", "--k-min", "3", "--k-max", "4"],
    }
    assert set(cli._PARSER.commands) == set(per_command)
    cases = [
        [],
        ["nosuch", "--v", "12"],
        ["--help"],
        ["bounds", "--v", "12", "--k", "7", "--lam", "2"],
        ["bounds", "--v", "x", "--k", "7"],
        ["table", "--v-min", "6", "--v-max", "8", "--k-min", "3", "--k-max", "4", "--t", "two"],
    ]
    for name, args in per_command.items():
        # a call, an unrecognized argument, help, and the required options missing
        cases += [[name, *args], [name, *args, "--nosuch"], [name, "--help"], [name]]
    by_subparser = [outcome(capsys, argv) for argv in cases]
    monkeypatch.setattr(cli._PARSER, "commands", {})  # every argv through the top-level parser
    for argv, want in zip(cases, by_subparser):
        assert outcome(capsys, argv) == want, argv


class TestBounds:
    def test_table_lists_all_methods(self, capsys):
        code, out, _ = run(capsys, "bounds", "--v", "14", "--k", "5", "--t", "2", "--lambda", "1")
        assert code == 0
        assert "johnson-schonheim           8" in out
        assert "second-johnson(closed)      5" in out
        assert "exact-window                4  (exact)" in out
        assert "best: 4 via generalized-second-johnson" in out

    def test_tsv_values_match_library(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--v", "14", "--k", "5", "--tsv"
        )
        assert code == 0
        rows = {line.split("\t")[0]: line.split("\t")[1:] for line in out.splitlines()[1:]}
        assert rows["johnson-schonheim"][0] == "8"
        assert rows["generalized-second-johnson"][0] == "4"
        assert rows["best"] == ["4", "generalized-second-johnson"]

    def test_directed(self, capsys):
        code, out, _ = run(capsys, "bounds", "--v", "12", "--k", "7", "--directed")
        assert code == 0
        assert "exact-directed" in out
        assert "via-undirected(" in out
        assert "best: 4 via exact-directed" in out

    def test_bad_flags(self, capsys):
        code, _, err = run(capsys, "bounds", "--v", "3")
        assert code == 1 and "error" in err

    def test_tsv_rows_and_best_match_library_over_grid(self, capsys):
        grid = [(2, 1, 3, 7), (2, 1, 5, 14), (2, 2, 4, 11), (3, 1, 4, 9), (3, 2, 5, 12)]
        for t, lam, k, v in grid:
            for directed in (False, True):
                params = DesignParams(v, k, t, lam)
                argv = ["bounds", "--v", str(v), "--k", str(k), "--t", str(t),
                        "--lambda", str(lam), "--tsv"] + (["--directed"] if directed else [])
                code, out, _ = run(capsys, *argv)
                assert code == 0
                rows = [line.split("\t") for line in out.splitlines()[1:]]
                shown = [row for row in rows[:-1] if not row[0].endswith("(closed)")]
                reports = bound_candidates(params, directed=directed)
                assert len(shown) == len(reports)
                for (name, value, kind), rep in zip(shown, reports):
                    if rep.provenance == VIA_UNDIRECTED:
                        assert name == f"{VIA_UNDIRECTED}({rep.detail['underlying']})"
                    else:
                        assert name == rep.provenance
                    assert value == ("" if rep.value is None else str(rep.value))
                    applies = rep.value is not None
                    assert kind == ("exact" if rep.exact else "upper" if applies else "n/a")
                best = best_upper_bound(params, directed=directed)
                assert rows[-1] == ["best", str(best.value), best.provenance]

    def test_large_cell_rows_follow_the_reference_scan(self, capsys):
        # the reference scan finds no failure up to cap + 1 = 1,499,001
        ref = linear_first_infeasible(DesignParams(3000, 3, 2, 1))
        assert ref.detail == {"first_infeasible": None, "scanned_to": 1499001}
        code, out, _ = run(capsys, "bounds", "--v", "3000", "--k", "3", "--tsv")
        assert code == 0
        rows = {line.split("\t")[0]: line.split("\t")[1:] for line in out.splitlines()[1:]}
        assert rows["generalized-second-johnson"] == ["", "n/a"]
        assert rows["second-johnson"] == ["", "n/a"]
        applicable = {name: int(value) for name, (value, kind) in rows.items() if kind == "upper"}
        assert rows["best"] == [str(min(applicable.values())), "johnson-schonheim"]

    def test_half_v_block_size_at_large_v(self, capsys):
        # the window bisection answers where a loop over n up to ell = k + 1 would not
        code, out, _ = run(capsys, "bounds", "--v", "100000000", "--k", "50000000", "--tsv")
        assert code == 0
        assert "exact-window\t2\texact" in out.splitlines()

    def test_convexity_walk_stops_at_its_horizon(self, capsys):
        # every d passes the test here, and the Johnson-Schonheim cap has 12 digits
        code, out, _ = run(capsys, "bounds", "--v", "100", "--k", "50", "--t", "30", "--tsv")
        assert code == 0
        assert out.splitlines() == [
            "provenance\tvalue\tkind",
            "johnson-schonheim\t494749743422\tupper",
            "generalized-second-johnson\t\tn/a",
            "second-johnson\t\tn/a",
            "exact-window\t\tn/a",
            "best\t494749743422\tjohnson-schonheim",
        ]

    def test_cells_past_ssize_t_and_at_huge_lam_complete(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--v", "20000000000000000000", "--k", "10000000000000000000", "--tsv"
        )
        assert code == 0
        assert "exact-window\t2\texact" in out.splitlines()
        # the shadow lam is 1000!, far past the size limit of the power horizon
        code, out, _ = run(
            capsys, "bounds", "--v", "3000", "--k", "1500", "--t", "1000", "--directed"
        )
        assert code == 0 and out.splitlines()[-1].startswith("best: ")
        # about 10^4 segments below the power horizon, none below the Bernoulli one
        code, out, _ = run(
            capsys, "bounds", "--v", "100", "--k", "50", "--t", "2", "--lambda", "10000", "--tsv"
        )
        assert code == 0
        assert "generalized-second-johnson\t\tn/a" in out.splitlines()
        assert out.splitlines()[-1] == "best\t40408\tjohnson-schonheim"

    @pytest.mark.parametrize("directed", [(), ("--directed",)])
    def test_t_one_at_huge_lambda_completes(self, capsys, directed):
        # the convexity test at t = 1 computes no C(d, lam + 1): this cell once took 45 s
        argv = ("bounds", "--v", "232", "--k", "60", "--t", "1", "--lambda", "1000000", "--tsv")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, *directed)
        assert time.perf_counter() - start < 5
        prefix = "via-undirected(" if directed else ""
        suffix = ")" if directed else ""
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "provenance\tvalue\tkind",
            f"{prefix}johnson-schonheim{suffix}\t3866666\tupper",
            f"{prefix}generalized-second-johnson{suffix}\t3866666\tupper",
            f"best\t3866666\t{'via-undirected' if directed else 'johnson-schonheim'}",
        ]

    def test_giant_binomials_of_the_directed_shadow_end_in_n_a(self):
        # the shadow lam is 12!: the convexity walk's first C(d, lam) never finished
        argv = ("bounds", "--v", "1000000000000", "--k", "53", "--t", "12", "--directed", "--tsv")
        code, out, err = run_alone(*argv, timeout=60)
        assert (code, err) == (0, "")
        js = johnson_schonheim(DesignParams(10**12, 53, 12, math.factorial(12))).value
        assert out.splitlines() == [
            "provenance\tvalue\tkind",
            f"via-undirected(johnson-schonheim)\t{js}\tupper",
            "via-undirected(generalized-second-johnson)\t\tn/a",
            "via-undirected(exact-window)\t\tn/a",
            f"best\t{js}\tvia-undirected",
        ]

    def test_values_past_4300_digits_print_exactly(self, capsys):
        # str() of an int refuses past 4,300 digits; the cap here has 8,293
        js = johnson_schonheim(DesignParams(60000, 30000, 20000, 1)).value
        argv = ("bounds", "--v", "60000", "--k", "30000", "--t", "20000")
        code, out, err = run(capsys, *argv, "--tsv")
        assert code == 0 and err == ""
        best = out.splitlines()[-1].split("\t")
        assert best[0] == "best" and best[2] == "johnson-schonheim"
        assert len(best[1]) > 4300 and Decimal(best[1]) == js
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == f"best: {best[1]} via johnson-schonheim"

    def test_large_t3_cell_completes(self, capsys):
        code, out, _ = run(capsys, "bounds", "--v", "1000", "--k", "4", "--t", "3", "--tsv")
        assert code == 0
        js = johnson_schonheim(DesignParams(1000, 4, 3, 1)).value
        assert out.splitlines()[-1] == f"best\t{js}\tjohnson-schonheim"


class TestConstruct:
    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "d.json"
        code, out, _ = run(
            capsys, "construct", "--v", "8", "--k", "4", "-o", str(out_path)
        )
        assert code == 0 and "2 blocks" in out
        doc = load_design(out_path)
        assert len(doc.design.blocks) == 2

    def test_stdout_json(self, capsys):
        code, out, _ = run(capsys, "construct", "--v", "6", "--k", "3")
        assert code == 0
        data = json.loads(out)
        assert data["v"] == 6 and len(data["blocks"]) == 4

    def test_not_applicable_exit(self, capsys):
        code, _, err = run(capsys, "construct", "--v", "12", "--k", "3")
        assert code == 2
        assert "error" in err

    def test_oversized_design_is_refused_in_one_line(self, capsys):
        for v, k in (("1000000000000", "500000000000"),
                     ("18446744073709551616", "9223372036854775808")):
            code, out, err = run(capsys, "construct", "--v", v, "--k", k)
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "exceeds the limit of 100,000,000 points" in err


class TestDirectVerify:
    def test_pipeline(self, capsys, tmp_path, twofold_12_7):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        src.write_text(dumps_design(DesignDocument(twofold_12_7, 7, 2, 2)))
        code, out, _ = run(capsys, "direct", "-i", str(src), "-o", str(dst))
        assert code == 0 and "directed 4 blocks" in out
        code, out, _ = run(capsys, "verify", "-i", str(dst))
        assert code == 0
        assert "valid: yes" in out

    def test_verify_reports_diagnostics(self, capsys, tmp_path, pack_6_3):
        src = tmp_path / "d.json"
        src.write_text(dumps_design(DesignDocument(pack_6_3, 3, 2, 1)))
        code, out, _ = run(capsys, "verify", "-i", str(src))
        assert code == 0
        assert "check frequency-cap: pass" in out
        assert "check frequency-spread: pass" in out
        assert "check frequency-sum: pass" in out

    def test_verify_prints_witnesses_past_4300_digits(self, capsys, tmp_path):
        # one block is valid at k = t; its frequency cap C(v-1, t-1) has 11,866 digits
        v, k = 10**7, 3000
        src = tmp_path / "one.json"
        save_design(src, PackingDesign(v, (tuple(range(k)),)), k=k, t=k, lam=1)
        code, out, err = run(capsys, "verify", "-i", str(src))
        assert code == 0 and err == ""
        assert out.startswith("valid: yes\n")
        line = next(x for x in out.splitlines() if x.startswith("check frequency-cap: pass "))
        prefix = "check frequency-cap: pass {'point': 0, 'frequency': 1, 'cap': "
        assert line.startswith(prefix) and line.endswith("}")
        cap = line[len(prefix):-1]
        assert len(cap) > 4300 and Decimal(cap) == math.comb(v - 1, k - 1)

    def test_verify_invalid_design_exits_one(self, capsys, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(
            '{"v": 4, "k": 3, "t": 2, "lambda": 1, "directed": false, '
            '"blocks": [[0, 1, 2], [0, 1, 3]]}'
        )
        code, out, _ = run(capsys, "verify", "-i", str(src))
        assert code == 1
        assert "valid: no" in out
        assert "worst t-set: (0, 1) multiplicity 2 (limit 1)\nheld by blocks: 0, 1\n" in out

    def test_direct_rejects_directed_input(self, capsys, tmp_path, directed_6_4):
        src = tmp_path / "d.json"
        src.write_text(dumps_design(DesignDocument(directed_6_4, 4, 2, 1)))
        code, _, err = run(capsys, "direct", "-i", str(src))
        assert code == 1 and "already directed" in err

    def test_direct_rejects_zero_multiplicity(self, capsys, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(
            '{"v": 4, "k": 3, "t": 2, "lambda": 0, "directed": false, "blocks": [[0, 1, 2]]}'
        )
        code, out, err = run(capsys, "direct", "-i", str(src))
        assert code == 1 and out == ""
        assert err.startswith("error: malformed design file") and err.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "-i", "/nonexistent/x.json")
        assert code == 1 and "error" in err


class TestSolve:
    def test_packing_number(self, capsys):
        code, out, _ = run(capsys, "solve", "--v", "6", "--k", "3", "--t", "2", "--lambda", "1")
        assert code == 0
        assert out.strip() == "PDN = 4 (optimal)"

    def test_directed(self, capsys):
        code, out, _ = run(capsys, "solve", "--v", "6", "--k", "4", "--directed")
        assert code == 0
        assert out.strip() == "DPDN = 4 (optimal)"

    def test_directed_largest_oracle_cell(self, capsys):
        code, out, err = run(capsys, "solve", "--v", "9", "--k", "6", "--directed")
        assert (code, out, err) == (0, "DPDN = 3 (optimal)\n", "")

    def test_directed_budget_exit(self, capsys):
        code, out, err = run(capsys, "solve", "--v", "10", "--k", "6", "--directed", "--budget", "5000")
        assert (code, out, err) == (3, "DPDN = 4 (budget-exhausted lower bound)\n", "")

    def test_budget_exit(self, capsys):
        code, out, _ = run(capsys, "solve", "--v", "9", "--k", "3", "--budget", "5")
        assert code == 3
        assert "budget-exhausted lower bound" in out

    def test_directed_at_any_t_and_lambda(self, capsys):
        cases = [
            (("--v", "5", "--k", "3", "--t", "3"), 0, "DPDN = 60 (optimal)\n"),
            (("--v", "6", "--k", "3", "--lambda", "2"), 0, "DPDN = 20 (optimal)\n"),
            (("--v", "7", "--k", "4", "--t", "3", "--budget", "2000"),
             3, "DPDN = 43 (budget-exhausted lower bound)\n"),
        ]
        for argv, code, out in cases:
            assert run(capsys, "solve", "--directed", *argv) == (code, out, ""), argv

    def test_directed_bad_block_size_is_refused_by_the_params(self, capsys):
        code, out, err = run(capsys, "solve", "--v", "3", "--k", "5", "--directed")
        assert (code, out, err) == (1, "", "error: require v >= k >= t >= 1, got v=3 k=5 t=2\n")

    def test_oversized_pool_is_invalid_input(self, capsys):
        for extra in ((), ("--directed",)):
            code, out, err = run(capsys, "solve", "--v", "30", "--k", "15", *extra)
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and "exceeds the limit of 200,000" in err

    def test_oversized_mask_table_is_invalid_input(self, capsys):
        code, out, err = run(capsys, "solve", "--v", "20", "--k", "10", "--t", "5")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "beyond the limit of 100,000,000" in err

    @pytest.mark.parametrize("budget", [(), ("--budget", "2000")])
    def test_huge_lambda_is_refused_before_its_planes(self, capsys, budget):
        # 10^12 planes of C(6, 2) = 15 bits: once a hang summing them, or a MemoryError
        argv = ("solve", "--v", "6", "--k", "3", "--lambda", "1000000000000")
        code, out, err = run(capsys, *argv, *budget)
        assert (code, out) == (1, "")
        assert err == ("error: search at lambda=1,000,000,000,000 needs 6 point stars of "
                       "1,000,000,000,000 planes of 15 bits, "
                       "beyond the limit of 100,000,000 bits\n")

    @pytest.mark.parametrize("lam", ["20000", "1000000"])
    def test_large_lambda_inside_the_limit_completes(self, capsys, lam):
        # the capacity cut once laid the lam planes side by side one shift at a time:
        # about 5 s at lambda = 20,000, and past a minute at 10^6
        argv = ("solve", "--v", "6", "--k", "3", "--lambda", lam, "--budget", "50")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert (code, out, err) == (3, "PDN = 50 (budget-exhausted lower bound)\n", "")

    def test_directed_masks_are_counted_at_v_to_the_t_bits(self, capsys, monkeypatch):
        # 32,760 ordered blocks times P(15, 3) = 2,730 units passes the limit, but the masks
        # span 15**3 = 3,375 bits each
        def refuse(*args):
            raise AssertionError("drawn past the limit")

        monkeypatch.setattr(solve, "_walk", refuse)
        monkeypatch.setattr(solve, "best_upper_bound", refuse)
        code, out, err = run(capsys, "solve", "--v", "15", "--k", "4", "--t", "3", "--directed")
        assert (code, out) == (1, "")
        assert err == ("error: search pool of 32,760 ordered blocks with masks of 3,375 bits "
                       "needs a mask table beyond the limit of 100,000,000 bits\n")

    def test_huge_pool_is_refused_in_one_line(self, capsys):
        for v, k in (("18446744073709551616", "9223372036854775808"), ("100000", "50000")):
            code, out, err = run(capsys, "solve", "--v", v, "--k", k)
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert f"C({v}, {k}) blocks exceeds the limit of 200,000" in err


class TestExportCode:
    def test_constant_weight(self, capsys, tmp_path, pack_6_3):
        src = tmp_path / "d.json"
        src.write_text(dumps_design(DesignDocument(pack_6_3, 3, 2, 1)))
        code, out, _ = run(capsys, "export-code", "-i", str(src), "--format", "cw")
        assert code == 0
        data = json.loads(out)
        assert data["type"] == "cw" and len(data["words"]) == 4

    def test_indel_with_deletion_check(self, capsys, tmp_path, directed_12_7):
        src = tmp_path / "d.json"
        dst = tmp_path / "c.json"
        src.write_text(dumps_design(DesignDocument(directed_12_7, 7, 2, 1)))
        code, out, _ = run(
            capsys,
            "export-code", "-i", str(src), "--format", "indel",
            "--check-deletions", "5", "-o", str(dst),
        )
        assert code == 0
        assert "deletion check (s=5): pass" in out

    def test_failed_check_exits_one(self, capsys, tmp_path, directed_12_7):
        src = tmp_path / "d.json"
        src.write_text(dumps_design(DesignDocument(directed_12_7, 7, 2, 1)))
        code, out, _ = run(
            capsys,
            "export-code", "-i", str(src), "--format", "indel",
            "--check-deletions", "6",
        )
        assert code == 1
        assert "deletion check (s=6): fail" in out

    def test_bad_deletion_flag_rejected_before_output(
        self, capsys, tmp_path, pack_6_3, directed_12_7
    ):
        cw_src = tmp_path / "cw.json"
        cw_src.write_text(dumps_design(DesignDocument(pack_6_3, 3, 2, 1)))
        indel_src = tmp_path / "indel.json"
        indel_src.write_text(dumps_design(DesignDocument(directed_12_7, 7, 2, 1)))
        dst = tmp_path / "c.json"
        cases = [(cw_src, "cw", "1"), (indel_src, "indel", "8"), (indel_src, "indel", "-1")]
        for src, fmt, s in cases:
            for out_args in ([], ["-o", str(dst)]):
                code, out, err = run(
                    capsys, "export-code", "-i", str(src), "--format", fmt,
                    "--check-deletions", s, *out_args,
                )
                assert code == 1 and "error" in err
                assert out == ""
                assert not dst.exists()

    def test_oversized_constant_weight_code_is_invalid_input(self, capsys, tmp_path):
        src = tmp_path / "d.json"
        src.write_text(
            '{"v": 1000000000, "k": 3, "t": 2, "lambda": 1, "directed": false, '
            '"blocks": [[0, 1, 2], [3, 4, 5]]}'
        )
        code, out, err = run(capsys, "export-code", "-i", str(src), "--format", "cw")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "beyond the limit of 100,000,000" in err

    def test_format_design_mismatch(self, capsys, tmp_path, pack_6_3):
        src = tmp_path / "d.json"
        src.write_text(dumps_design(DesignDocument(pack_6_3, 3, 2, 1)))
        code, _, err = run(capsys, "export-code", "-i", str(src), "--format", "indel")
        assert code == 1 and "directed" in err

    def test_constant_weight_needs_an_unordered_design(self, capsys, tmp_path, directed_6_4):
        src = tmp_path / "d.json"
        src.write_text(dumps_design(DesignDocument(directed_6_4, 4, 2, 1)))
        code, out, err = run(capsys, "export-code", "-i", str(src), "--format", "cw")
        assert (code, out, err) == (1, "", "error: constant-weight export needs an unordered design\n")


class TestTable:
    def test_tsv_matches_library(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--v-min", "6", "--v-max", "10",
            "--k-min", "3", "--k-max", "5", "--tsv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "v\tk\tvalue\tkind\tprovenance"
        for line in lines[1:]:
            v, k, value, kind, provenance = line.split("\t")
            params = DesignParams(int(v), int(k), 2, 1)
            exact = exact_by_theorems(params)
            if kind == "exact":
                assert int(value) == exact.value
                assert provenance in ("exact-window", "exact-threshold")
            else:
                assert exact.value is None
                assert int(value) == best_upper_bound(params).value

    def test_rows_match_the_selection_over_every_candidate(self, capsys):
        # each row is the first exact report of bound_candidates, or else its least bound
        for t in (1, 2, 3, 4):
            for lam in (1, 2, 3, 7):
                code, out, _ = run(
                    capsys,
                    "table", "--v-min", "3", "--v-max", "40", "--k-min", "1", "--k-max", "14",
                    "--t", str(t), "--lambda", str(lam), "--tsv",
                )
                assert code == 0
                rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
                expected = []
                for v in range(3, 41):
                    for k in range(t, min(14, v) + 1):
                        params = DesignParams(v, k, t, lam)
                        reports = bound_candidates(params)
                        best = next((r for r in reports if r.exact), None)
                        best = best or least_bound(params, reports)
                        kind = "exact" if best.exact else "upper"
                        expected.append([str(v), str(k), str(best.value), kind, best.provenance])
                assert rows == expected, (t, lam)

    def test_exact_cells_match_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--v-min", "6", "--v-max", "9",
            "--k-min", "4", "--k-max", "4", "--tsv",
        )
        for line in out.strip().splitlines()[1:]:
            v, k, value, kind, _ = line.split("\t")
            if kind == "exact":
                assert pdn_exact(DesignParams(int(v), int(k), 2, 1)).n == int(value)

    def test_rows_print_as_each_cell_is_computed(self, capsys, monkeypatch):
        # a failure at the last cell leaves the rows before it on stdout
        exact = packings.bounds.exact_by_theorems

        def fail_last(params):
            if (params.v, params.k) == (8, 4):
                raise ValueError("the last cell failed")
            return exact(params)

        monkeypatch.setattr(packings.bounds, "exact_by_theorems", fail_last)
        code, out, err = run(
            capsys, "table", "--v-min", "6", "--v-max", "8", "--k-min", "3", "--k-max", "4", "--tsv"
        )
        assert code == 1 and err == "error: the last cell failed\n"
        lines = out.splitlines()
        assert lines[0] == "v\tk\tvalue\tkind\tprovenance"
        assert [line.split("\t")[:2] for line in lines[1:]] == [
            ["6", "3"], ["6", "4"], ["7", "3"], ["7", "4"], ["8", "3"]
        ]

    @pytest.mark.parametrize("tsv", [(), ("--tsv",)])
    @pytest.mark.parametrize("bad", [("--t", "0"), ("--lambda", "0")])
    def test_bad_t_or_lambda_prints_nothing(self, capsys, tsv, bad):
        argv = ["table", "--v-min", "6", "--v-max", "8", "--k-min", "3", "--k-max", "4"]
        code, out, err = run(capsys, *argv, *bad, *tsv)
        assert (code, out) == (1, "")
        assert err.startswith("error: require") and err.count("\n") == 1

    def test_t_one_gives_an_upper_row_per_cell(self, capsys):
        code, out, _ = run(
            capsys,
            "table", "--v-min", "3", "--v-max", "9",
            "--k-min", "2", "--k-max", "4", "--t", "1", "--lambda", "2", "--tsv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        cells = [(v, k) for v in range(3, 10) for k in range(2, min(4, v) + 1)]
        assert len(lines) - 1 == len(cells)
        for line, (v, k) in zip(lines[1:], cells):
            best = best_upper_bound(DesignParams(v, k, 1, 2))
            assert line.split("\t") == [str(v), str(k), str(best.value), "upper", best.provenance]


class TestOutputIsStdout:
    """``-o`` naming the file that stdout is redirected to writes the document once."""

    @staticmethod
    def argv(command, tmp_path, twofold_12_7, directed_12_7):
        if command == "construct":
            return ["construct", "--v", "8", "--k", "4"]
        source = tmp_path / "source.json"
        if command == "direct":
            save_design(source, twofold_12_7, k=7, t=2, lam=2)
            return ["direct", "-i", str(source)]
        save_design(source, directed_12_7, k=7)
        return ["export-code", "-i", str(source), "--format", "indel"]

    @staticmethod
    def run_into(stdout, *argv):
        env = {**os.environ, "PYTHONPATH": str(Path(packings.__file__).parents[1])}
        return subprocess.run(
            [sys.executable, "-m", "packings", *argv], stdout=stdout, stderr=subprocess.PIPE,
            text=True, env=env,
        )

    @pytest.mark.parametrize("command", ["construct", "direct", "export-code"])
    def test_a_redirected_stdout_gets_the_document_alone(
        self, command, capsys, tmp_path, twofold_12_7, directed_12_7
    ):
        argv = self.argv(command, tmp_path, twofold_12_7, directed_12_7)
        assert main(argv) == 0
        text = capsys.readouterr().out
        target = tmp_path / "f.json"
        with open(target, "w") as out:
            proc = self.run_into(out, *argv, "-o", "/dev/stdout")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert target.read_text(encoding="utf-8") == text
        if command == "construct":
            assert main(["verify", "-i", str(target)]) == 0

    def test_an_appended_stdout_gets_the_document_after_its_text(self, capsys, tmp_path):
        text = run(capsys, "construct", "--v", "8", "--k", "4")[1]
        target = tmp_path / "f.json"
        target.write_text("before\n")
        with open(target, "a") as out:
            proc = self.run_into(out, "construct", "--v", "8", "--k", "4", "-o", "/dev/stdout")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert target.read_text(encoding="utf-8") == "before\n" + text

    def test_a_pipe_gets_the_document_then_the_summary(self, capsys):
        text = run(capsys, "construct", "--v", "8", "--k", "4")[1]
        argv = ["construct", "--v", "8", "--k", "4", "-o", "/dev/stdout"]
        proc = self.run_into(subprocess.PIPE, *argv)
        assert proc.returncode == 0
        assert proc.stdout == text + "constructed 2 blocks via exact-window -> /dev/stdout\n"


_COMMANDS = sorted(cli._PARSER.commands)


@st.composite
def _argvs(draw, inputs, outputs):
    """An argv for one of the seven commands, or for an unknown command or none.

    Numbers are ints with v, k <= 30 and t, lambda <= 4; one in twenty is junk,
    such as "x" or 0.  One option in twenty is dropped, and one argv in ten
    gains an unknown option.  A solve always gets a node budget of at most 300,
    and three in four of at most 20, as a node can take milliseconds at v = 30.
    """

    def chance(odds):
        return draw(st.integers(1, odds)) == 1

    def number(x):
        return draw(st.sampled_from(["x", "", "2.5", "0", "-1"])) if chance(20) else str(x)

    def cell():
        """--v, --k, --t and --lambda; three cells in four have v >= k >= t."""
        v, k = draw(st.integers(-1, 30)), draw(st.integers(-1, 30))
        t, lam = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        if not chance(4):
            v, k = max(v, k, t), max(min(v, k), t)
        return [("--v", number(v)), ("--k", number(k)), ("--t", number(t)),
                ("--lambda", number(lam))]

    if chance(10):
        command = draw(st.sampled_from(["bogus", "--v", ""]))
    else:
        command = draw(st.sampled_from(_COMMANDS))
    known = command in _COMMANDS
    options = []
    if command in ("bounds", "construct", "solve") or not known:
        options += cell()
    if command in ("direct", "verify", "export-code"):  # the two valid designs half the time
        options.append(("-i", draw(st.sampled_from(inputs[:2] if chance(2) else inputs))))
    if command in ("construct", "direct", "export-code") or not known:
        options.append(("-o", draw(st.sampled_from(outputs))))
    if command in ("bounds", "solve") and chance(2):
        options.append(("--directed", None))
    if command in ("bounds", "table") and chance(2):
        options.append(("--tsv", None))
    if command == "export-code":
        options.append(("--format", draw(st.sampled_from(["cw", "indel", "x"]))))
        if chance(2):
            options.append(("--check-deletions", number(draw(st.integers(-1, 4)))))
    if command == "table":
        for name in ("--v-min", "--v-max", "--k-min", "--k-max"):
            options.append((name, number(draw(st.integers(-1, 30)))))
        for name in ("--t", "--lambda"):
            options.append((name, number(draw(st.integers(1, 4)))))
    options = [opt for opt in options if not chance(20)]
    if command == "solve":
        options.append(("--budget", str(draw(st.integers(1, 300 if chance(4) else 20)))))
    if chance(10):
        options.append(draw(st.sampled_from([("--bogus", None), ("-z", "1"), ("--v", "3")])))
    argv = [command] if command else []
    for name, value in draw(st.permutations(options)):
        argv += [name] if value is None else [name, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """(input paths, the two valid designs first; output paths) for the fuzzed argvs."""
    root = tmp_path_factory.mktemp("fuzz")
    twofold, _ = packings.construct_optimal(DesignParams(12, 7, 2, 2))
    save_design(root / "twofold.json", twofold, k=7, t=2, lam=2)
    save_design(root / "directed.json", packings.direct_packing(twofold), k=7)
    save_design(root / "invalid.json", PackingDesign(6, [[0, 1, 2], [0, 1, 3]]), k=3)
    texts = {
        "truncated.json": "{",
        "list.json": "[]",
        "empty.json": "{}",
        "str_point.json": '{"v": 4, "k": 2, "t": 2, "lambda": 1, "directed": false, '
                          '"blocks": [[0, "1"]]}',
        "out_of_range.json": '{"v": 4, "k": 2, "t": 2, "lambda": 1, "directed": false, '
                             '"blocks": [[0, 9]]}',
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    (root / "latin1.json").write_bytes(b"\xff{}")
    inputs = [str(root / "twofold.json"), str(root / "directed.json")]
    inputs += sorted(set(map(str, root.iterdir())) - set(inputs))
    inputs += [str(root / "missing.json"), str(root)]
    outputs = [str(root / "new.json"), str(root / "missing" / "x.json"), os.devnull, str(root)]
    return inputs, outputs


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_argvs_exit_with_a_code_and_at_most_one_error_line(data, fuzz_files):
    # an invalid design (verify) and a spent budget (solve) report on stdout by design;
    # -h/--help is left out, as argparse prints the help and raises SystemExit(0)
    argv = data.draw(_argvs(*fuzz_files), label="argv")
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), lines
