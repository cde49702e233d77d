import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

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
from packings.cli import main
from packings.io import dumps_design, load_design
from packings.io import DesignDocument

from conftest import linear_first_infeasible


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_alone(*argv):
    """Exit code, stdout and stderr of the command line in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(packings.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "packings", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_keeps_no_state_between_calls(capsys):
    calls = [
        ("bounds", "--v", "12", "--k", "7", "--directed"),
        ("bounds", "--v", "x"),
        ("bounds", "--v", "12", "--k", "7"),
    ]
    for argv in calls:
        assert run(capsys, *argv) == run_alone(*argv), argv


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

    def test_directed_requires_pair_settings(self, capsys):
        code, _, err = run(
            capsys, "solve", "--v", "6", "--k", "4", "--directed", "--lambda", "2"
        )
        assert code == 1 and "directed solving" in err

    def test_oversized_pool_is_invalid_input(self, capsys):
        for extra in ((), ("--directed",)):
            code, out, err = run(capsys, "solve", "--v", "30", "--k", "15", *extra)
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and "exceeds the limit of 200,000" in err

    def test_oversized_mask_table_is_invalid_input(self, capsys):
        code, out, err = run(capsys, "solve", "--v", "20", "--k", "10", "--t", "5")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "beyond the limit of 100,000,000" in err

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
