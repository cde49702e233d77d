"""Repository rules that are checked on the source itself."""

import ast
import shlex
from inspect import ismodule
from pathlib import Path

import packings
from packings.cli import main


def test_no_assert_statements_in_the_package():
    # invariants must be explicit checks: `python -O` strips assert statements
    found = []
    for path in sorted(Path(packings.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_public_api_is_pinned():
    # a name leaves the package only on purpose: removing one means editing this set
    exported = {
        name for name, obj in vars(packings).items() if not name.startswith("_") and not ismodule(obj)
    }
    assert exported == {
        "BoundReport", "NotApplicableError", "best_upper_bound", "exact_by_theorems",
        "exact_dpdn_by_theorem", "exact_family", "gen_second_johnson_bound",
        "gen_second_johnson_feasible", "hanani_b", "horsley_bound_1", "horsley_bound_2",
        "johnson_schonheim", "second_johnson",
        "ConstantWeightCode", "IndelCode", "add_constant_words", "deletion_channel_check",
        "lcs_length", "max_pairwise_lcs", "min_hamming_distance", "to_constant_weight",
        "to_indel_code",
        "balanced_packing", "construct_optimal", "general_construction",
        "DesignParams", "DirectedPackingDesign", "PackingDesign", "StructuralError",
        "ValidationReport", "is_subsequence", "structural_diagnostics", "underlying_design",
        "validate_directed", "validate_packing",
        "DirectingError", "direct_packing", "insert_point",
        "DesignDocument", "load_code", "load_design", "save_code", "save_design",
        "SearchConfig", "SearchResult", "certify_optimal", "dpdn_exact", "pdn_exact",
    }


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every `packings ...` line of the README's CLI block, in order, in one directory
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("packings ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = shlex.split(command)[1:]
        assert main(argv) == 0, (command, capsys.readouterr().err)
