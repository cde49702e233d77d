"""Repository rules that are checked on the source itself."""

import ast
import shlex
import subprocess
import sys
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


def test_every_module_level_import_is_used():
    # a name a module imports and never reads is dead weight; `__init__` imports to re-export
    found = []
    for path in sorted(Path(packings.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in imports:
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


def test_the_package_imports_only_the_standard_library():
    # stdlib-only at runtime: every absolute import names a standard-library module
    found = []
    for path in sorted(Path(packings.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, found


def test_importing_the_cli_loads_no_heavy_standard_modules():
    # value types are plain classes, and Fraction and Decimal are imported where they are built,
    # so a fresh process loads none of these; no timing is asserted
    heavy = ("dataclasses", "inspect", "fractions", "decimal")
    src = str(Path(packings.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import packings.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "packings.cli" in loaded
    assert loaded.isdisjoint(heavy), sorted(loaded.intersection(heavy))
