"""Repository rules that are checked on the source itself."""

import ast
from pathlib import Path

import packings


def test_no_assert_statements_in_the_package():
    # invariants must be explicit checks: `python -O` strips assert statements
    found = []
    for path in sorted(Path(packings.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
