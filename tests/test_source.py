"""Rules the package's source keeps as a whole."""

import ast
from pathlib import Path

import kwlab


def test_no_assert_statements():
    # contracts are explicit checks that raise; `python -O` strips an assert
    found = []
    for path in sorted(Path(kwlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
