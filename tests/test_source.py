"""Rules the package's source keeps as a whole."""

import ast
import re
from pathlib import Path

import kwlab
from kwlab import cli


def test_no_assert_statements():
    # contracts are explicit checks that raise; `python -O` strips an assert
    found = []
    for path in sorted(Path(kwlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_every_config_key_is_read():
    # a key whose typed value nothing reads is a setting that changes
    # nothing; single_thread stays accepted for configs that pass it
    path = Path(cli.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)}
    assert set(cli.KEYS) - read == {"single_thread"}


def test_readme_names_every_config_key():
    # the README's key list is written by hand; it must name every key of the
    # one key table and no key the table has dropped
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    sentence = re.search(r"Keys: (.*?)\.\s", readme, re.DOTALL).group(1)
    assert set(re.findall(r"`([^`]+)`", sentence)) == set(cli.KEYS)
