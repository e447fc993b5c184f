"""Static checks over the package source."""

import ast
import pathlib

import projarr

PACKAGE = pathlib.Path(projarr.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so every runtime check must raise instead
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 1
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
