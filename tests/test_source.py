"""Static checks over the package source."""

import ast
import pathlib
import sys

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


def _absolute_imports():
    """(file name, line, module) for every absolute import in the package;
    relative imports (level > 0) are the package's own modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name


def test_package_imports_only_the_standard_library():
    # the runtime package stays standard-library only
    found = [
        f"{file}:{line} {name}"
        for file, line, name in _absolute_imports()
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert found == []


def test_export_list_resolves_sorted_and_without_duplicates():
    # a deleted function cannot stay behind as a dangling export
    names = projarr.__all__
    assert [name for name in names if not hasattr(projarr, name)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_only_input_and_subspace_modules_import_fractions():
    # subspace bases are integer rows; rationals are formed only when
    # parsing input (arrangement.py) and in the rational view (linalg.py)
    found = {file for file, _, name in _absolute_imports() if name.split(".")[0] == "fractions"}
    assert found == {"arrangement.py", "linalg.py"}
