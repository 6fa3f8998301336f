"""The package runs on the Python standard library alone."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ncdef"


def _absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {
        (path.name, name)
        for path in files
        for name in _absolute_imports(path)
        if name.split(".")[0] != "ncdef"
        and name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not foreign
