"""Every module of the package except ``__init__`` and every module of the
tests uses each name it imports (``__init__`` re-exports names, so it is
left out), and no module of the package has an ``assert`` statement:
``python -O`` strips them, so a check the package relies on raises a typed
error instead."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "nladmm"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# Test modules are keyed "tests/<name>", package modules by their bare name.
SOURCES = {**{name: PACKAGE / name for name in MODULES},
           **{f"tests/{p.name}": p for p in TESTS.glob("*.py")}}


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        for ann in annotations:
            # A string annotation such as "RhoSchedule" names its types too.
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                expr = ast.parse(ann.value, mode="eval")
                names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def test_modules_found():
    assert "engine.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_unused_imports(module):
    tree = ast.parse(SOURCES[module].read_text(encoding="utf-8"))
    unused = sorted(set(_imported(tree)) - _used(tree))
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
