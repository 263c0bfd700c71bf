"""Every module of the package and of the tests uses each name it imports
(the package re-exports nothing, so ``__init__`` is held to this too), and
no module of the package has an ``assert`` statement:
``python -O`` strips them, so a check the package relies on raises a typed
error instead. Every function and class of ``tests/helpers.py`` serves
some test."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "nladmm"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
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
    assert {"__init__.py", "engine.py", "cli.py"} <= set(MODULES)


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


def test_every_helper_is_used():
    """Each top-level function and class of ``tests/helpers.py`` is used by a
    test module, or by a helper that is: a test deleted with its oracle
    left behind fails here."""
    tree = ast.parse((TESTS / "helpers.py").read_text(encoding="utf-8"))
    defs = {node.name: _used(node) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    tests = set().union(*(_used(ast.parse(path.read_text(encoding="utf-8")))
                          for path in TESTS.glob("test_*.py")))
    reached, frontier = set(), set(defs) & tests
    while frontier:
        reached |= frontier
        frontier = set().union(*(defs[name] for name in frontier)) & set(defs) - reached
    assert not set(defs) - reached, f"helpers no test uses: {sorted(set(defs) - reached)}"
