"""The package holds only what its own code runs.

Every name in ``logifpt.__all__``, and every public (not underscored)
module-level function and class of ``src/logifpt/*.py``, must be referenced,
outside its own definition, by the library (``src/``, apart from the
``__init__`` that exports names), ``scripts/`` or ``perfbench/``: as a name,
an attribute, an imported name, or a string such as the benchmark's trace
list.  Code that only tests reach belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import pytest

import logifpt

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [p for p in sorted((ROOT / "src" / "logifpt").glob("*.py")) if p.name != "__init__.py"]
SOURCES += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


class _References(ast.NodeVisitor):
    """Names referenced in a module, each outside the definitions of that name."""

    def __init__(self):
        self.found = set()
        self._inside = []

    def _visit_definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_definition

    def _add(self, name):
        if name not in self._inside:
            self.found.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._add(node.name.rsplit(".", 1)[-1])

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self._add(node.value)


def _referenced() -> set:
    refs = _References()
    for path in SOURCES:
        refs.visit(ast.parse(path.read_text(), filename=str(path)))
    return refs.found


REFERENCED = _referenced()


def _public_definitions() -> list:
    """(module, name) of every public module-level function and class."""
    found = []
    for path in sorted((ROOT / "src" / "logifpt").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found.append(pytest.param(path.stem, node.name,
                                          id=f"{path.stem}.{node.name}"))
    return found


@pytest.mark.parametrize("name", logifpt.__all__)
def test_exported_name_is_run_outside_the_tests(name):
    assert name in REFERENCED, (
        f"logifpt.{name} is exported but only tests reach it; move it to tests/oracles.py")


@pytest.mark.parametrize("module, name", _public_definitions())
def test_public_definition_is_run_outside_the_tests(module, name):
    assert name in REFERENCED, (
        f"logifpt.{module}.{name} is defined but only tests reach it; "
        "move it to tests/oracles.py")
