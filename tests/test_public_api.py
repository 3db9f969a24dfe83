"""The package holds only what its own code runs.

Every name in ``logifpt.__all__``, and every public (not underscored)
module-level function and class of ``src/logifpt/*.py``, must be referenced,
outside its own definition, by the library (``src/``, apart from the
``__init__`` that exports names), ``scripts/`` or ``perfbench/``: as a name,
an attribute, an imported name, or a string such as the benchmark's trace
list.  Code that only tests reach belongs in ``tests/oracles.py``.

Likewise every defaulted parameter of a public function or method there
must be passed by some call in those files: by keyword, by position, or
through ``*args`` or ``**kwargs``.  A call counts by the name it calls, as
a name or an attribute, whatever object it is called on.
"""

import ast
import math
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


def _defaulted_parameters() -> list:
    """(function, parameter, index) of every parameter with a default of a
    public function, or a public method of a public class; index is the
    parameter's position in a call (after self or cls), None if keyword-only."""
    found = []
    for path in sorted((ROOT / "src" / "logifpt").glob("*.py")):
        body = ast.parse(path.read_text(), filename=str(path)).body
        defs = [(None, node) for node in body]
        defs += [(cls.name, node) for cls in body
                 if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                 for node in cls.body]
        for owner, node in defs:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or node.name.startswith("_")):
                continue
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args]
            bound = owner is not None and not any(
                isinstance(dec, ast.Name) and dec.id == "staticmethod"
                for dec in node.decorator_list)
            first = len(names) - len(args.defaults)
            named = [(name, i - bound) for i, name in enumerate(names[first:], first)]
            named += [(a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
            label = ".".join(filter(None, (path.stem, owner, node.name)))
            found += [pytest.param(node.name, name, index, id=f"{label}.{name}")
                      for name, index in named]
    return found


def _passed() -> tuple:
    """Per called name: the keywords passed to it, and the most positional
    arguments passed to it, infinite for a call with ``*`` or ``**``."""
    keywords, positional = {}, {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            spread = (any(isinstance(a, ast.Starred) for a in node.args)
                      or any(k.arg is None for k in node.keywords))
            count = math.inf if spread else len(node.args)
            positional[name] = max(positional.get(name, 0), count)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return keywords, positional


PASSED = _passed()


@pytest.mark.parametrize("function, parameter, index", _defaulted_parameters())
def test_defaulted_parameter_is_passed_outside_the_tests(function, parameter, index):
    keywords, positional = PASSED
    assert (parameter in keywords.get(function, ())
            or (index is not None and positional.get(function, 0) > index)
            or positional.get(function, 0) == math.inf), (
        f"no call outside the tests passes {parameter} to {function}; drop the parameter "
        "or move the variant to tests/oracles.py")
