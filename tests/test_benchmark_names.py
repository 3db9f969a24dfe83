"""Every name the benchmark in ``perfbench/`` reads from logifpt must exist.

A traced benchmark run wraps the functions in ``perfbench/spans.TRACED`` and
counts ``KernelTable.__init__``; the ``mle`` workload reads
``inference.DEFAULT_BOUNDS`` and ``inference.PENALTY``; and the set-ups
import names such as ``fpt_cumulants`` from the package.  Removing or
renaming one of them fails here, not only in a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


NAMES = [*_traced(), ("kernels", "KernelTable.__init__"),
         ("inference", "DEFAULT_BOUNDS"), ("inference", "PENALTY")]


@pytest.mark.parametrize("layer, attr", NAMES)
def test_benchmark_name_resolves(layer, attr):
    owner = importlib.import_module(f"logifpt.{layer}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the tracer reads a method from its class's own namespace
    assert name in vars(owner), f"logifpt.{layer}.{attr} is gone"


def _imports():
    """(module, name) of every ``from logifpt... import name`` in perfbench/."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "logifpt":
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("module, name", _imports())
def test_benchmark_import_resolves(module, name):
    owner = importlib.import_module(module)
    # `from package import submodule` imports the submodule when it is not an attribute yet
    assert hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}"), \
        f"perfbench imports {name} from {module}, which has no such name"
