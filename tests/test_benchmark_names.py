"""Every name the benchmark in ``perfbench/`` reads from logifpt must exist.

A traced benchmark run wraps the functions in ``perfbench/spans.TRACED`` and
counts ``KernelTable.__init__``; the ``mle`` workload reads
``inference.DEFAULT_BOUNDS`` and ``inference.PENALTY``.  Removing or renaming
one of them fails here, not only in a benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
