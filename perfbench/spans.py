"""Layer spans for the traced run, recorded from outside the program.

While a traced operation runs, each public function listed in ``TRACED`` is
replaced, in every ``logifpt`` module namespace that holds it, by a wrapper
that records a span (name, start, end, parent span, op id).  Calls that the
program makes through a module global (``analytics.t_series``,
``kernels.l_series``, ``inference.log_likelihood``, ...) therefore reach the
wrapper too.  Nothing under ``src/`` is changed: the originals are put back
after every op.  Spans stay in memory and are written out once, at the end.

A span's self time is its duration minus the time its child spans cover;
summed over an op, self times add up to the root span, ``cli.main``.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (layer, attribute of logifpt.<layer>); a dotted attribute names a method.
TRACED = (
    ("model", "derive_params"),
    ("series", "log_polynomials"),
    ("kernels", "t_series"),
    ("kernels", "l_series"),
    ("kernels", "q_series"),
    ("kernels", "lbar_series"),
    ("analytics", "fpt_moments"),
    ("analytics", "fpt_cumulants"),
    ("laguerre", "build_approximant"),
    ("laguerre", "select_order"),
    ("laguerre", "laguerre_coeffs"),
    ("laguerre", "LaguerreApproximant.density"),
    ("montecarlo", "sample_fpt"),
    ("montecarlo", "kde"),
    ("montecarlo", "write_samples_csv"),
    ("montecarlo", "read_samples_csv"),
    ("inference", "log_likelihood"),
    ("inference", "mle_fit"),
    ("cli", "main"),
)
LAYERS = ("model", "series", "kernels", "analytics", "laguerre", "montecarlo",
          "inference", "cli")


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, attr in TRACED:
        name = span_name(layer, attr)
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
    units.update({
        "kernels.tables_built": "tables/op",
        "laguerre.clipped": "approximants/op",
        "montecarlo.path_steps": "steps/op",
        "montecarlo.path_steps_per_s": "steps/s",
        "montecarlo.censored": "paths/op",
        "inference.log_likelihood.p50_s": "s",
        "inference.penalties": "returns/op",
        "inference.nfev": "evals/op",
    })
    for layer in LAYERS:
        units[f"{layer}.self_pct"] = "%"
    units.update({
        "trace.overhead_s": "s/op",
        "trace.overhead_pct": "%",
        "trace.self_sum_pct": "%",
    })
    return units


def _on_sample(tracer, sample, args, kwargs):
    # Steps each path took, recovered from its crossing time; censored paths
    # ran to the horizon.
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    steps = float(np.ceil(sample.times / cfg.dt).sum())
    steps += sample.censored * math.ceil(cfg.horizon / cfg.dt)
    tracer.counts["montecarlo.path_steps"] += steps
    tracer.counts["montecarlo.censored"] += sample.censored


def _on_approximant(tracer, apx, args, kwargs):
    tracer.counts["laguerre.clipped"] += bool(apx.clip_applied)


def _on_likelihood(tracer, value, args, kwargs):
    from logifpt.inference import PENALTY

    tracer.counts["inference.penalties"] += value == PENALTY


def _on_fit(tracer, result, args, kwargs):
    tracer.counts["inference.nfev"] += result.n_evals


HOOKS = {
    "montecarlo.sample_fpt": _on_sample,
    "laguerre.build_approximant": _on_approximant,
    "inference.log_likelihood": _on_likelihood,
    "inference.mle_fit": _on_fit,
}


class Tracer:
    """Wraps the traced functions for the duration of a ``with`` block.

    Span times come from ``now``, a clock that the benchmark can stop while
    it measures the machine's speed inside an op.
    """

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.spans = []          # [name, start, end, parent index or None, op id]
        self.counts = defaultdict(float)
        self.op = None
        self._stack = []
        self._patches = []       # (owner, attribute, original, wrapper)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "logifpt" or n.startswith("logifpt.")]
        for layer, attr in TRACED:
            mod = importlib.import_module(f"logifpt.{layer}")
            name = span_name(layer, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._patches.append((owner, meth, orig, self._span(name, orig)))
                continue
            orig = getattr(mod, attr)
            wrapper = self._span(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig, wrapper))
        table_cls = importlib.import_module("logifpt.kernels").KernelTable
        self._patches.append((table_cls, "__init__", table_cls.__init__,
                              self._count("kernels.tables_built", table_cls.__init__)))

    def _span(self, name, fn):
        spans, stack, hook, now = self.spans, self._stack, HOOKS.get(name), self.now

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans[index] = [name, start, end, parent, self.op]
            if hook:
                hook(self, result, args, kwargs)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, orig, _ in self._patches:
            setattr(owner, key, orig)
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def metrics(self, op_scale, traced_s: float, untraced_s: float) -> dict:
        """Per-op calls and self times, counters, and the tracing overhead.

        ``op_scale[i]`` converts op i's raw seconds to reference seconds;
        ``traced_s`` and ``untraced_s`` are the summed reference seconds of
        the same inputs run with and without tracing.
        """
        ops = len(op_scale)
        dur = np.array([(end - start) * op_scale[op] for _, start, end, _, op in self.spans])
        child = np.zeros(len(dur))
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                child[parent] += dur[i]
        self_t = dur - child
        calls = defaultdict(int)
        self_s = defaultdict(float)
        likelihood = []
        for i, (name, *_rest) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += self_t[i]
            if name == "inference.log_likelihood":
                likelihood.append(dur[i])
        out = {}
        for layer, attr in TRACED:
            name = span_name(layer, attr)
            out[f"{name}.calls"] = calls[name] / ops
            out[f"{name}.self_s"] = self_s[name] / ops
        for key in ("kernels.tables_built", "laguerre.clipped", "montecarlo.path_steps",
                    "montecarlo.censored", "inference.penalties", "inference.nfev"):
            out[key] = self.counts[key] / ops
        sim_s = sum(dur[i] for i, s in enumerate(self.spans) if s[0] == "montecarlo.sample_fpt")
        out["montecarlo.path_steps_per_s"] = (
            self.counts["montecarlo.path_steps"] / sim_s if sim_s else 0.0)
        out["inference.log_likelihood.p50_s"] = (
            float(np.median(likelihood)) if likelihood else 0.0)
        for layer in LAYERS:
            share = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_pct"] = 100.0 * share / traced_s
        out["trace.overhead_s"] = (traced_s - untraced_s) / ops
        out["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
        out["trace.self_sum_pct"] = 100.0 * float(self_t.sum()) / traced_s
        return out
