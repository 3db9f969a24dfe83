"""Self times of library functions, by stage, for the profiling scripts.

    with stage_timer([("rows", KernelTable, "_m_next"),
                      ("l-sums", kernels, "_l_sums")]) as (seconds, calls):
        log_likelihood(theta, sample, cfg)

Each (stage, owner, name) triple names a function by the module or class
that holds it; it is read from ``vars(owner)``, so a name the library no
longer has raises KeyError before anything is swapped.  For the duration of
the block each function is replaced by a wrapper that counts its calls in
``calls[stage]`` and adds its self time to ``seconds[stage]``: the call's
time.perf_counter span less the spans of the wrapped calls made inside it.
Several triples may share a stage.  On exit, normal or not, every original
is put back.
"""

import functools
import time
from contextlib import contextmanager


@contextmanager
def stage_timer(targets):
    seconds = {stage: 0.0 for stage, _, _ in targets}
    calls = dict.fromkeys(seconds, 0)
    nested = []  # per wrapped call running, the spans of the wrapped calls inside it
    originals = [(owner, name, vars(owner)[name]) for _, owner, name in targets]

    def wrap(stage, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            nested.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                seconds[stage] += span - nested.pop()
                calls[stage] += 1
                if nested:
                    nested[-1] += span

        return timed

    try:
        for (stage, _, _), (owner, name, fn) in zip(targets, originals):
            setattr(owner, name, wrap(stage, fn))
        yield seconds, calls
    finally:
        for owner, name, fn in originals:
            setattr(owner, name, fn)
