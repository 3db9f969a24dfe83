"""Timing in reference seconds, so that a shared host's drifting speed cancels.

On a shared host the speed of the whole machine drifts, by up to 1.8x and
from under a second to minutes at a time; an op slows by the factor in force
while it runs.  While a block of code runs under ``ReferenceClock.block``, a
SIGPROF handler times ``probe_kernel_s`` (fixed interpreter work that does not
touch logifpt) every PROBE_PERIOD_S of CPU time, and two probes run on each
side of the block.  The block's seconds, less the probes' own, are scaled by
REFERENCE_S over the mean probe time.  A change to logifpt moves the scaled
time in full, since the probes do not run its code; a change in machine speed
moves the probes as well and cancels.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

PROBE_ITERATIONS = 5000
PROBE_PERIOD_S = 0.025
# probe_kernel_s() on an idle 2-vCPU Intel Xeon (2.1 GHz) with Python 3.11.7.
REFERENCE_S = 0.001


def probe_kernel_s() -> float:
    """Seconds taken by fixed integer, float and dict work (about 1 ms)."""
    start = time.perf_counter()
    acc, x, table = 0, 1.0, {}
    for i in range(1, PROBE_ITERATIONS + 1):
        acc = (acc * 31 + i * i) % 1000003
        x = x * 0.9999999 + 0.5 / i
        table[i & 1023] = acc
    return time.perf_counter() - start


class Block:
    """What ``ReferenceClock.block`` measured."""

    raw_s = 0.0      # seconds of the block, less the probes run inside it
    scale = 1.0      # reference seconds per raw second
    probes = 0

    @property
    def seconds(self) -> float:
        return self.raw_s * self.scale


class ReferenceClock:
    """Measures blocks of code in reference seconds.

    ``now`` is a clock that stands still while a probe runs; spans taken
    with it inside a block leave the probes out, as the block's time does.
    Blocks do not nest: there is one profiling timer per process.  The
    SIGPROF handler stays installed, and ignores a signal that arrives after
    a block has ended, so a late signal never meets the default action,
    which ends the process.
    """

    def __init__(self):
        self.spent = 0.0
        self._samples = None
        signal.signal(signal.SIGPROF, self._probe)

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def _probe(self, signum, frame):
        if self._samples is None:
            return
        start = time.perf_counter()
        self._samples.append(probe_kernel_s())
        self.spent += time.perf_counter() - start

    @contextlib.contextmanager
    def block(self):
        if self._samples is not None:
            raise RuntimeError("ReferenceClock blocks do not nest")
        out = Block()
        self._samples = [probe_kernel_s(), probe_kernel_s()]
        start = self.now()
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield out
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            out.raw_s = self.now() - start
            samples, self._samples = self._samples, None
            samples += [probe_kernel_s(), probe_kernel_s()]
            out.probes = len(samples)
            out.scale = REFERENCE_S / statistics.fmean(samples)
