#!/usr/bin/env python3
"""Per-stage wall times of one simulator chunk, in ns per path-step.

Runs full chunks of ``montecarlo._CHUNK`` steps over ``--paths`` fisheries
paths (x0 = 100 up to U = 1e4, sigma 0.2, r 0.71, dt 1e-3) stage by stage,
as ``montecarlo.sample_fpt`` runs them on its time-major buffer:

    draws      each path's Philox normals into the staging block, copied
               into the buffer's columns
    noise      the chunk-wide noise factor, in place
    steps      the drift sub-flow per row, times that row's noise factor,
               written over the row
    scan       the crossing scan over row blocks

Each stage is timed alone with time.perf_counter; the median over the
chunks is printed per stage.  Example:

    python scripts/profile_simulator.py --paths 2048 --chunks 9
"""

import argparse
import statistics
import sys
import time

import numpy as np

from logifpt import ModelParams, derive_params, montecarlo, step_constants

FISHERIES = dict(r=0.71, K=8.05e7, q=3.30e-6, E=104540.0, sigma=0.2, x0=100.0)
THRESHOLD = 1e4
DT = 1e-3
STAGES = ("draws", "noise", "steps", "scan")


def chunk(gens, x, consts, buffers) -> dict:
    """Seconds per stage of one chunk of len(buf) steps from states x."""
    buf, stage, mask, drift, tmp = buffers
    K1, grow, gm1, drift_corr, vol = consts
    times = {}
    start = time.perf_counter()
    montecarlo._draw_normals(gens, buf, stage)
    times["draws"] = time.perf_counter() - start
    start = time.perf_counter()
    montecarlo._noise_factor(buf, drift_corr, vol)
    times["noise"] = time.perf_counter() - start
    start = time.perf_counter()
    montecarlo._step_rows(buf, x, (K1, grow, gm1), drift, tmp)
    times["steps"] = time.perf_counter() - start
    start = time.perf_counter()
    montecarlo._first_crossings(buf, np.greater, THRESHOLD, mask)
    times["scan"] = time.perf_counter() - start
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--paths", type=int, default=2048, help="paths per chunk")
    ap.add_argument("--chunks", type=int, default=9, help="chunks to time")
    ap.add_argument("--seed", type=int, default=3, help="seed of the paths' streams")
    args = ap.parse_args(argv)
    if args.paths < 1 or args.chunks < 1:
        ap.error("--paths and --chunks must be >= 1")

    d = derive_params(ModelParams(**FISHERIES))
    consts = step_constants(d, DT)
    steps, n = montecarlo._CHUNK, args.paths
    buffers = (np.empty((steps, n)), np.empty((min(montecarlo._STAGE, n), steps)),
               np.empty((montecarlo._SCAN, n), dtype=bool), np.empty(n), np.empty(n))
    gens = montecarlo._path_generators(args.seed, range(n))
    x = np.full(n, FISHERIES["x0"])
    per_stage = {s: [] for s in STAGES}
    for _ in range(args.chunks):
        times = chunk(gens, x, consts, buffers)
        x = buffers[0][-1].copy()
        for s in STAGES:
            per_stage[s].append(times[s])
    scale = 1e9 / (steps * n)
    med = {s: statistics.median(per_stage[s]) * scale for s in STAGES}
    print(f"{args.chunks} chunks of {steps} steps x {n} paths; medians in ns per path-step")
    for s in STAGES:
        print(f"{s:>10} {med[s]:8.2f}")
    print(f"{'chunk':>10} {sum(med.values()):8.2f}  (the four above)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
