#!/usr/bin/env python3
"""Per-stage wall times of one simulator chunk, in ns per path-step.

Each timed chunk is one ``montecarlo.sample_fpt`` call of ``--paths``
fisheries paths (x0 = 100 up to U = 1e4, sigma 0.2, r 0.71, dt 1e-3) whose
horizon is one chunk of ``montecarlo._CHUNK`` steps.  It runs under
``stage_timer``, which charges the self time of the chunk's helpers to
their stages:

    draws      _draw_normals: each path's Philox normals into the staging
               block, copied into the buffer's columns
    noise      _noise_factor: the chunk-wide noise factor, in place
    steps      _step_rows: the drift sub-flow per row, times that row's
               noise factor, written over the row
    scan       _first_crossings: the crossing scan over row blocks

The median over the chunks is printed per stage, and their sum.  Each chunk
is a new call, so its draws include the first writes to the call's new
buffer, which a call of many chunks pays once: about 1.5 ns per path-step
at 2048 paths on a 2-vCPU host.  The scale assumes that every path steps
through the whole chunk, so the script exits 1 if a path crossed, as it
does if a stage saw no call.  Example:

    python scripts/profile_simulator.py --paths 2048 --chunks 9
"""

import argparse
import statistics
import sys

from logifpt import (Direction, FptProblem, ModelParams, SimConfig, derive_params, montecarlo,
                     sample_fpt)
from stage_timer import stage_timer

FISHERIES = dict(r=0.71, K=8.05e7, q=3.30e-6, E=104540.0, sigma=0.2, x0=100.0)
THRESHOLD = 1e4
DT = 1e-3
TARGETS = (
    ("draws", montecarlo, "_draw_normals"),
    ("noise", montecarlo, "_noise_factor"),
    ("steps", montecarlo, "_step_rows"),
    ("scan", montecarlo, "_first_crossings"),
)
STAGES = tuple(stage for stage, _, _ in TARGETS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--paths", type=int, default=2048, help="paths per chunk")
    ap.add_argument("--chunks", type=int, default=9, help="chunks to time")
    ap.add_argument("--seed", type=int, default=3, help="seed of the paths' streams")
    args = ap.parse_args(argv)
    if args.paths < 1 or args.chunks < 1:
        ap.error("--paths and --chunks must be >= 1")

    d = derive_params(ModelParams(**FISHERIES))
    n = args.paths
    cfg = SimConfig(problem=FptProblem(Direction.UP, THRESHOLD), paths=n, dt=DT,
                    horizon=montecarlo._CHUNK * DT, seed=args.seed)
    per_stage = {s: [] for s in STAGES}
    for _ in range(args.chunks):
        with stage_timer(TARGETS) as (seconds, calls):
            sample = sample_fpt(d, cfg)
        if sample.n:
            print(f"{sample.n} paths crossed within the chunk", file=sys.stderr)
            return 1
        idle = [s for s in STAGES if not calls[s]]
        if idle:
            print(f"no call reached stages {idle}", file=sys.stderr)
            return 1
        for s in STAGES:
            per_stage[s].append(seconds[s])
    scale = 1e9 / (cfg.steps * n)
    med = {s: statistics.median(per_stage[s]) * scale for s in STAGES}
    print(f"{args.chunks} chunks of {cfg.steps} steps x {n} paths; "
          f"medians in ns per path-step")
    for s in STAGES:
        print(f"{s:>10} {med[s]:8.2f}")
    print(f"{'chunk':>10} {sum(med.values()):8.2f}  (the four above)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
