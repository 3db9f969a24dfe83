#!/usr/bin/env python3
"""Per-stage wall times of one upcrossing likelihood evaluation.

Simulates one fisheries sample (x0 = 100 up to U = 1e4, sigma 0.2, r 0.71)
and evaluates the likelihood of its crossing times at random (sigma, r)
points.  At each point, on a fresh kernel table, it times one
``inference.log_likelihood`` call as ``whole``, then makes one more call
under ``stage_timer``, which charges the self time of these library
functions to their stages:

    derive     model.derive_params
    rows       KernelTable._m_next, the kernel-table rows
    l-sums     kernels._l_sums, the sums at x0 and at U
    quotient   analytics._fixed_quotient, the moments and cumulants in ints
    c_j/b_k    laguerre.match_gamma and laguerre_coeffs
    order      laguerre.select_order
    approx     LaguerreApproximant construction: roots, negative intervals
               and mass
    density    LaguerreApproximant.density at the sample times

The median over the points is printed per stage, with their sum and the
median of the whole calls; the sum leaves out what runs between the
stages.  Points whose likelihood is the penalty are left out.  Exits 1 if
no point was feasible or a stage saw no call.  Example:

    python scripts/profile_likelihood.py --points 200 --seed 3
"""

import argparse
import statistics
import sys
import time

import numpy as np

from logifpt import (Direction, FptProblem, ModelParams, SimConfig, analytics, derive_params,
                     inference, kernels, laguerre, sample_fpt)
from logifpt.inference import PENALTY, MleConfig, log_likelihood
from stage_timer import stage_timer

FISHERIES = dict(r=0.71, K=8.05e7, q=3.30e-6, E=104540.0, sigma=0.2, x0=100.0)
THRESHOLD = 1e4
TARGETS = (
    ("derive", inference, "derive_params"),
    ("rows", kernels.KernelTable, "_m_next"),
    ("l-sums", kernels, "_l_sums"),
    ("quotient", analytics, "_fixed_quotient"),
    ("c_j/b_k", laguerre, "match_gamma"),
    ("c_j/b_k", laguerre, "laguerre_coeffs"),
    ("order", laguerre, "select_order"),
    ("approx", laguerre.LaguerreApproximant, "__post_init__"),
    ("density", laguerre.LaguerreApproximant, "density"),
)
STAGES = tuple(dict.fromkeys(stage for stage, _, _ in TARGETS))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--points", type=int, default=200, help="(sigma, r) points to time")
    ap.add_argument("--seed", type=int, default=3, help="sample and point seed")
    ap.add_argument("--paths", type=int, default=500, help="sample size N")
    args = ap.parse_args(argv)

    truth = ModelParams(**FISHERIES)
    problem = FptProblem(Direction.UP, THRESHOLD)
    sample = sample_fpt(derive_params(truth), SimConfig(
        problem=problem, paths=args.paths, dt=1e-3, horizon=60.0, seed=args.seed))
    fixed = {k: FISHERIES[k] for k in ("x0", "K", "q", "E")}
    cfg = MleConfig(estimate=("sigma", "r"), fixed={**fixed, "U": THRESHOLD},
                    init={"sigma": FISHERIES["sigma"], "r": FISHERIES["r"]})
    rng = np.random.default_rng(args.seed)
    points = zip(rng.uniform(0.15, 0.3, args.points), rng.uniform(0.5, 0.9, args.points))

    per_stage = {s: [] for s in STAGES}
    whole, skipped = [], 0
    for sigma, r in points:
        theta = {"sigma": float(sigma), "r": float(r)}
        kernels._table = None
        start = time.perf_counter()
        ll = log_likelihood(theta, sample, cfg)
        elapsed = time.perf_counter() - start
        if ll == PENALTY:
            skipped += 1
            continue
        whole.append(elapsed)
        kernels._table = None
        with stage_timer(TARGETS) as (seconds, calls):
            log_likelihood(theta, sample, cfg)
        idle = [s for s in STAGES if not calls[s]]
        if idle:
            print(f"no call reached stages {idle} at {theta}", file=sys.stderr)
            return 1
        for s in STAGES:
            per_stage[s].append(seconds[s])
    if not whole:
        print("every point was infeasible", file=sys.stderr)
        return 1
    print(f"{len(whole)} points, {skipped} skipped (penalty); N = {sample.n}; "
          f"medians in ms")
    total = 0.0
    for s in STAGES:
        med = statistics.median(per_stage[s]) * 1e3
        total += med
        print(f"{s:>10} {med:8.3f}")
    print(f"{'sum':>10} {total:8.3f}")
    print(f"{'whole':>10} {statistics.median(whole) * 1e3:8.3f}  (log_likelihood)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
