#!/usr/bin/env python3
"""Per-stage wall times of one upcrossing likelihood evaluation.

Simulates one fisheries sample (x0 = 100 up to U = 1e4, sigma 0.2, r 0.71)
and evaluates the likelihood of its crossing times at random (sigma, r)
points, stage by stage, as ``inference.log_likelihood`` runs them:

    derive     derive_params
    rows       the kernel-table rows the two l-sums read, on a fresh table
    l-sums     kernels.l_series at x0 and at U, on the built table
    quotient   the moments and cumulants in ints, kernels._fixed_quotient,
               which returns no error bound: upcrossing sums omit no terms
    c_j/b_k    the moments, match_gamma and laguerre_coeffs, rounded to floats
    order      select_order
    approx     LaguerreApproximant: roots, negative intervals and mass
    density    the density at the sample times and the log-sum

Each stage is timed alone with time.perf_counter; the median over the
points is printed per stage, with the median of whole ``log_likelihood``
calls at the same points for comparison.  Points whose likelihood is the
penalty are left out.  Example:

    python scripts/profile_likelihood.py --points 200 --seed 3
"""

import argparse
import statistics
import sys
import time
import warnings

import mpmath
import numpy as np
from mpmath import mp, mpf

from logifpt import (Direction, FptProblem, ModelParams, MomentSet, SimConfig, derive_params,
                     kernels, sample_fpt)
from logifpt.errors import LogifptError
from logifpt.inference import PENALTY, MleConfig, log_likelihood
from logifpt.laguerre import (LaguerreApproximant, laguerre_coeffs, match_gamma,
                              select_order)

FISHERIES = dict(r=0.71, K=8.05e7, q=3.30e-6, E=104540.0, sigma=0.2, x0=100.0)
THRESHOLD = 1e4
STAGES = ("derive", "rows", "l-sums", "quotient", "c_j/b_k", "order", "approx", "density")


def timed(times, stage, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    times[stage] = time.perf_counter() - start
    return out


def stages(params: ModelParams, sample, cfg: MleConfig) -> dict:
    """Seconds per stage of one likelihood evaluation at ``params``."""
    times = {}
    d = timed(times, "derive", derive_params, params, cfg.precision)
    order, x0 = cfg.n_max, params.x0
    kernels._table = None  # a first pass finds the last row the sums read
    cut = max(max(kernels.l_series(y, order, d).cut) for y in (x0, THRESHOLD))
    kernels._table = None

    def rows():
        kernels.ensure_table(d, order).fixed_row("m", cut)

    timed(times, "rows", rows)
    b0, b1 = timed(times, "l-sums", lambda: [kernels.l_series(y, order, d)
                                             for y in (x0, THRESHOLD)])
    with mp.workprec(d.precision):
        q_log = d.u * mpmath.log(mpf(THRESHOLD) / mpf(x0))
    g, *_ = timed(times, "quotient", kernels._fixed_quotient, b0, b1, q_log)

    def coeffs():
        moments = tuple((-1) ** k * g[k] for k in range(1, order + 1))
        ms = MomentSet(moments=moments, precision=d.precision)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gamma = match_gamma(ms)
        return gamma, [float(c) for c in laguerre_coeffs(ms, gamma, order)]

    gamma, b = timed(times, "c_j/b_k", coeffs)
    n, converged = timed(times, "order", select_order, b, gamma.alpha)
    apx = timed(times, "approx", lambda: LaguerreApproximant(
        gamma=gamma, coeffs=tuple(b[: n + 1]), converged=converged))
    timed(times, "density", lambda: float(np.sum(np.log(np.maximum(
        apx.density(sample.times), 1e-300)))))
    return times


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
        start = time.perf_counter()
        ll = log_likelihood(theta, sample, cfg)
        elapsed = time.perf_counter() - start
        if ll == PENALTY:
            skipped += 1
            continue
        whole.append(elapsed)
        try:
            times = stages(ModelParams(**{**FISHERIES, **theta}), sample, cfg)
        except LogifptError:
            skipped += 1
            continue
        for s in STAGES:
            per_stage[s].append(times[s])
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
