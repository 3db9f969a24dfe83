#!/usr/bin/env python3
"""A seeded sweep of the parameter box: how much of it the library serves,
and where it refuses the rest.

Each draw takes, log-uniformly, sigma in 0.02-2, r in 0.01-5, K in 10-1e10,
x0 / K in 1e-6-3 and a threshold ratio in 1.01-100 (the threshold is x0
times it going up, x0 over it going down); qE / r uniformly in 0-0.9; and
up or down with equal odds, all from ``numpy.random.default_rng(1)``.  The
first N draws are the same whatever the number of draws asked for.

A draw runs ``derive_params``, ``fpt_moments`` at order 10,
``build_approximant`` (its warnings ignored), and the density and CDF on
200 points from 0 to mean + 8 sd, both taken from the float moments.  It
ends at the first of these stages that raises a ``LogifptError``, recorded
with its class and exit code, or with a density (exit code 0).  Any other
exception is a bug and ends the script with a traceback.

Prints the count of each (direction, stage, outcome, exit code), then, per
direction, how many moment sets hold a moment beyond the range of a double
(the sets that ``moments`` refuses with exit 1), and what the densities
hold: how many did not converge in order selection, came from a set with a
flagged order, are infinite at t = 0, or hold a non-finite value anywhere
else (density past t = 0, or CDF).  The slowest draw's time goes to stderr.
``--csv`` writes one row per draw.

Usage:
    python scripts/sweep_box.py [--draws 3000] [--csv sweep.csv]
"""

import argparse
import collections
import csv
import math
import sys
import time
import warnings

import numpy as np

from logifpt import (Direction, FptProblem, ModelParams, build_approximant, derive_params,
                     fpt_moments, validate_problem)
from logifpt.errors import LogifptError

SEED = 1
ORDER = 10
GRID_POINTS = 200
# name: (low, high), each drawn log-uniformly
LOG_BOX = {"sigma": (0.02, 2.0), "r": (0.01, 5.0), "K": (10.0, 1e10),
           "x0_over_K": (1e-6, 3.0), "threshold_ratio": (1.01, 100.0)}
HARVEST_MAX = 0.9  # qE / r is uniform in 0..HARVEST_MAX
COLUMNS = ["draw", "direction", "sigma", "r", "K", "x0", "threshold", "qE_over_r",
           "stage", "outcome", "exit_code", "beyond_double",
           "order", "converged", "flagged", "inf_at_zero", "nonfinite"]


def draws(n: int):
    """The first n draws of the box, as (direction, ModelParams, FptProblem, qE / r)."""
    rng = np.random.default_rng(SEED)
    for _ in range(n):
        u = rng.random(len(LOG_BOX) + 2)
        x = {name: lo * (hi / lo) ** ui for (name, (lo, hi)), ui in zip(LOG_BOX.items(), u)}
        harvest = HARVEST_MAX * float(u[-2])
        direction = Direction.UP if u[-1] < 0.5 else Direction.DOWN
        r, x0 = float(x["r"]), float(x["K"] * x["x0_over_K"])
        ratio = float(x["threshold_ratio"])
        threshold = x0 * ratio if direction is Direction.UP else x0 / ratio
        # q = 1, so E = qE is harvest * r exactly
        params = ModelParams(r=r, K=float(x["K"]), q=1.0, E=harvest * r,
                             sigma=float(x["sigma"]), x0=x0)
        yield direction, params, FptProblem(direction, threshold), harvest


def run_draw(params: ModelParams, problem: FptProblem) -> dict:
    """One draw through the stages; the stage that ended it and what it found."""
    out = {"stage": "derive", "outcome": "ok", "exit_code": 0}
    try:
        d = derive_params(params)
        validate_problem(d, problem)
        out["stage"] = "moments"
        ms = fpt_moments(d, problem, ORDER)
        out["beyond_double"] = not all(map(math.isfinite, ms.moments_float))
        out["stage"] = "approximant"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            apx = build_approximant(ms)
        out["stage"] = "density"
        m1, m2 = ms.moments_float[:2]
        with np.errstate(all="ignore"):
            sd = math.sqrt(m2 - m1 * m1) if m2 - m1 * m1 > 0 else 0.0
            grid = np.linspace(0.0, m1 + 8 * sd, GRID_POINTS)
            dens, cdf = apx.density(grid), apx.cdf(grid)
    except LogifptError as exc:
        out.update(outcome=type(exc).__name__, exit_code=exc.exit_code)
        return out
    out.update(order=apx.order, converged=apx.converged, flagged=sum(ms.flagged),
               inf_at_zero=bool(np.isinf(dens[0])),
               nonfinite=not (np.isfinite(dens[1:]).all() and np.isfinite(cdf).all()))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--draws", type=int, default=3000, help="number of draws")
    ap.add_argument("--csv", default=None, help="write one row per draw to this file")
    args = ap.parse_args(argv)

    rows, slowest = [], 0.0
    for i, (direction, params, problem, harvest) in enumerate(draws(args.draws)):
        t0 = time.perf_counter()
        row = run_draw(params, problem)
        slowest = max(slowest, time.perf_counter() - t0)
        rows.append({"draw": i, "direction": direction.value, "sigma": params.sigma,
                     "r": params.r, "K": params.K, "x0": params.x0,
                     "threshold": problem.threshold, "qE_over_r": harvest, **row})

    counts = collections.Counter((r["direction"], r["stage"], r["outcome"], r["exit_code"])
                                 for r in rows)
    print(f"{'direction':<10} {'stage':<12} {'outcome':<20} {'exit':>4} {'count':>6}")
    for (direction, stage, outcome, code), n in sorted(counts.items()):
        print(f"{direction:<10} {stage:<12} {outcome:<20} {code:>4} {n:>6}")
    for direction in ("up", "down"):
        beyond = sum(r.get("beyond_double", False) for r in rows if r["direction"] == direction)
        served = [r for r in rows if r["direction"] == direction and r["outcome"] == "ok"]
        print(f"{direction} moment sets beyond a double: {beyond}")
        print(f"{direction} densities: {len(served)}, "
              f"not converged {sum(not r['converged'] for r in served)}, "
              f"flagged {sum(r['flagged'] > 0 for r in served)}, "
              f"inf at t = 0 {sum(r['inf_at_zero'] for r in served)}, "
              f"non-finite elsewhere {sum(r['nonfinite'] for r in served)}")
    print(f"slowest draw {slowest:.2f} s", file=sys.stderr)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows({k: repr(v) if isinstance(v, float) else v for k, v in r.items()}
                             for r in rows)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
