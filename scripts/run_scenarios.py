#!/usr/bin/env python3
"""Summary statistics for the benchmark crossing scenarios.

Prints mean, variance, fourth cumulant, the three adjacent cumulant ratios,
and the matched Gamma reference for each scenario; optionally validates each
row against a Monte Carlo run.  Mirrors the summary-table layout used in the
package's acceptance checks.

Usage:
    python scripts/run_scenarios.py [--mc] [--paths 100000] [--dt 1e-3] [--csv out.csv]
"""

import argparse
import math
import sys
import warnings

from logifpt import (Direction, FptProblem, ModelParams, SimConfig,
                     derive_params, fpt_cumulants, match_gamma, fpt_moments, sample_fpt)

BASE = dict(r=0.71, K=80.5e6, q=3.30e-6, E=104540.0, sigma=0.2)

SCENARIOS = [
    # label, x0, direction, threshold, MC horizon
    ("up x0=100 U=150", 100.0, Direction.UP, 150.0, 20.0),
    ("up x0=100 U=1e4", 100.0, Direction.UP, 1e4, 60.0),
    ("up x0=100 U=1e5", 100.0, Direction.UP, 1e5, 80.0),
    ("up x0=100 U=110", 100.0, Direction.UP, 110.0, 10.0),
    ("up x0=2.01e7 U=3.91e7", 2.01e7, Direction.UP, 3.91e7, 120.0),
    ("up x0=2.01e7 U=2.51e7", 2.01e7, Direction.UP, 2.51e7, 60.0),
    ("up x0=4e7 U=6e7", 4.0e7, Direction.UP, 6e7, 600.0),
    ("down x0=3.91e7 L=2.8e7", 3.91e7, Direction.DOWN, 2.8e7, 400.0),
    ("down x0=6e7 L=3.91e7", 6.0e7, Direction.DOWN, 3.91e7, 120.0),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mc", action="store_true", help="add a Monte Carlo check per row")
    ap.add_argument("--paths", type=int, default=100_000)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=20240)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args(argv)

    header = (f"{'scenario':<26} {'mean':>10} {'var':>12} {'k4':>12} "
              f"{'k1/k2':>7} {'2k2/k3':>7} {'3k3/k4':>7} {'alpha':>8} {'beta':>7} {'cv':>6}")
    if args.mc:
        header += f" {'mc_mean':>10} {'mc_var':>12} {'cens':>5}"
    print(header)
    rows = []
    for label, x0, direction, threshold, horizon in SCENARIOS:
        d = derive_params(ModelParams(**BASE, x0=x0))
        prob = FptProblem(direction, threshold)
        cs = fpt_cumulants(d, prob, 4)
        c = cs.cumulants_float
        r = [float(x) for x in cs.ratios]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = match_gamma(fpt_moments(d, prob, 2))
        cv = math.sqrt(c[1]) / c[0]
        row = dict(scenario=label, mean=c[0], var=c[1], k4=c[3],
                   r1=r[0], r2=r[1], r3=r[2], alpha=g.alpha, beta=g.beta, cv=cv)
        line = (f"{label:<26} {c[0]:>10.4f} {c[1]:>12.4f} {c[3]:>12.4f} "
                f"{r[0]:>7.3f} {r[1]:>7.3f} {r[2]:>7.3f} {g.alpha:>8.3f} "
                f"{g.beta:>7.4f} {cv:>6.3f}")
        if args.mc:
            s = sample_fpt(d, SimConfig(problem=prob, paths=args.paths, dt=args.dt,
                                        horizon=horizon, seed=args.seed))
            summ = s.summary()
            row.update(mc_mean=summ["mean"], mc_var=summ["var"], censored=s.censored)
            line += f" {summ['mean']:>10.4f} {summ['var']:>12.4f} {s.censored:>5d}"
        print(line)
        rows.append(row)
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
