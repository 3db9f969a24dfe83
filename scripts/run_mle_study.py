#!/usr/bin/env python3
"""Repeated maximum-likelihood estimation at a known truth.

Reproduces the layout of the estimation experiment: for each parameter
subset and sample size, simulate `--replications` synthetic crossing-time
samples at the truth and report bias, MSE, and mean relative error of the
fitted parameters.  The stable subsets are the pairs (sigma, x0),
(sigma, U), (sigma, r) and the triple (sigma, r, x0); other combinations
are exposed by the library but tend to have convergence trouble.

Usage:
    python scripts/run_mle_study.py --Ns 100 500 1000 --replications 10 \
        --subsets sigma,r sigma,x0 --csv study.csv
"""

import argparse
import sys
import time

from logifpt import Direction, FptProblem, ModelParams
from logifpt.inference import mc_study

TRUTH = ModelParams(r=0.71, K=80.5e6, q=3.30e-6, E=104540.0, sigma=0.2, x0=100.0)
PROBLEM = FptProblem(Direction.UP, 1e4)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--Ns", type=int, nargs="+", default=[100, 500, 1000])
    ap.add_argument("--replications", type=int, default=10)
    ap.add_argument("--subsets", nargs="+", default=["sigma,x0", "sigma,U", "sigma,r"],
                    help="comma-joined parameter subsets")
    ap.add_argument("--seed", type=int, default=20240)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--horizon", type=float, default=60.0)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args(argv)

    subsets = [tuple(s.split(",")) for s in args.subsets]
    t0 = time.time()
    rows = mc_study(truth=TRUTH, problem=PROBLEM, Ns=args.Ns, subsets=subsets,
                    replications=args.replications, master_seed=args.seed,
                    dt=args.dt, horizon=args.horizon)
    print(f"{'N':>5} {'subset':<14} {'param':<6} {'bias':>12} {'MSE':>12} "
          f"{'err%':>7} {'conv':>5}")
    for row in rows:
        print(f"{row['N']:>5} {row['subset']:<14} {row['parameter']:<6} "
              f"{row['bias']:>12.4e} {row['mse']:>12.4e} {row['err_pct']:>7.2f} "
              f"{row['n_converged']:>3d}/{row['replications']}")
    print(f"elapsed {time.time() - t0:.0f} s", file=sys.stderr)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            fh.write("N,subset,parameter,bias,mse,err_pct,n_converged,replications\n")
            for row in rows:
                fh.write("{N},{subset},{parameter},{bias!r},{mse!r},{err_pct!r},"
                         "{n_converged},{replications}\n".format(**row))
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
