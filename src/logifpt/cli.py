"""Command-line interface: file-based, reproducible workflows.

Subcommands compose through files (simulate -> compare -> mle); every
output file is accompanied or embedded with a manifest sufficient to
reproduce it.  Exit codes: 0 success (possibly with warnings on stderr),
1 input error, 2 infeasible model regime, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys

import mpmath
import numpy as np
from mpmath import mp, mpf

from . import __version__
from .analytics import (MomentMethod, MomentSet, _cumulants, _endpoint_blocks, _moments,
                        fpt_moments)
from .errors import (InvalidParams, LogifptError, NoConvergence, NonConvergent,
                     NonPersistentRegime, InvalidHarvest, NoFeasibleStart,
                     QuadratureFailure, StencilFailure, WrongSide)
from .hypergeom import HypEvalConfig, laplace_transform
from .inference import MleConfig, mle_fit
from .laguerre import build_approximant
from .model import (DEFAULT_PRECISION, Direction, FptProblem, ModelParams,
                    derive_params, validate_problem)
from .montecarlo import (SimConfig, empirical_moments, kde, read_samples_csv,
                         sample_fpt, write_samples_csv)

_INPUT_ERRORS = (InvalidParams, FileNotFoundError, IsADirectoryError,
                 PermissionError, json.JSONDecodeError, KeyError, ValueError)
_REGIME_ERRORS = (NonPersistentRegime, InvalidHarvest, WrongSide, NoFeasibleStart)
_NUMERIC_ERRORS = (NonConvergent, NoConvergence, StencilFailure, QuadratureFailure)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _manifest(args, extra=None) -> dict:
    out = {
        "command": args.command,
        "argv": getattr(args, "raw_argv", sys.argv[1:]),
        "version": __version__,
        "precision": getattr(args, "precision", None),
        "seed": getattr(args, "seed", None),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        out.update(extra)
    return out


def _write_manifest(path, manifest) -> None:
    with open(str(path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except Exception as exc:
        raise InvalidParams(f"grid must be start:stop:step, got {spec!r}") from exc
    if step <= 0 or stop < start:
        raise InvalidParams(f"bad grid {spec!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _problem(args) -> FptProblem:
    return FptProblem(Direction(args.direction), args.threshold)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_derive(args) -> int:
    params = ModelParams.from_json(args.config)
    d = derive_params(params, precision=args.precision)
    doc = {
        "params": params.to_dict(),
        "derived": d.floats(),
        "precision": args.precision,
        "regime": "persistent",
        "manifest": _manifest(args),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_moments(args) -> int:
    params = ModelParams.from_json(args.config)
    d = derive_params(params, precision=args.precision)
    prob = _problem(args)
    method = (MomentMethod.BELL_CLOSED_FORM if args.method == "bell"
              else MomentMethod.RECURSION)
    blocks = _endpoint_blocks(d, prob, args.order)  # built once for both columns
    ms = _moments(d, prob, args.order, blocks, method, None)
    cs = _cumulants(d, prob, args.order, blocks)
    c = cs.cumulants_float
    lines = ["order,moment,cumulant,ratio,rel_error_estimate,flagged"]
    for k in range(1, args.order + 1):
        ratio = ""
        if k < args.order and c[k] != 0:
            ratio = repr(k * c[k - 1] / c[k])
        est = float(ms.error_estimates[k - 1])
        flag = bool(ms.flagged[k - 1])
        lines.append(f"{k},{float(ms.moments[k-1])!r},{c[k-1]!r},{ratio},{est!r},{flag}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.out:
        _write_manifest(args.out, _manifest(args, {"params": params.to_dict(),
                                                   "problem": prob.threshold,
                                                   "direction": args.direction}))
    if args.diagnostics:
        diag = ms.diagnostics.to_dict() if ms.diagnostics else {}
        diag["error_estimates"] = [float(e) for e in ms.error_estimates]
        diag["flagged"] = list(ms.flagged)
        text = json.dumps(diag, indent=2) + "\n"
        if args.out:
            with open(str(args.out) + ".diagnostics.json", "w") as fh:
                fh.write(text)
        else:
            sys.stderr.write(text)
    return 0


def _moments_for_density(args, d, prob) -> MomentSet:
    src = args.moments_from
    if src == "theory":
        return fpt_moments(d, prob, order=args.nmax)
    kind, _, path = src.partition(":")
    if kind == "samples" and path:
        sample = read_samples_csv(path)
        return empirical_moments(sample, order=args.nmax)
    if kind == "moments" and path:
        with open(path) as fh:
            data = json.load(fh)
        vals = [mpf(float(v)) for v in data["moments"]]
        if len(vals) < args.nmax:
            raise InvalidParams(
                f"moments file holds {len(vals)} moments, need {args.nmax}")
        return MomentSet(problem=prob, order=len(vals), moments=tuple(vals),
                         method=MomentMethod.EMPIRICAL, precision=113)
    raise InvalidParams(f"--moments-from must be theory, samples:FILE or moments:FILE, got {src!r}")


def cmd_density(args) -> int:
    params = ModelParams.from_json(args.config)
    d = derive_params(params, precision=args.precision)
    prob = _problem(args)
    validate_problem(d, prob)
    ms = _moments_for_density(args, d, prob)
    apx = build_approximant(ms, n=args.order, n_max=args.nmax, tol=args.tol)
    grid = _parse_grid(args.grid)
    dens = apx.density(grid)
    lines = ["t,density"]
    lines += [f"{t!r},{v!r}" for t, v in zip(grid.tolist(), np.asarray(dens).tolist())]
    _emit("\n".join(lines) + "\n", args.out)
    sidecar = {
        "alpha": apx.gamma.alpha,
        "beta": apx.gamma.beta,
        "order": apx.order,
        "coefficients": [float(c) for c in apx.coeffs],
        "clip_applied": apx.clip_applied,
        "renorm_factor": apx.renorm_factor,
        "norm_residual": apx.norm_residual,
        "negative_mass": apx.negative_mass,
        "converged": apx.converged,
        "moments_from": args.moments_from,
        "manifest": _manifest(args, {"params": params.to_dict()}),
    }
    if args.out:
        with open(str(args.out) + ".json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not apx.converged:
        sys.stderr.write("warning: order selection did not converge; "
                         f"using n = {apx.order} (see sidecar diagnostics)\n")
    return 0


def cmd_simulate(args) -> int:
    params = ModelParams.from_json(args.config)
    d = derive_params(params, precision=args.precision)
    prob = _problem(args)
    validate_problem(d, prob)
    cfg = SimConfig(problem=prob, paths=args.paths, dt=args.dt,
                    horizon=args.horizon, seed=args.seed,
                    interpolate_crossing=not args.no_interpolate)
    sample = sample_fpt(d, cfg)
    write_samples_csv(sample, args.out)
    _write_manifest(args.out, _manifest(args, {"params": params.to_dict(),
                                               "sim": cfg.to_dict()}))
    if args.kde_grid:
        grid = _parse_grid(args.kde_grid)
        dens = kde(sample, grid)
        lines = ["t,density"]
        lines += [f"{t!r},{v!r}" for t, v in zip(grid.tolist(), dens.tolist())]
        with open(str(args.out) + ".kde.csv", "w") as fh:
            fh.write("\n".join(lines) + "\n")
    sys.stdout.write(json.dumps(sample.summary(), sort_keys=True) + "\n")
    return 0


def _load_density_csv(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,density":
            raise InvalidParams(f"{path} is not a density CSV (header {header!r})")
        for line in fh:
            if line.strip():
                t, v = line.split(",")
                rows.append((float(t), float(v)))
    arr = np.array(rows)
    return arr[:, 0], arr[:, 1]


def cmd_compare(args) -> int:
    grid, dens = _load_density_csv(args.density)
    sample = read_samples_csv(args.samples)
    kde_vals = kde(sample, grid)
    l1 = float(np.trapezoid(np.abs(dens - kde_vals), grid))
    cdf_grid = np.concatenate([[0.0], np.cumsum(np.diff(grid) * 0.5 * (dens[1:] + dens[:-1]))])
    times = np.sort(sample.times)
    model_cdf = np.interp(times, grid, cdf_grid, left=0.0, right=cdf_grid[-1])
    n = len(times)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    ks = float(np.max(np.maximum(np.abs(ecdf_hi - model_cdf),
                                 np.abs(model_cdf - ecdf_lo))))
    moment_rows = []
    for k in range(1, 5):
        curve = float(np.trapezoid(grid ** k * dens, grid))
        emp = float(np.mean(times ** k))
        moment_rows.append({"order": k, "density": curve, "sample": emp})
    doc = {
        "l1_distance": l1,
        "ks_statistic": ks,
        "n_samples": n,
        "censored": sample.censored,
        "moments": moment_rows,
        "manifest": _manifest(args),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _parse_init(spec: str) -> dict:
    out = {}
    if spec:
        for item in spec.split(","):
            name, _, val = item.partition("=")
            if not val:
                raise InvalidParams(f"--init items must be name=value, got {item!r}")
            out[name.strip()] = float(val)
    return out


def cmd_mle(args) -> int:
    sample = read_samples_csv(args.samples)
    with open(args.fixed) as fh:
        fixed_doc = json.load(fh)
    estimate = tuple(p.strip() for p in args.estimate.split(",") if p.strip())
    direction = Direction(fixed_doc.pop("direction", "up"))
    init = _parse_init(args.init)
    for p in estimate:
        if p not in init:
            if p in fixed_doc:
                init[p] = float(fixed_doc[p])
            else:
                raise InvalidParams(f"no initial value for estimated parameter {p!r}")
    fixed = {k: float(v) for k, v in fixed_doc.items() if k not in estimate}
    cfg = MleConfig(estimate=estimate, fixed=fixed, init=init, direction=direction,
                    n_max=args.nmax, precision=args.precision,
                    max_iter=args.max_iter)
    result = mle_fit(sample, cfg, keep_trace=args.trace)
    doc = result.to_dict()
    if args.trace:
        doc["trace"] = result.trace
    doc["manifest"] = _manifest(args, {"estimate": list(estimate)})
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_oracle(args) -> int:
    params = ModelParams.from_json(args.config)
    d = derive_params(params, precision=args.precision)
    prob = _problem(args)
    validate_problem(d, prob)
    grid = _parse_grid(args.lambda_grid)
    ms = fpt_moments(d, prob, order=args.order)
    lines = ["lambda,direct,series,abs_diff"]
    with mp.workprec(HypEvalConfig.precision):
        for lam in grid:
            direct = laplace_transform(d, prob, lam)
            acc = mpf(1)
            for k in range(1, args.order + 1):
                term_scale = mpf(lam) ** k / mpmath.factorial(k)
                acc += (-1) ** k * ms.moments[k - 1] * term_scale
            lines.append(f"{float(lam)!r},{float(direct)!r},{float(acc)!r},"
                         f"{abs(float(direct - acc))!r}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.out:
        _write_manifest(args.out, _manifest(args, {"params": params.to_dict()}))
    return 0


def _add_common(p):
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                   help="working precision in bits")
    p.add_argument("--out", default=None, help="output file (default: stdout)")


def _add_problem(p):
    p.add_argument("--direction", choices=["up", "down"], required=True)
    p.add_argument("--threshold", type=float, required=True)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; built once per process, since parsing leaves it unchanged."""
    parser = _Parser(prog="logifpt",
                     description="Crossing-time analytics for the harvested "
                                 "stochastic logistic model")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", parents=[], help="derived parameters and regime check")
    p.add_argument("config")
    _add_common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("moments", help="moment/cumulant table")
    p.add_argument("config")
    _add_problem(p)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--method", choices=["recursion", "bell"], default="recursion")
    p.add_argument("--diagnostics", action="store_true",
                   help="emit truncation/error diagnostics")
    _add_common(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("density", help="orthogonal density approximant on a grid")
    p.add_argument("config")
    _add_problem(p)
    p.add_argument("--nmax", type=int, default=10, help="order-selection cap")
    p.add_argument("--order", type=int, default=None, help="force a fixed order")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--grid", required=True, help="start:stop:step")
    p.add_argument("--moments-from", default="theory",
                   help="theory | samples:FILE | moments:FILE")
    _add_common(p)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("simulate", help="simulate crossing times to CSV")
    p.add_argument("config")
    _add_problem(p)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--no-interpolate", action="store_true",
                   help="record crossings at grid points only")
    p.add_argument("--kde-grid", default=None,
                   help="also write a kernel-density curve on start:stop:step "
                        "to OUT.kde.csv")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (64-bit)")
    p.set_defaults(func=cmd_simulate)
    # simulate writes a sample file, not stdout
    p.set_defaults(out_required=True)

    p = sub.add_parser("compare", help="density curve vs simulated sample")
    p.add_argument("--density", required=True, help="density CSV from `density`")
    p.add_argument("--samples", required=True, help="sample CSV from `simulate`")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mle", help="maximum-likelihood fit from a sample file")
    p.add_argument("--samples", required=True)
    p.add_argument("--estimate", required=True, help="comma list, e.g. sigma,r")
    p.add_argument("--fixed", required=True, help="JSON with the fixed parameters")
    p.add_argument("--init", default="", help="comma list name=value")
    p.add_argument("--nmax", type=int, default=10)
    p.add_argument("--max-iter", type=int, default=250)
    p.add_argument("--trace", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_mle)

    p = sub.add_parser("oracle", help="transform values: direct vs series")
    p.add_argument("config")
    _add_problem(p)
    p.add_argument("--lambda-grid", required=True, help="start:stop:step")
    p.add_argument("--order", type=int, default=12, help="series order")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.raw_argv = list(argv) if argv is not None else sys.argv[1:]
    if getattr(args, "out_required", False) and not args.out:
        sys.stderr.write("error: this command requires --out\n")
        return 1
    try:
        return args.func(args)
    except _REGIME_ERRORS as exc:
        sys.stderr.write(f"infeasible regime: {exc}\n")
        return 2
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return 3
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except LogifptError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
