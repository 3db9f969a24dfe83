"""Command-line interface: file-based, reproducible workflows.

Subcommands compose through files (simulate -> compare -> mle).  Every
output carries a manifest sufficient to reproduce it: a JSON output embeds
it under ``manifest``, and a CSV written with ``--out X`` gets one sidecar,
``X.json``, holding the command's diagnostics and the manifest (a CSV
written to stdout gets none).  Exit codes: 0 success (possibly with
warnings on stderr), 1 input error, 2 infeasible model regime, 3 numerical
non-convergence; each package error carries its own as
``LogifptError.exit_code``.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
import warnings

import mpmath
import numpy as np
from mpmath import mp, mpf

from . import __version__
from .analytics import MomentSet, fpt_moments
from .errors import InvalidParams, LogifptError, UnreliableMoments
from .hypergeom import PRECISION as ORACLE_PRECISION, laplace_transform
from .inference import MleConfig, mle_fit
from .laguerre import build_approximant
from .model import (DEFAULT_PRECISION, DerivedParams, Direction, FptProblem, ModelParams,
                    _json_number, derive_params, validate_problem)
from .montecarlo import (SimConfig, empirical_moments, kde, read_samples_csv,
                         sample_fpt, write_samples_csv)

# what reading an input file raises that no package code turns into an
# InvalidParams; any other exception inside a command is a bug and propagates
_INPUT_ERRORS = (OSError, json.JSONDecodeError, UnicodeDecodeError)
# the stderr label of each exit code a LogifptError carries
_EXIT_LABELS = {1: "input error", 2: "infeasible regime", 3: "numerical non-convergence"}
# the most points a --grid, --kde-grid or --lambda-grid may hold
MAX_GRID_POINTS = 10 ** 6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _manifest(args, extra=None) -> dict:
    out = {
        "command": args.command,
        "argv": args.raw_argv,
        "version": __version__,
        "precision": getattr(args, "precision", None),
        "seed": getattr(args, "seed", None),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        out.update(extra)
    return out


def _json_text(doc: dict) -> str:
    """The text of every JSON document the CLI writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_sidecar(args, doc: dict, extra=None) -> None:
    """Write OUT.json: the command's diagnostics ``doc`` and its manifest."""
    with open(str(args.out) + ".json", "w") as fh:
        fh.write(_json_text({**doc, "manifest": _manifest(args, extra)}))


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise InvalidParams(f"grid must be start:stop:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise InvalidParams(f"bad grid {spec!r}")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # inf included; nothing is allocated yet
        raise InvalidParams(f"grid {spec!r} holds more than {MAX_GRID_POINTS} points")
    return start + step * np.arange(int(math.floor(span)) + 1)


def _derived(args) -> DerivedParams:
    """The config file's parameters, derived at --precision."""
    return derive_params(ModelParams.from_json(args.config), precision=args.precision)


def _problem(args) -> FptProblem:
    return FptProblem(Direction(args.direction), args.threshold)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _density_csv(grid: np.ndarray, dens: np.ndarray) -> str:
    """The text of a t,density CSV: one row per grid point, each value as its repr."""
    rows = [f"{t!r},{v!r}" for t, v in zip(grid.tolist(), dens.tolist())]
    return "\n".join(["t,density", *rows]) + "\n"


def cmd_derive(args) -> int:
    d = _derived(args)
    doc = {
        "params": d.params.to_dict(),
        "derived": d.floats(),
        "precision": args.precision,
        "regime": "persistent",
        "manifest": _manifest(args),
    }
    _emit(_json_text(doc), args.out)
    return 0


def cmd_moments(args) -> int:
    d = _derived(args)
    prob = _problem(args)
    ms = fpt_moments(d, prob, args.order)
    m, c = ms.moments_float, ms.cumulants_float
    ratios = [*ms.ratios, None]  # the last order has none
    lines = ["order,moment,cumulant,ratio,rel_error_estimate,flagged"]
    for k in range(1, args.order + 1):
        if not (math.isfinite(m[k - 1]) and math.isfinite(c[k - 1])):  # nothing written yet
            raise InvalidParams(f"order {k}: moment {m[k - 1]!r} and cumulant {c[k - 1]!r} "
                                "must be finite doubles; ask for a lower --order")
        ratio = "" if ratios[k - 1] is None else repr(float(ratios[k - 1]))
        est = float(ms.error_estimates[k - 1])
        flag = bool(ms.flagged[k - 1])
        lines.append(f"{k},{m[k - 1]!r},{c[k - 1]!r},{ratio},{est!r},{flag}")
    _emit("\n".join(lines) + "\n", args.out)
    if args.out:
        diag = {**ms.diagnostics,
                "error_estimate": [float(e) for e in ms.diagnostics["error_estimate"]],
                "error_estimates": [float(e) for e in ms.error_estimates],
                "flagged": list(ms.flagged)}
        _write_sidecar(args, diag, {"params": d.params.to_dict(), "problem": prob.threshold,
                                    "direction": args.direction})
    return 0


def _moments_for_density(args, d, prob) -> MomentSet:
    src = args.moments_from
    # the set's length caps order selection; a forced order needs that many
    # moments (two at least, for the Gamma match)
    order = args.nmax if args.order is None else max(args.order, 2)
    if src == "theory":
        return fpt_moments(d, prob, order=order)
    kind, _, path = src.partition(":")
    if kind == "samples" and path:
        sample = read_samples_csv(path)
        return empirical_moments(sample, order=order)
    if kind == "moments" and path:
        with open(path) as fh:
            data = json.load(fh)
        moments = data.get("moments") if isinstance(data, dict) else None
        if not isinstance(moments, list):
            raise InvalidParams(f'moments file {path} must hold a JSON object with a '
                                f'list "moments"')
        vals = [mpf(_json_number(v, f"moment in {path}")) for v in moments]
        if len(vals) < order:
            raise InvalidParams(f"moments file holds {len(vals)} moments, need {order}")
        # the first `order` moments, none for an order < 0, as from a sample
        return MomentSet(moments=tuple(vals[:max(order, 0)]), precision=113)
    raise InvalidParams(f"--moments-from must be theory, samples:FILE or moments:FILE, got {src!r}")


def cmd_density(args) -> int:
    d = _derived(args)
    prob = _problem(args)
    validate_problem(d, prob)
    grid = _parse_grid(args.grid)
    ms = _moments_for_density(args, d, prob)
    apx = build_approximant(ms, n=args.order)
    dens = apx.density(grid)
    bad = np.isnan(dens) | (np.isinf(dens) & (grid > 0))  # inf at t = 0 is alpha < 0
    flagged = [k for k, f in enumerate(ms.flagged or (), 1) if f]
    if flagged and bad.any():  # nothing written yet
        raise UnreliableMoments(f"flagged moments (orders {flagged}) give a density of "
                                f"{dens[bad][0]} at t = {grid[bad][0]}")
    _emit(_density_csv(grid, dens), args.out)
    if args.out:
        _write_sidecar(args, {
            "alpha": apx.gamma.alpha,
            "beta": apx.gamma.beta,
            "order": apx.order,
            "coefficients": [float(c) for c in apx.coeffs],
            "clip_applied": apx.clip_applied,
            "renorm_factor": apx.renorm_factor,
            "negative_mass": apx.negative_mass,
            "converged": apx.converged,
            "moments_from": args.moments_from,
        }, {"params": d.params.to_dict()})
    if not apx.converged:
        see = f" (see {args.out}.json)" if args.out else ""
        sys.stderr.write("warning: order selection did not converge; "
                         f"using n = {apx.order}{see}\n")
    return 0


def cmd_simulate(args) -> int:
    d = derive_params(ModelParams.from_json(args.config))  # the simulator runs in doubles
    cfg = SimConfig(problem=_problem(args), paths=args.paths, dt=args.dt,
                    horizon=args.horizon, seed=args.seed)
    grid = _parse_grid(args.kde_grid) if args.kde_grid else None
    sample = sample_fpt(d, cfg)
    write_samples_csv(sample, args.out)
    _write_sidecar(args, {}, {"params": d.params.to_dict(), "sim": cfg.to_dict()})
    if grid is not None:
        _emit(_density_csv(grid, kde(sample, grid)), str(args.out) + ".kde.csv")
    sys.stdout.write(json.dumps(sample.summary(), sort_keys=True) + "\n")
    return 0


def _load_density_csv(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,density":
            raise InvalidParams(f"{path} is not a density CSV (header {header!r})")
        for i, line in enumerate(fh, start=2):
            row = line.strip()
            if row:
                try:
                    t, v = row.split(",")
                    rows.append((i, float(t), float(v)))
                except ValueError as exc:
                    raise InvalidParams(f"{path} line {i} ({row!r}): {exc}") from exc
    if not rows:
        raise InvalidParams(f"{path} holds no density rows")
    line_no, t, f = np.array(rows).T
    ok = np.isfinite(t) & np.isfinite(f) & (f >= 0)
    ok[1:] &= t[1:] > t[:-1]
    if not ok.all():
        i = int(np.argmin(ok))
        hint = "; start the grid above 0" if t[i] == 0 and np.isinf(f[i]) else ""
        raise InvalidParams(f"{path} line {int(line_no[i])} (t = {t[i]}, density = {f[i]}): "
                            "t must be finite and strictly increasing, the density finite "
                            f"and >= 0{hint}")
    return t, f


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
    emp = empirical_moments(sample, 4).moments_float
    moment_rows = [{"order": k, "density": float(np.trapezoid(grid ** k * dens, grid)),
                    "sample": emp[k - 1]} for k in range(1, 5)]
    doc = {
        "l1_distance": l1,
        "ks_statistic": ks,
        "n_samples": n,
        "censored": sample.censored,
        "moments": moment_rows,
        "manifest": _manifest(args),
    }
    _emit(_json_text(doc), args.out)
    return 0


def _parse_init(spec: str) -> dict:
    out = {}
    if spec:
        for item in spec.split(","):
            name, _, val = item.partition("=")
            name = name.strip()
            if not val:
                raise InvalidParams(f"--init items must be name=value, got {item!r}")
            if name in out:
                raise InvalidParams(f"--init gives {name!r} twice")
            try:
                out[name] = float(val)
            except ValueError as exc:
                raise InvalidParams(f"--init {name} must be a number, got {val!r}") from exc
    return out


def cmd_mle(args) -> int:
    sample = read_samples_csv(args.samples)
    with open(args.fixed) as fh:
        fixed_doc = json.load(fh)
    if not isinstance(fixed_doc, dict):
        raise InvalidParams(f"--fixed file {args.fixed} must hold a JSON object")
    estimate = tuple(p.strip() for p in args.estimate.split(",") if p.strip())
    try:
        direction = Direction(fixed_doc.pop("direction", "up"))
    except ValueError as exc:
        raise InvalidParams(f"--fixed direction: {exc}") from exc
    init = _parse_init(args.init)
    for p in estimate:
        if p not in init and p in fixed_doc:
            init[p] = _json_number(fixed_doc[p], f"--fixed {p}")
    fixed = {k: _json_number(v, f"--fixed {k}") for k, v in fixed_doc.items()
             if k not in estimate}
    cfg = MleConfig(estimate=estimate, fixed=fixed, init=init, direction=direction,
                    n_max=args.nmax, precision=args.precision,
                    max_iter=args.max_iter)
    result = mle_fit(sample, cfg, keep_trace=args.trace)
    doc = result.to_dict()
    doc["censored"] = sample.censored
    doc["censor_time"] = sample.config.censor_time
    doc["manifest"] = _manifest(args, {"estimate": list(estimate)})
    _emit(_json_text(doc), args.out)
    return 0


def cmd_oracle(args) -> int:
    d = _derived(args)
    prob = _problem(args)
    validate_problem(d, prob)
    grid = _parse_grid(args.lambda_grid)
    ms = fpt_moments(d, prob, order=args.order)
    lines = ["lambda,direct,series,abs_diff"]
    with mp.workprec(ORACLE_PRECISION):
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
        _write_sidecar(args, {}, {"params": d.params.to_dict()})
    return 0


def _add_common(p):
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                   help="working precision in bits")
    p.add_argument("--out", help="output file (default: stdout)")


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
    _add_common(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("density", help="orthogonal density approximant on a grid")
    p.add_argument("config")
    _add_problem(p)
    p.add_argument("--nmax", type=int, default=10, help="order-selection cap")
    p.add_argument("--order", type=int, default=None, help="force a fixed order")
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
    p.add_argument("--kde-grid", default=None,
                   help="also write a kernel-density curve on start:stop:step "
                        "to OUT.kde.csv")
    p.add_argument("--out", required=True, help="output file")  # a sample file, not stdout
    p.add_argument("--seed", type=int, default=0, help="RNG seed (64-bit)")
    p.set_defaults(func=cmd_simulate)

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


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A library warning as one stderr line, in the form of the CLI's own."""
    sys.stderr.write(f"warning: {message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.raw_argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except LogifptError as exc:
        sys.stderr.write(f"{_EXIT_LABELS[exc.exit_code]}: {exc}\n")
        return exc.exit_code
    except _INPUT_ERRORS as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
