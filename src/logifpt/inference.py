"""Maximum-likelihood estimation of model parameters from crossing times.

The likelihood density is the moment-based orthogonal approximant: at every
candidate parameter point the theoretical moments are recomputed, the Gamma
reference is re-matched from those theoretical moments (never from the
sample), and the truncation order is re-selected up to n_max.  The surface
is therefore piecewise smooth with small jumps at order switches, which is
why optimisation uses a derivative-free simplex with box projection rather
than anything gradient-based.

Infeasible candidates (harvesting above growth, non-persistent regime,
threshold on the wrong side, non-convergent moment sums) receive a large
negative penalty instead of raising, keeping the simplex inside the
analyzable region.

Only what callers vary is configurable (:class:`MleConfig`).  The rest is
fixed: the simplex stays inside DEFAULT_BOUNDS, the order is selected at
tolerance 1e-6, and densities are floored at 1e-300 before the logarithm.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .analytics import fpt_moments
from .errors import (EmptySample, ExpansionConditionWarning, InvalidParams,
                     LogifptError, NoFeasibleStart, SingularOriginWarning)
from .laguerre import build_approximant, match_gamma
from .model import (Direction, FptProblem, ModelParams, derive_params,
                    validate_problem)
from .montecarlo import FptSample, SimConfig, empirical_moments, sample_fpt

PARAM_NAMES = ("sigma", "r", "x0", "U", "K", "q", "E")
_MODEL_KEYS = ("r", "K", "q", "E", "sigma", "x0")

PENALTY = -1e300

DEFAULT_BOUNDS = {
    "sigma": (1e-3, 5.0),
    "r": (1e-3, 10.0),
    "x0": (1e-9, 1e12),
    "U": (1e-9, 1e12),
    "K": (1.0, 1e12),
    "q": (0.0, 1.0),
    "E": (0.0, 1e9),
}


@dataclass(frozen=True)
class MleConfig:
    """Which parameters to estimate, the starting point, and the order cap,
    precision and iteration cap of the fit."""

    estimate: tuple
    fixed: dict
    init: dict
    direction: Direction = Direction.UP
    n_max: int = 10
    precision: int = 256
    max_iter: int = 250

    def __post_init__(self):
        est = tuple(self.estimate)
        unknown = [p for p in est if p not in PARAM_NAMES]
        if unknown:
            raise InvalidParams(f"unknown parameters to estimate: {unknown}")
        overlap = set(est) & set(self.fixed)
        if overlap:
            raise InvalidParams(f"parameters both estimated and fixed: {sorted(overlap)}")
        missing = [p for p in PARAM_NAMES if p not in est and p not in self.fixed]
        if missing:
            raise InvalidParams(f"parameters neither estimated nor fixed: {missing}")
        bad_init = [p for p in est if p not in self.init]
        if bad_init:
            raise InvalidParams(f"no initial value for: {bad_init}")


@dataclass
class MleResult:
    estimates: dict
    loglik: float
    iterations: int
    n_evals: int
    converged: bool
    stop_reason: str = "tolerance"  # "tolerance" or "max_iterations"
    gamma_seed: tuple | None = None  # (alpha, beta) matched from sample moments
    trace: list | None = None

    def to_dict(self) -> dict:
        return {
            "estimates": dict(self.estimates),
            "loglik": self.loglik,
            "iterations": self.iterations,
            "n_evals": self.n_evals,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "gamma_seed": list(self.gamma_seed) if self.gamma_seed else None,
        }


def _assemble(theta: dict, cfg: MleConfig):
    """Candidate point -> (ModelParams, FptProblem); raises on bad values."""
    full = {**cfg.fixed, **theta}
    params = ModelParams(**{k: float(full[k]) for k in _MODEL_KEYS})
    problem = FptProblem(cfg.direction, float(full["U"]))
    return params, problem


def log_likelihood(theta: dict, data: FptSample, cfg: MleConfig) -> float:
    """Sum of log approximant densities at the observed crossing times.

    The Gamma reference is matched from the theoretical moments of the
    candidate point and the truncation order re-selected (cap cfg.n_max) at
    every call.  Infeasible or non-convergent candidates (any LogifptError)
    return the penalty value instead of raising; other exceptions are bugs
    and propagate.
    """
    if data.n == 0:
        raise EmptySample("cannot evaluate a likelihood on an empty sample")
    try:
        params, problem = _assemble(theta, cfg)
        d = derive_params(params, precision=cfg.precision)
        if validate_problem(d, problem):
            return PENALTY  # degenerate point mass at zero
        ms = fpt_moments(d, problem, order=cfg.n_max, max_rel_error=1e-6)
        if not (ms.mean > 0 and ms.variance > 0):
            return PENALTY
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SingularOriginWarning)
            warnings.simplefilter("ignore", ExpansionConditionWarning)
            apx = build_approximant(ms, n_max=cfg.n_max)
        dens = apx.density(data.times)
        return float(np.sum(np.log(np.maximum(dens, 1e-300))))
    except LogifptError:
        return PENALTY


def mle_fit(data: FptSample, cfg: MleConfig, keep_trace: bool = False) -> MleResult:
    """Derivative-free simplex ascent of the log likelihood.

    Box bounds are enforced by projection inside the optimizer; stopping is
    controlled by the simplex size (1e-4) and function spread (1e-6) or
    the iteration cap.  An empty estimate list returns the initial point
    unchanged and is reported as converged.
    """
    if data.n == 0:
        raise EmptySample("cannot fit an empty sample")
    gamma_seed = None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            emp = empirical_moments(data, 2)
            g = match_gamma(emp)
            gamma_seed = (g.alpha, g.beta)
    except LogifptError:
        pass
    names = tuple(cfg.estimate)
    if not names:
        ll = log_likelihood({}, data, cfg)
        return MleResult(estimates={}, loglik=ll, iterations=0, n_evals=1,
                         converged=True, gamma_seed=gamma_seed)
    x_init = np.array([float(cfg.init[p]) for p in names])
    ll_init = log_likelihood(dict(zip(names, x_init)), data, cfg)
    if ll_init <= PENALTY / 2:
        raise NoFeasibleStart(f"initial point {dict(zip(names, x_init))} is infeasible")
    trace = [] if keep_trace else None
    best = [-math.inf]

    def neg_ll(x):
        val = log_likelihood(dict(zip(names, x)), data, cfg)
        if val > best[0]:
            best[0] = val
        if trace is not None:
            trace.append((list(map(float, x)), float(val), float(best[0])))
        return -val

    bounds = optimize.Bounds(
        np.array([DEFAULT_BOUNDS[p][0] for p in names]),
        np.array([DEFAULT_BOUNDS[p][1] for p in names]))
    res = optimize.minimize(
        neg_ll, x_init, method="Nelder-Mead", bounds=bounds,
        options={"maxiter": cfg.max_iter, "xatol": 1e-4,
                 "fatol": 1e-6, "adaptive": False})
    return MleResult(
        estimates={p: float(v) for p, v in zip(names, res.x)},
        loglik=-float(res.fun), iterations=int(res.nit), n_evals=int(res.nfev),
        converged=bool(res.success),
        stop_reason="tolerance" if res.success else "max_iterations",
        gamma_seed=gamma_seed, trace=trace)


@dataclass
class StudyReport:
    """Bias / MSE / mean relative error per (N, subset, parameter)."""

    rows: list

    def to_csv(self, fh) -> None:
        fh.write("N,subset,parameter,bias,mse,err_pct,n_converged,replications\n")
        for r in self.rows:
            fh.write("{N},{subset},{parameter},{bias!r},{mse!r},{err_pct!r},"
                     "{n_converged},{replications}\n".format(**r))


def mc_study(truth: ModelParams, problem: FptProblem, Ns, subsets,
             replications: int, master_seed: int = 20240, dt: float = 1e-3,
             horizon: float = 60.0, cfg_overrides: dict | None = None) -> StudyReport:
    """Repeated synthetic-data estimation at a known truth.

    For every (subset, N, replication) a fresh sample of N crossing times is
    simulated at the truth with a seed derived deterministically from
    master_seed, then fitted.  Initial points are the true values nudged by
    fixed relative offsets (so recovery is not an artifact of starting at
    the optimum).  Replications run sequentially; the whole study is
    bit-reproducible for a fixed master seed.
    """
    d_truth = derive_params(truth)
    truth_vals = {**truth.to_dict(), "U": problem.threshold}
    offsets = {"sigma": 0.15, "r": -0.10, "x0": 0.20, "U": 0.10,
               "K": -0.15, "q": 0.10, "E": 0.10}
    overrides = cfg_overrides or {}
    rows = []
    for si, subset in enumerate(subsets):
        subset = tuple(subset)
        fixed = {p: truth_vals[p] for p in PARAM_NAMES if p not in subset}
        init = {p: truth_vals[p] * (1 + offsets[p]) for p in subset}
        cfg = MleConfig(estimate=subset, fixed=fixed, init=init,
                        direction=problem.direction, **overrides)
        for N in Ns:
            fits = []
            ok = 0
            for rep in range(replications):
                seed = int(np.random.SeedSequence(
                    (master_seed, si, N, rep)).generate_state(1)[0])
                sample = sample_fpt(d_truth, SimConfig(
                    problem=problem, paths=N, dt=dt, horizon=horizon, seed=seed))
                fit = mle_fit(sample, cfg)
                fits.append(fit.estimates)
                ok += int(fit.converged)
            for p in subset:
                est = np.array([f[p] for f in fits])
                tv = truth_vals[p]
                rows.append({
                    "N": N, "subset": "+".join(subset), "parameter": p,
                    "bias": float(np.mean(est - tv)),
                    "mse": float(np.mean((est - tv) ** 2)),
                    "err_pct": float(100.0 * np.mean(np.abs(est - tv) / abs(tv))),
                    "n_converged": ok, "replications": replications,
                })
    return StudyReport(rows=rows)
