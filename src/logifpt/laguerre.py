"""Gamma-referenced orthogonal density approximation from moments.

The n-th approximant is

    g_n(t) = beta (beta t)^alpha exp(-beta t) * sum_{k=0}^n B_k L_k^(alpha)(beta t),

with generalized Laguerre polynomials L_k and Fourier coefficients

    B_k = sum_j C(k, j) (-beta)^j E[T^j] / Gamma(alpha + j + 1),

so B_0 = 1/Gamma(alpha+1) and the n = 0 truncation is exactly the Gamma
density.  Matching (alpha, beta) to the first two moments makes B_1 and B_2
vanish.  Coefficients are accumulated in arbitrary precision (the sums
alternate violently once moments span many decades) and downcast for
evaluation, which runs in double precision through the three-term
recurrence.

Truncation-order selection and the positivity correction follow simple,
explicitly documented rules: normalization is checked by generalized
Gauss-Laguerre quadrature, origin/tail signs come from the constant and
leading polynomial coefficients, and negative parts are clipped to zero
followed by renormalization (the measured pre-correction negative mass is
always reported).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf
import mpmath
from scipy import special, stats

from .analytics import MomentSet
from .errors import (ExpansionConditionWarning, InsufficientMoments,
                     SingularOriginWarning, ZeroVariance)

GAMMA_TAIL_MASS = 1e-13
CLIP_THRESHOLD = 1e-12
NEGLIGIBLE_COEFF = 1e-13


@dataclass(frozen=True)
class GammaRef:
    """Gamma reference measure: density ~ (beta t)^alpha exp(-beta t)."""

    alpha_mp: object
    beta_mp: object

    @property
    def alpha(self) -> float:
        return float(self.alpha_mp)

    @property
    def beta(self) -> float:
        return float(self.beta_mp)


def match_gamma(ms: MomentSet) -> GammaRef:
    """Moment-matched reference: alpha = mean^2/var - 1, beta = mean/var.

    Warns (does not fail) when the matched shape is singular at the origin
    (alpha < 0, i.e. coefficient of variation above one) and when the
    sufficient expansion condition beta < 2/mean is violated; the expansion
    is applied regardless in both cases.
    """
    if ms.order < 2:
        raise InsufficientMoments("moment matching needs order >= 2")
    with mp.workprec(ms.precision):
        mean = ms.moments[0]
        var = ms.moments[1] - mean ** 2
        if not var > 0:
            raise ZeroVariance(f"variance must be > 0, got {float(var)}")
        alpha = mean ** 2 / var - 1
        beta = mean / var
        if alpha < 0:
            warnings.warn(
                f"matched shape offset alpha = {float(alpha):.4g} < 0: reference "
                "density is singular at the origin (cv > 1)",
                SingularOriginWarning, stacklevel=2)
        if beta >= 2 / mean:
            warnings.warn(
                f"matched rate beta = {float(beta):.4g} violates the sufficient "
                f"condition beta < 2/mean = {float(2 / mean):.4g}",
                ExpansionConditionWarning, stacklevel=2)
    return GammaRef(alpha_mp=alpha, beta_mp=beta)


def laguerre_poly(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^(alpha) by the three-term recurrence.

    Accepts scalars or numpy arrays; the explicit binomial sum is reserved
    for test oracles at small k.
    """
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for i in range(k):
        prev, cur = cur, ((2 * i + 1 + alpha - x) * cur - (i + alpha) * prev) / (i + 1)
    return cur if cur.shape else float(cur)


def laguerre_coeffs(ms: MomentSet, g: GammaRef, n: int):
    """Fourier-Laguerre coefficients B_0..B_n in arbitrary precision."""
    if ms.order < n:
        raise InsufficientMoments(f"need {n} moments, MomentSet carries {ms.order}")
    with mp.workprec(ms.precision):
        alpha = g.alpha_mp
        beta = g.beta_mp
        mu = (mpf(1),) + tuple(ms.moments)
        c = []
        bj = mpf(1)
        for j in range(n + 1):
            c.append(bj * mu[j] / mpmath.gamma(alpha + j + 1))
            bj *= -beta
        out = [sum((math.comb(k, j) * c[j] for j in range(k + 1)), mpf(0))
               for k in range(n + 1)]
    return out


def _coeff_sum(coeffs: np.ndarray, alpha: float, x: np.ndarray) -> np.ndarray:
    """sum_k B_k L_k^(alpha)(x), accumulated along the recurrence."""
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    acc = coeffs[0] * cur
    for i in range(len(coeffs) - 1):
        prev, cur = cur, ((2 * i + 1 + alpha - x) * cur - (i + alpha) * prev) / (i + 1)
        acc = acc + coeffs[i + 1] * cur
    return acc


def _laguerre_at_zero(k: int, alpha: float) -> float:
    # L_k^(alpha)(0) = C(k + alpha, k)
    return math.exp(special.gammaln(alpha + k + 1)
                    - special.gammaln(k + 1) - special.gammaln(alpha + 1))


def _norm_residual(coeffs: np.ndarray, alpha: float) -> float:
    """|integral of the raw approximant - 1| by generalized Gauss-Laguerre."""
    deg = max(2 * len(coeffs) + 8, 24)
    nodes, weights = special.roots_genlaguerre(deg, alpha)
    vals = _coeff_sum(coeffs, alpha, nodes)
    return abs(float(weights @ vals) - 1.0)


def _t_cut(alpha: float, beta: float, n: int) -> float:
    # quantile of the Gamma with the polynomial degree absorbed in the shape
    return 1.25 * float(stats.gamma.ppf(1 - GAMMA_TAIL_MASS, a=alpha + n + 1,
                                        scale=1.0 / beta))


@dataclass
class LaguerreApproximant:
    """Evaluable truncated expansion plus its correction metadata."""

    gamma: GammaRef
    order: int
    coeffs: tuple            # float view used by evaluation
    coeffs_mp: tuple         # full-precision coefficients
    clip_applied: bool
    renorm_factor: float
    norm_residual: float     # Gauss-Laguerre residual of the raw expansion
    negative_mass: float     # mass below zero before correction
    converged: bool          # order-selection verdict
    t_cut: float

    def __post_init__(self):
        self._coeff_arr = np.asarray(self.coeffs, dtype=float)
        self._cdf_cache = None

    def density(self, t, corrected: bool = True):
        """Approximant value(s) at t >= 0 (1/time units)."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        alpha = self.gamma.alpha
        beta = self.gamma.beta
        x = beta * t
        with np.errstate(divide="ignore", invalid="ignore"):
            weight = beta * np.power(x, alpha) * np.exp(-x)
        weight = np.where(x == 0, beta if alpha == 0 else (0.0 if alpha > 0 else np.inf),
                          weight)
        vals = weight * _coeff_sum(self._coeff_arr, alpha, x)
        if corrected and self.clip_applied:
            vals = np.maximum(vals, 0.0) * self.renorm_factor
        return float(vals[0]) if scalar else vals

    def _ensure_cdf(self):
        if self._cdf_cache is None:
            ts = _hybrid_grid(self.t_cut, self.gamma.alpha)
            dens = self.density(ts)
            dens = np.nan_to_num(dens, posinf=0.0)  # singular origin carries no mass
            cum = np.concatenate([[0.0], np.cumsum(np.diff(ts) * 0.5 * (dens[1:] + dens[:-1]))])
            self._cdf_cache = (ts, np.clip(cum, 0.0, None))

    def cdf(self, t):
        """Integrated corrected density; 0 at t = 0, ~1 at the tail cut."""
        self._ensure_cdf()
        ts, cum = self._cdf_cache
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        out = np.interp(np.atleast_1d(t), ts, cum, left=0.0, right=cum[-1])
        return float(out[0]) if scalar else out


def _hybrid_grid(t_cut: float, alpha: float) -> np.ndarray:
    lin = np.linspace(0.0, t_cut, 6000)
    if alpha < 1:
        # resolve the power-law origin
        log = np.geomspace(max(t_cut * 1e-14, 1e-300), t_cut / 6000, 2000)
        return np.unique(np.concatenate([lin, log]))
    return lin


def _negative_mass(coeffs: np.ndarray, alpha: float, beta: float, t_cut: float) -> float:
    """Pre-correction mass of the negative part, by trapezoid on a hybrid grid."""
    ts = _hybrid_grid(t_cut, alpha)
    x = beta * ts
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = beta * np.power(x, alpha) * np.exp(-x)
    weight = np.where(x == 0, beta if alpha == 0 else (0.0 if alpha > 0 else np.inf),
                      weight)
    vals = weight * _coeff_sum(coeffs, alpha, x)
    neg = np.maximum(-vals, 0.0)
    neg = np.nan_to_num(neg, posinf=0.0)
    mass = float(np.trapezoid(neg, ts))
    # analytic head below the first positive grid point (power-law regime)
    ts_pos = ts[ts > 0]
    if alpha < 1 and len(ts_pos):
        p0 = float(_coeff_sum(coeffs, alpha, np.array([0.0]))[0])
        if p0 < 0:
            x0 = beta * ts_pos[0]
            mass += -p0 * x0 ** (alpha + 1) / (alpha + 1)
    return float(mass)


def select_order(coeffs_all, alpha: float, tol: float = 1e-6):
    """Smallest order n in 3..n_max passing the stopping rules.

    ``coeffs_all`` holds the float coefficients B_0..B_{n_max} and alpha is
    the reference shape.  Accepts n when (i) the Gauss-Laguerre
    normalization residual is below tol, (ii) the constant polynomial
    coefficient is positive at the origin and the highest non-negligible
    coefficient keeps the tail non-negative, and (iii) |B_n| / B_0 < tol.
    Returns (n_max, False) when no order qualifies.  The concrete thresholds
    are this implementation's choices.
    """
    n_max = len(coeffs_all) - 1
    b0 = coeffs_all[0]
    for n in range(3, n_max + 1):
        coeffs = np.asarray(coeffs_all[: n + 1])
        if abs(coeffs[n]) >= tol * abs(b0):
            continue
        at_zero = sum(coeffs[k] * _laguerre_at_zero(k, alpha) for k in range(n + 1))
        if not at_zero > 0:
            continue
        lead = max((k for k in range(1, n + 1)
                    if abs(coeffs[k]) > NEGLIGIBLE_COEFF * abs(b0)), default=0)
        if lead and (-1) ** lead * coeffs[lead] < 0:
            continue
        if _norm_residual(coeffs, alpha) >= tol:
            continue
        return n, True
    return n_max, False


def build_approximant(ms: MomentSet, n: int | None = None, n_max: int = 10,
                      tol: float = 1e-6) -> LaguerreApproximant:
    """Assemble the approximant, selecting the order unless ``n`` is forced.

    The coefficients are computed once, up to the forced order or to
    min(n_max, ms.order); the selected order keeps the first n + 1 of them,
    which is exact because B_k depends only on the first k moments.
    """
    g = match_gamma(ms)
    coeffs_mp = laguerre_coeffs(ms, g, min(n_max, ms.order) if n is None else n)
    coeffs = [float(c) for c in coeffs_mp]
    if n is None:
        n, converged = select_order(coeffs, g.alpha, tol=tol)
    else:
        converged = True
    coeffs_mp = coeffs_mp[: n + 1]
    coeffs = np.array(coeffs[: n + 1])
    residual = _norm_residual(coeffs, g.alpha)
    t_cut = _t_cut(g.alpha, g.beta, n)
    neg = _negative_mass(coeffs, g.alpha, g.beta, t_cut)
    clip = neg > CLIP_THRESHOLD
    renorm = 1.0 / (1.0 + neg) if clip else 1.0
    return LaguerreApproximant(
        gamma=g, order=n, coeffs=tuple(coeffs), coeffs_mp=tuple(coeffs_mp),
        clip_applied=clip, renorm_factor=renorm, norm_residual=residual,
        negative_mass=neg, converged=converged, t_cut=t_cut)
