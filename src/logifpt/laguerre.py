"""Gamma-referenced orthogonal density approximation from moments.

The n-th approximant, in normalized form, is

    g_n(t) = beta f_alpha(beta t) p(beta t),   p = sum_{k=0}^n b_k L_k^(alpha),
    f_alpha(x) = x^alpha e^-x / Gamma(alpha + 1),
    b_k = Gamma(alpha + 1) B_k = sum_j C(k, j) (-beta)^j E[T^j] / (alpha + 1)_j,

with generalized Laguerre polynomials L_k and the paper's Fourier
coefficients B_k.  So b_0 = 1, the n = 0 truncation is the Gamma density,
and matching (alpha, beta) to two moments makes b_1 and b_2 vanish.  The b_k
are summed exactly, as integers at one binary exponent, and rounded once to
the working precision (the sums alternate violently once moments span many
decades); evaluation runs in double precision through the three-term
recurrence, with f_alpha taken through logarithms so that it is finite for
every alpha > -1.

Integrals are closed form.  By DLMF 18.9, d/dx [x^(alpha+1) e^-x
L_(k-1)^(alpha+1)(x)] = k x^alpha e^-x L_k^(alpha)(x), so the raw
distribution function is, with P the regularized incomplete gamma function,

    F(x) = P(alpha + 1, x) + x^(alpha+1) e^-x / Gamma(alpha + 1)
                             * sum_{k>=1} (b_k / k) L_(k-1)^(alpha+1)(x),

and F(inf) = 1.  The roots of p are the eigenvalues of its comrade matrix:
the Jacobi matrix of the recurrence with n b_k / b_n added to its last row.
The negative mass is a sum of differences of F between roots, in which an
error in a root enters only at second order.  The corrected density is
never negative; above CLIP_THRESHOLD of negative mass it is renormalized as
well.  The pre-correction mass is always reported.
By orthogonality the raw expansion integrates to exactly 1, so
``norm_residual`` (Gauss-Laguerre quadrature of p, computed on first use)
reports only how well p is conditioned in double precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import mpmath
import numpy as np
from mpmath import mp, mpf
from scipy import linalg, special

from .analytics import MomentSet
from .errors import (ExpansionConditionWarning, InsufficientMoments, InvalidParams,
                     SingularOriginWarning, ZeroVariance)

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
    out = _coeff_sum(np.eye(k + 1)[k], alpha, x)
    return out if out.shape else float(out)


def laguerre_coeffs(ms: MomentSet, g: GammaRef, n: int):
    """Normalized coefficients b_0..b_n in arbitrary precision.

    b_k = Gamma(alpha + 1) B_k, where B_k are the paper's Fourier-Laguerre
    coefficients, so b_0 = 1.  The rising factorial (alpha + 1)_j is a
    running product; no Gamma function is evaluated.  The terms c_j are
    brought to one binary exponent as exact ints, so each alternating sum
    b_k = sum_j C(k, j) c_j is exact and rounded once.
    """
    if ms.order < n:
        raise InsufficientMoments(f"need {n} moments, MomentSet carries {ms.order}")
    with mp.workprec(ms.precision):
        mu = (mpf(1),) + tuple(ms.moments)
        c = []
        scale = mpf(1)  # (-beta)^j / (alpha + 1)_j
        for j in range(n + 1):
            c.append(scale * mu[j])
            scale *= -g.beta_mp / (g.alpha_mp + j + 1)
        if not all(mpmath.isfinite(x) for x in c):
            raise InvalidParams(f"moments must be finite, got {[float(m) for m in mu[1:n + 1]]}")
        parts = [x._mpf_ for x in c]  # (sign, man, exp, bitcount)
        low = min(exp for _, _, exp, _ in parts)
        ints = [(-man if sign else man) << (exp - low) for sign, man, exp, _ in parts]
        return [mpf((sum(math.comb(k, j) * ints[j] for j in range(k + 1)), low))
                for k in range(n + 1)]


def _gamma_pdf(alpha: float, x):
    """f_alpha(x); at x = 0 it is 0, 1 or inf as alpha is > 0, = 0 or < 0."""
    return np.exp(special.xlogy(alpha, x) - x - special.gammaln(alpha + 1))


def _coeff_sum(coeffs: np.ndarray, alpha: float, x) -> np.ndarray:
    """sum_k b_k L_k^(alpha)(x), accumulated along the recurrence (0 if empty)."""
    x = np.asarray(x, dtype=float)
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    acc = np.zeros_like(x)
    for i, c in enumerate(coeffs):
        if i:
            prev, cur = cur, ((2 * i - 1 + alpha - x) * cur - (i - 1 + alpha) * prev) / i
        acc = acc + c * cur
    return acc


def _raw_cdf(coeffs: np.ndarray, alpha: float, x) -> np.ndarray:
    """F(x), the integral of f_alpha p over (0, x), by the DLMF 18.9 antiderivative."""
    k = np.arange(1, len(coeffs))
    with np.errstate(invalid="ignore"):
        # x^(alpha+1) e^-x / Gamma(alpha+1): NaN at x = inf, where the term is 0
        w = (alpha + 1) * _gamma_pdf(alpha + 1, x)
        tail = w * _coeff_sum(coeffs[1:] / k, alpha + 1, x)
    return coeffs[0] * special.gammainc(alpha + 1, x) + np.where(w > 0, tail, 0.0)


def _roots(coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Real positive roots of p, ascending, as comrade-matrix eigenvalues.

    Trailing coefficients at or below NEGLIGIBLE_COEFF |b_0| are dropped
    first: the matrix divides by b_n, and a b_n that is rounding noise puts
    the roots anywhere.
    """
    big = np.flatnonzero(np.abs(coeffs) > NEGLIGIBLE_COEFF * abs(coeffs[0]))
    n = big[-1] if len(big) else 0
    if n < 1:
        return np.empty(0)
    k = np.arange(1.0, n)
    jac = (np.diag(2 * np.arange(n) + alpha + 1.0)
           - np.diag(k, 1) - np.diag(k + alpha, -1))
    jac[-1] += n * coeffs[:n] / coeffs[n]
    ev = np.linalg.eigvals(jac)
    return np.sort(ev.real[(ev.imag == 0) & (ev.real > 0)])


def _negative_intervals(coeffs: np.ndarray, alpha: float):
    """Ends (a, b) of the intervals of (0, inf) on which p < 0."""
    edges = np.concatenate([[0.0], _roots(coeffs, alpha), [np.inf]])
    inner = np.append((edges[:-2] + edges[1:-1]) / 2, 2 * edges[-2] + 1)
    neg = _coeff_sum(coeffs, alpha, inner) < 0
    return edges[:-1][neg], edges[1:][neg]


def _norm_residual(coeffs: np.ndarray, alpha: float) -> float:
    """|integral of f_alpha p - 1| by generalized Gauss-Laguerre quadrature.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix, the weights (normalized to sum to 1) the squared first
    components of its eigenvectors.
    """
    m = max(2 * len(coeffs) + 8, 24)
    k = np.arange(1, m)
    nodes, vecs = linalg.eigh_tridiagonal(2 * np.arange(m) + alpha + 1.0,
                                          np.sqrt(k * (k + alpha)))
    return abs(float(vecs[0] ** 2 @ _coeff_sum(coeffs, alpha, nodes)) - 1.0)


@dataclass
class LaguerreApproximant:
    """Evaluable truncated expansion plus its correction metadata.

    The negative mass and the correction follow from the coefficients and
    are computed on construction; ``norm_residual`` on first use.
    """

    gamma: GammaRef
    order: int
    coeffs: tuple            # float b_0..b_n used by evaluation
    converged: bool          # order-selection verdict
    negative_mass: float = field(init=False)   # mass below zero before correction
    clip_applied: bool = field(init=False)
    renorm_factor: float = field(init=False)

    def __post_init__(self):
        self._coeff_arr = np.asarray(self.coeffs, dtype=float)
        alpha = self.gamma.alpha
        self._neg = _negative_intervals(self._coeff_arr, alpha)
        self.negative_mass = float(self._mass_below(np.inf))
        self.clip_applied = self.negative_mass > CLIP_THRESHOLD
        self.renorm_factor = 1.0 / (1.0 + self.negative_mass) if self.clip_applied else 1.0

    @cached_property
    def norm_residual(self) -> float:
        """|integral of the raw expansion - 1|: a float-conditioning report."""
        return _norm_residual(self._coeff_arr, self.gamma.alpha)

    def _mass_below(self, x):
        """Negative raw mass on (0, x), in the reference's x = beta t."""
        a, b = self._neg
        coeffs, alpha = self._coeff_arr, self.gamma.alpha
        upper = np.clip(np.asarray(x)[..., None], a, b)
        return np.sum(_raw_cdf(coeffs, alpha, a) - _raw_cdf(coeffs, alpha, upper), axis=-1)

    def density(self, t, corrected: bool = True):
        """Approximant value(s) at t (1/time units); 0 for t < 0.

        The corrected density is never negative; it is renormalized only when
        the negative mass was clipped (``renorm_factor`` is 1 otherwise).
        """
        t = np.asarray(t, dtype=float)
        alpha = self.gamma.alpha
        beta = self.gamma.beta
        x = beta * np.maximum(t, 0.0)
        vals = beta * _gamma_pdf(alpha, x) * _coeff_sum(self._coeff_arr, alpha, x)
        vals = np.where(t < 0, 0.0, vals)
        if corrected:
            vals = np.maximum(vals, 0.0) * self.renorm_factor
        return float(vals) if t.ndim == 0 else vals

    def cdf(self, t):
        """Integral of the (corrected) density over (0, t): exact, 1 at t = inf."""
        t = np.asarray(t, dtype=float)
        x = self.gamma.beta * np.maximum(t, 0.0)
        out = _raw_cdf(self._coeff_arr, self.gamma.alpha, x)
        if self.clip_applied:
            out = (out + self._mass_below(x)) / (1.0 + self.negative_mass)
        return float(out) if t.ndim == 0 else out


def select_order(coeffs_all, alpha: float, tol: float = 1e-6):
    """Smallest order n in 3..n_max passing the stopping rules.

    ``coeffs_all`` holds the float coefficients b_0..b_{n_max} and alpha is
    the reference shape.  Accepts n when (i) p is positive at the origin
    and the highest non-negligible coefficient keeps the tail non-negative,
    and (ii) |b_n| / b_0 < tol.  Returns (n_max, False) when no order
    qualifies.  The concrete thresholds are this implementation's choices.
    Normalization needs no rule: it holds exactly (see the module docstring).
    """
    n_max = len(coeffs_all) - 1
    b0 = coeffs_all[0]
    for n in range(3, n_max + 1):
        coeffs = np.asarray(coeffs_all[: n + 1])
        if abs(coeffs[n]) >= tol * abs(b0):
            continue
        if not _coeff_sum(coeffs, alpha, 0.0) > 0:
            continue
        lead = max((k for k in range(1, n + 1)
                    if abs(coeffs[k]) > NEGLIGIBLE_COEFF * abs(b0)), default=0)
        if lead and (-1) ** lead * coeffs[lead] < 0:
            continue
        return n, True
    return n_max, False


def build_approximant(ms: MomentSet, n: int | None = None, n_max: int = 10,
                      tol: float = 1e-6) -> LaguerreApproximant:
    """Assemble the approximant, selecting the order unless ``n`` is forced.

    The coefficients are computed once, up to the forced order or to
    min(n_max, ms.order); the selected order keeps the first n + 1 of them,
    which is exact because b_k depends only on the first k moments.
    """
    g = match_gamma(ms)
    coeffs = [float(c) for c in
              laguerre_coeffs(ms, g, min(n_max, ms.order) if n is None else n)]
    if n is None:
        n, converged = select_order(coeffs, g.alpha, tol=tol)
    else:
        converged = True
    return LaguerreApproximant(gamma=g, order=n, coeffs=tuple(coeffs[: n + 1]),
                               converged=converged)
