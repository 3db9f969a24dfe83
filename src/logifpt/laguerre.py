"""Gamma-referenced orthogonal density approximation from moments.

The n-th approximant, in normalized form, is

    g_n(t) = beta f_alpha(beta t) p(beta t),   p = sum_{k=0}^n b_k L_k^(alpha),
    f_alpha(x) = x^alpha e^-x / Gamma(alpha + 1),
    b_k = Gamma(alpha + 1) B_k = sum_j C(k, j) (-beta)^j E[T^j] / (alpha + 1)_j,

with generalized Laguerre polynomials L_k and the paper's Fourier
coefficients B_k.  So b_0 = 1, the n = 0 truncation is the Gamma density,
and matching (alpha, beta) to two moments makes b_1 and b_2 vanish.  The
moments, the matched (alpha, beta) and the terms c_j of the b_k are ``mpf``
values; the b_k are summed exactly, as integers at one binary exponent,
and rounded once to the working precision (the sums alternate violently
once moments span many decades).  Evaluation runs in double precision
through the three-term recurrence, with f_alpha taken through logarithms
so that it is finite for every alpha > -1; at a float x (p(0), the sign of
p between roots) the same operations run in Python floats and give the
same double.

Integrals are closed form.  By DLMF 18.9, d/dx [x^(alpha+1) e^-x
L_(k-1)^(alpha+1)(x)] = k x^alpha e^-x L_k^(alpha)(x), so the raw
distribution function is, with P the regularized incomplete gamma function,

    F(x) = P(alpha + 1, x) + x^(alpha+1) e^-x / Gamma(alpha + 1)
                             * sum_{k>=1} (b_k / k) L_(k-1)^(alpha+1)(x),

and F(inf) = 1.  The roots of p are the eigenvalues of its comrade matrix:
the Jacobi matrix of the recurrence with n b_k / b_n added to its last row,
at the degree n of the last term b_k L_k^(alpha) not negligible in norm.
The negative mass is a float sum of differences of F between roots, in
which an error in a root enters only at second order; F(inf) = b_0 is not
evaluated.  The corrected density is never negative; above CLIP_THRESHOLD
of negative mass it is renormalized as well.  The pre-correction mass is
always reported.
By orthogonality the raw expansion integrates to exactly 1.
``scipy.special`` is imported inside the functions that call it
(``_gamma_pdf``, ``_raw_cdf``): at module level scipy would be most of the
start-up time of every command, and most commands never evaluate a density.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, mpf_neg, round_nearest

from .analytics import MomentSet
from .errors import (ExpansionConditionWarning, InsufficientMoments, InvalidParams,
                     SingularOriginWarning, UnreliableMoments, ZeroVariance)

CLIP_THRESHOLD = 1e-12
NEGLIGIBLE_COEFF = 1e-13
ORDER_TOL = 1e-6  # order selection accepts n only when |b_n| < ORDER_TOL |b_0|


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

    The one place that decides whether a moment set gives a Gamma reference:
    the mean and the variance, taken at the set's precision, must both be
    > 0, the variance checked first.  Either not > 0 raises
    UnreliableMoments if the set flags its first or second moment; else a
    variance raises ZeroVariance and a mean InvalidParams.
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
        if not mp.isfinite(var):  # a non-finite mean or second moment
            raise InvalidParams(f"moments must be finite, got {ms.moments_float[:2]}")
        if not (var > 0 and mean > 0):
            what, value, error = (("variance", var, ZeroVariance) if not var > 0
                                  else ("mean", mean, InvalidParams))
            if ms.flagged and any(ms.flagged[:2]):
                raise UnreliableMoments(f"flagged moments give a {what} of {float(value)}, not > 0")
            raise error(f"{what} must be > 0, got {float(value)}")
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


def laguerre_coeffs(ms: MomentSet, g: GammaRef, n: int):
    """Normalized coefficients b_0..b_n in arbitrary precision.

    b_k = Gamma(alpha + 1) B_k, where B_k are the paper's Fourier-Laguerre
    coefficients, so b_0 = 1.  The terms c_j = s_j mu_j, with the scale
    s_j = (-beta)^j / (alpha + 1)_j a running product, follow the ``mpf``
    chain s_(j+1) = s_j (-beta / ((alpha + j) + 1)), run on ``_mpf_`` tuples
    through the ``mpmath.libmp`` functions that ``mpf``'s operators call, each
    rounded to nearest at the working precision.  No Gamma function is
    evaluated.  The c_j are brought to one binary exponent as exact ints, so
    each alternating sum b_k = sum_j C(k, j) c_j is exact and rounded once.
    """
    if n < 0:
        raise InvalidParams(f"order must be >= 0, got {n}")
    if ms.order < n:
        raise InsufficientMoments(f"need {n} moments, MomentSet carries {ms.order}")
    if not all(map(mp.isfinite, ms.moments[:n])):
        raise InvalidParams(f"moments must be finite, got {ms.moments_float[:n]}")
    prec, rnd = ms.precision, round_nearest
    one = from_int(1)
    neg_beta = mpf_neg(g.beta_mp._mpf_, prec, rnd)
    s = one
    parts = [one]
    for j, m in enumerate(ms.moments[:n]):
        t = mpf_add(mpf_add(g.alpha_mp._mpf_, from_int(j), prec, rnd), one, prec, rnd)
        s = mpf_mul(s, mpf_div(neg_beta, t, prec, rnd), prec, rnd)
        parts.append(mpf_mul(s, m._mpf_, prec, rnd))
    low = min(e for _, _, e, _ in parts)
    row = [(-m if sign else m) << (e - low) for sign, m, e, _ in parts]
    b = []
    for _ in range(n + 1):  # b_k = sum_j C(k, j) c_j, by Pascal's rule in k
        b.append(row[0])
        row = [x + y for x, y in zip(row, row[1:])]
    with mp.workprec(prec):
        return [mpf((x, low)) for x in b]


def _gamma_pdf(alpha: float, x):
    """f_alpha(x); at x = 0 it is 0, 1 or inf as alpha is > 0, = 0 or < 0."""
    from scipy import special

    return np.exp(special.xlogy(alpha, x) - x - special.gammaln(alpha + 1))


def _coeff_sum(coeffs, alpha: float, x):
    """sum_k b_k L_k^(alpha)(x), accumulated along the recurrence (0 if empty):
    a float for a float x, else an array of its shape, by the same operations."""
    if isinstance(x, float):
        prev, cur, acc = 0.0, 1.0, 0.0
    else:
        x = np.asarray(x, dtype=float)
        prev, cur, acc = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    for i, c in enumerate(coeffs):
        if i:
            prev, cur = cur, ((2 * i - 1 + alpha - x) * cur - (i - 1 + alpha) * prev) / i
        acc = acc + c * cur
    return acc


def _raw_cdf(coeffs: np.ndarray, alpha: float, x):
    """F(x), the integral of f_alpha p over (0, x), by the DLMF 18.9 antiderivative."""
    from scipy import special

    k = np.arange(1, len(coeffs))
    with np.errstate(invalid="ignore"):
        # x^(alpha+1) e^-x / Gamma(alpha+1): NaN at x = inf, where the term is 0
        w = (alpha + 1) * _gamma_pdf(alpha + 1, x)
        tail = w * _coeff_sum(coeffs[1:] / k, alpha + 1, x)
    return coeffs[0] * special.gammainc(alpha + 1, x) + np.where(w > 0, tail, 0.0)


def _degree(coeffs, alpha: float) -> int:
    """Index of the last b_k with |b_k| ||L_k^(alpha)|| > NEGLIGIBLE_COEFF |b_0|
    (0 if none), scanning down from the top: ||L_k^(alpha)||^2 = C(k + alpha, k),
    its squared norm under f_alpha (DLMF 18.3), reaches 1e18 at k = 20 and
    alpha = 59, so an unweighted cut drops terms that shape p.  In logarithms,
    by lgamma, with alpha capped at 1e300, nothing overflows; past about 1e14
    the alpha terms lose their digits, and past 1e18 they cancel to a weight of
    1 / sqrt(k!), which keeps the rounding-noise b_k of a flagged moment set
    negligible.  With b_0 = 0 every nonzero b_k counts; at alpha = -1, where
    f_alpha vanishes, none does."""
    small = NEGLIGIBLE_COEFF * abs(coeffs[0])
    if not alpha > -1:
        return 0
    a = min(alpha, 1e300)
    log_small = math.log(small) if small else -math.inf
    for k in range(len(coeffs) - 1, 0, -1):
        c = abs(coeffs[k])
        log_norm2 = math.lgamma(k + a + 1) - math.lgamma(a + 1) - math.lgamma(k + 1)
        if c and math.log(c) + log_norm2 / 2 > log_small:
            return k
    return 0


def _roots(coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Real positive roots of p, ascending, as comrade-matrix eigenvalues at
    the :func:`_degree` of p: the matrix divides by b_n, and a b_n that is
    rounding noise puts the roots anywhere."""
    n = _degree(coeffs, alpha)
    if n < 1:
        return np.empty(0)
    k = np.arange(1.0, n)
    jac = np.zeros((n, n))
    jac.flat[::n + 1] = 2 * np.arange(n) + alpha + 1.0
    jac.flat[1::n + 1] = -k
    jac.flat[n::n + 1] = -(k + alpha)
    jac[-1] += n * coeffs[:n] / coeffs[n]
    ev = np.linalg.eigvals(jac)
    return np.sort(ev.real[(ev.imag == 0) & (ev.real > 0)])


def _negative_intervals(coeffs: np.ndarray, alpha: float) -> list:
    """Ends (a, b), as float pairs, of the intervals of (0, inf) on which p < 0,
    each probed at its midpoint, the last, (a, inf), at 2 a + 1."""
    edges = [0.0, *_roots(coeffs, alpha).tolist(), math.inf]
    probes = [(a + b) / 2 for a, b in zip(edges, edges[1:-1])] + [2 * edges[-2] + 1]
    floats = coeffs.tolist()
    return [ends for ends, x in zip(zip(edges, edges[1:]), probes)
            if _coeff_sum(floats, alpha, x) < 0]


@dataclass
class LaguerreApproximant:
    """Evaluable truncated expansion plus its correction metadata.

    The negative mass and the correction follow from the coefficients and
    are computed on construction.
    """

    gamma: GammaRef
    coeffs: tuple            # float b_0..b_n used by evaluation
    converged: bool          # order-selection verdict
    negative_mass: float = field(init=False)   # mass below zero before correction
    clip_applied: bool = field(init=False)
    renorm_factor: float = field(init=False)

    def __post_init__(self):
        self._coeff_arr = np.asarray(self.coeffs, dtype=float)
        alpha = self.gamma.alpha
        self._neg = _negative_intervals(self._coeff_arr, alpha)

        def F(x):  # F(inf) = b_0 exactly
            return _raw_cdf(self._coeff_arr, alpha, x) if x < math.inf else self._coeff_arr[0]

        self.negative_mass = float(sum(F(a) - F(b) for a, b in self._neg))
        self.clip_applied = self.negative_mass > CLIP_THRESHOLD
        self.renorm_factor = 1.0 / (1.0 + self.negative_mass) if self.clip_applied else 1.0

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _mass_below(self, x):
        """Negative raw mass on (0, x), in the reference's x = beta t."""
        a, b = np.transpose(self._neg)  # called only when clipped, so never empty
        coeffs, alpha = self._coeff_arr, self.gamma.alpha
        upper = np.clip(np.asarray(x)[..., None], a, b)
        return np.sum(_raw_cdf(coeffs, alpha, a) - _raw_cdf(coeffs, alpha, upper), axis=-1)

    def density(self, t):
        """Approximant value(s) at t (1/time units); 0 for t < 0.

        The density is the expansion clipped at 0, so never negative; it is
        renormalized only when the negative mass was clipped
        (``renorm_factor`` is 1 otherwise).
        """
        t = np.asarray(t, dtype=float)
        alpha = self.gamma.alpha
        beta = self.gamma.beta
        x = beta * np.maximum(t, 0.0)
        vals = beta * _gamma_pdf(alpha, x) * _coeff_sum(self._coeff_arr, alpha, x)
        vals = np.maximum(np.where(t < 0, 0.0, vals), 0.0) * self.renorm_factor
        return float(vals) if t.ndim == 0 else vals

    def cdf(self, t):
        """Integral of the density over (0, t): exact, 1 at t = inf."""
        t = np.asarray(t, dtype=float)
        x = self.gamma.beta * np.maximum(t, 0.0)
        out = _raw_cdf(self._coeff_arr, self.gamma.alpha, x)
        if self.clip_applied:
            out = (out + self._mass_below(x)) / (1.0 + self.negative_mass)
        return float(out) if t.ndim == 0 else out


def select_order(coeffs_all, alpha: float):
    """Smallest order n in 3..n_max passing the stopping rules.

    ``coeffs_all`` holds the float coefficients b_0..b_{n_max} and alpha is
    the reference shape.  Accepts n when (i) p is positive at the origin
    and b_k at its :func:`_degree`, the last term not negligible in norm,
    keeps the tail non-negative, and (ii) |b_n| < ORDER_TOL |b_0|.  Returns
    (n_max, False) when no order qualifies.  The concrete thresholds are this
    implementation's choices.
    Normalization needs no rule: it holds exactly (see the module docstring).
    """
    n_max = len(coeffs_all) - 1
    b0 = coeffs_all[0]
    for n in range(3, n_max + 1):
        coeffs = coeffs_all[: n + 1]
        if abs(coeffs[n]) >= ORDER_TOL * abs(b0):
            continue
        if not _coeff_sum(coeffs, alpha, 0.0) > 0:
            continue
        lead = _degree(coeffs, alpha)
        if lead and (-1) ** lead * coeffs[lead] < 0:
            continue
        return n, True
    return n_max, False


def build_approximant(ms: MomentSet, n: int | None = None) -> LaguerreApproximant:
    """Assemble the approximant, selecting the order in 3..ms.order unless
    ``n`` is forced: the moment set's length is the order cap.

    The coefficients are computed once, up to the forced order or to
    ms.order; the selected order keeps the first n + 1 of them, which is
    exact because b_k depends only on the first k moments.
    """
    g = match_gamma(ms)
    coeffs = [float(c) for c in laguerre_coeffs(ms, g, ms.order if n is None else n)]
    if n is None:
        n, converged = select_order(coeffs, g.alpha)
    else:
        converged = True
    return LaguerreApproximant(gamma=g, coeffs=tuple(coeffs[: n + 1]), converged=converged)
