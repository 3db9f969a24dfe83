"""Crossing-time moments, cumulants, and Gamma-consistency diagnostics.

Moments come from the coefficient recursion of the transform ratio (default)
or, equivalently, from the Bell-polynomial closed form of the reciprocal
denominator series; the two routes are cross-checked in the test suite to
high precision.  Cumulants come from logarithmic polynomials applied to the
building-block series, which is cheaper and better conditioned than the
generic moment-to-cumulant conversion (also provided, as an oracle).

All values are held in arbitrary precision and downcast only through the
``*_float`` accessors.  Downcrossing results carry per-order relative error
estimates inherited from the optimally-truncated asymptotic sums; orders
whose estimate exceeds FLAG_RTOL are flagged rather than silently returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import mpmath
from mpmath import mp, mpf

from .errors import NonConvergent
from .kernels import (L_SERIES_TOL, N_MAX_DEFAULT, SeriesDiagnostics,
                      asymptotic_sum, convergent_sum, ensure_table, l_series,
                      lbar_series, q_series)
from .model import DerivedParams, Direction, FptProblem, validate_problem
from .series import (ExpSeries, falling_factorial, log_polynomials,
                     series_product, series_ratio, series_reciprocal_bell)

FLAG_RTOL = 1e-8


class MomentMethod(Enum):
    RECURSION = "recursion"
    BELL_CLOSED_FORM = "bell"
    FINITE_DIFFERENCE = "fd"
    EMPIRICAL = "empirical"


@dataclass(frozen=True)
class MomentSet:
    """Raw moments E[T^k] for k = 1..order (index 0 of ``moments`` is k=1)."""

    problem: FptProblem
    order: int
    moments: tuple
    method: MomentMethod
    precision: int
    degenerate: bool = False
    error_estimates: tuple | None = None  # relative, per order (downcrossing)
    flagged: tuple | None = None
    diagnostics: object = None  # SeriesDiagnostics of the building blocks

    def moment(self, k: int):
        if not 1 <= k <= self.order:
            raise IndexError(f"order {k} outside 1..{self.order}")
        return self.moments[k - 1]

    @property
    def moments_float(self) -> tuple:
        return tuple(float(m) for m in self.moments)

    @property
    def mean(self):
        return self.moments[0]

    @property
    def variance(self):
        if self.order < 2:
            raise IndexError("variance needs order >= 2")
        return self.moments[1] - self.moments[0] ** 2


@dataclass(frozen=True)
class CumulantSet:
    """Cumulants c_1..c_n with the Gamma-structure diagnostic ratios."""

    problem: FptProblem
    order: int
    cumulants: tuple
    precision: int
    degenerate: bool = False

    def cumulant(self, k: int):
        if not 1 <= k <= self.order:
            raise IndexError(f"order {k} outside 1..{self.order}")
        return self.cumulants[k - 1]

    @property
    def cumulants_float(self) -> tuple:
        return tuple(float(c) for c in self.cumulants)

    @property
    def ratios(self) -> tuple | None:
        """(c1/c2, 2 c2/c3, 3 c3/c4); each equals the Gamma rate for an
        exactly Gamma-distributed crossing time."""
        if self.order < 4:
            return None
        c = self.cumulants
        return (c[0] / c[1], 2 * c[1] / c[2], 3 * c[2] / c[3])


def _zero_moments(prob, order, method, precision):
    return MomentSet(problem=prob, order=order, moments=(mpf(0),) * order,
                     method=method, precision=precision, degenerate=True,
                     error_estimates=(mpf(0),) * order,
                     flagged=(False,) * order)


def _endpoint_blocks(d: DerivedParams, prob: FptProblem, order: int):
    """Building-block series at x0 and at the threshold -- the l-series
    upcrossing, the lbar-series downcrossing -- with their merged
    diagnostics; None for a degenerate problem."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if validate_problem(d, prob):
        return None
    block = l_series if prob.direction is Direction.UP else lbar_series
    b0, g0 = block(d.params.x0, order, d)
    b1, g1 = block(prob.threshold, order, d)
    return b0, b1, SeriesDiagnostics.merge(g0, g1)


def _transform_coeffs_bell(s0: ExpSeries, s1: ExpSeries, order: int):
    """Same coefficients via the Bell-polynomial reciprocal closed form."""
    return list(series_product(s0, series_reciprocal_bell(s1)).coeffs[: order + 1])


def _propagate_errors(s1, e, g, order):
    """First-order error bound for the quotient recursion, given the summed
    error estimates e of the two building-block series."""
    dg = [mpf(0)]
    for m_ in range(1, order + 1):
        tot = e[m_]
        for k in range(1, m_ + 1):
            tot += math.comb(m_, k) * (e[k] * abs(g[m_ - k]) + abs(s1[k]) * dg[m_ - k])
        dg.append(tot)
    return dg


def fpt_moments(d: DerivedParams, prob: FptProblem, order: int,
                method: MomentMethod = MomentMethod.RECURSION,
                max_rel_error: float | None = None) -> MomentSet:
    """Moments E[T^k], k = 1..order, of the crossing time.

    ``method`` selects the quotient recursion (default, cheaper) or the
    Bell-polynomial closed form; both agree to working precision.  For
    downcrossing problems the per-order relative error estimates of the
    asymptotic sums are attached and orders above FLAG_RTOL are flagged;
    if ``max_rel_error`` is given, exceeding it raises NonConvergent.
    """
    return _moments(d, prob, order, _endpoint_blocks(d, prob, order), method,
                    max_rel_error)


def _moments(d, prob, order, blocks, method, max_rel_error) -> MomentSet:
    """:func:`fpt_moments` from the blocks of :func:`_endpoint_blocks`."""
    if blocks is None:
        return _zero_moments(prob, order, method, d.precision)
    s0, s1, diag = blocks
    with mp.workprec(d.precision):
        if prob.direction is Direction.UP:  # t-series: q-series times l-series
            s0 = series_product(q_series(d.params.x0, order, d), s0)
            s1 = series_product(q_series(prob.threshold, order, d), s1)
        if method is MomentMethod.BELL_CLOSED_FORM:
            g = _transform_coeffs_bell(s0, s1, order)
        else:
            g = series_ratio(s0, s1).coeffs
        moments = tuple((-1) ** m_ * g[m_] for m_ in range(1, order + 1))
        dg = _propagate_errors(s1, diag.error_estimate, g, order)
        rel = []
        for m_ in range(1, order + 1):
            denom = abs(moments[m_ - 1])
            if denom > 0:
                rel.append(dg[m_] / denom)
            else:
                rel.append(mpf(0) if dg[m_] == 0 else mpf("inf"))
    flagged = tuple(bool(r > FLAG_RTOL) for r in rel)
    if max_rel_error is not None and any(r > max_rel_error for r in rel):
        worst = max(range(order), key=lambda i: rel[i])
        raise NonConvergent(
            f"order {worst + 1} relative error estimate {float(rel[worst]):.3g} "
            f"exceeds {max_rel_error:.3g}")
    return MomentSet(problem=prob, order=order, moments=moments, method=method,
                     precision=d.precision, error_estimates=tuple(rel),
                     flagged=flagged, diagnostics=diag)


def cumulants_from_moments(ms: MomentSet) -> CumulantSet:
    """Standard conversion c_n = m_n - sum C(n-1, k-1) c_k m_{n-k}."""
    with mp.workprec(ms.precision):
        mu = (mpf(1),) + tuple(ms.moments)
        c = [mpf(0)]
        for n in range(1, ms.order + 1):
            tot = mu[n]
            for k in range(1, n):
                tot -= math.comb(n - 1, k - 1) * c[k] * mu[n - k]
            c.append(tot)
    return CumulantSet(problem=ms.problem, order=ms.order, cumulants=tuple(c[1:]),
                       precision=ms.precision, degenerate=ms.degenerate)


def fpt_cumulants(d: DerivedParams, prob: FptProblem, order: int) -> CumulantSet:
    """Cumulants of the crossing time via logarithmic polynomials.

    Upcrossing:  c_k = (-1)^k [ u log(U/x0) (1/2)_k a^k + Lx0_k - LU_k ]
    Downcrossing: c_k = (-1)^k [ Lx0_k - LL_k ]

    where L*_k are the order-k logarithmic polynomials of the corresponding
    building-block series (l-series up, lbar-series down) at the two states.
    """
    return _cumulants(d, prob, order, _endpoint_blocks(d, prob, order))


def _cumulants(d, prob, order, blocks) -> CumulantSet:
    """:func:`fpt_cumulants` from the blocks of :func:`_endpoint_blocks`."""
    if blocks is None:
        return CumulantSet(problem=prob, order=order, cumulants=(mpf(0),) * order,
                           precision=d.precision, degenerate=True)
    b0, b1, _ = blocks
    x0 = d.params.x0
    s = prob.threshold
    with mp.workprec(d.precision):
        lp0 = log_polynomials(b0.coeffs)
        lp1 = log_polynomials(b1.coeffs)
        if prob.direction is Direction.UP:
            pre = d.u * mpmath.log(mpf(s) / mpf(x0))
            half = mpf(1) / 2
            cum = []
            apow = mpf(1)
            for k in range(1, order + 1):
                apow *= d.a
                val = pre * falling_factorial(half, k) * apow + lp0[k - 1] - lp1[k - 1]
                cum.append((-1) ** k * val)
        else:
            cum = [(-1) ** k * (lp0[k - 1] - lp1[k - 1]) for k in range(1, order + 1)]
    return CumulantSet(problem=prob, order=order, cumulants=tuple(cum),
                       precision=d.precision)


def mean_variance_closed_form(d: DerivedParams, prob: FptProblem):
    """Crossing-time mean and variance from the explicit coefficient sums.

    These are the order-1 and order-2 formulas written directly in terms of
    entries 1 and 2 of the kernel-table rows; they serve as an independent cross-check of
    :func:`fpt_cumulants` at orders one and two and use the same truncation
    rules as the kernel sums (stagnation rule upcrossing, optimal truncation
    downcrossing).
    """
    degenerate = validate_problem(d, prob)
    if degenerate:
        return mpf(0), mpf(0)
    table = ensure_table(d, 2)
    x0 = d.params.x0
    s = prob.threshold
    with mp.workprec(d.precision):
        vx0 = d.v * mpf(x0)
        vs = d.v * mpf(s)
        if prob.direction is Direction.UP:
            def csum(m_, vy):
                val, _ = convergent_sum(
                    lambda n: table.m_row(n)[m_] * vy ** n / mpmath.factorial(n),
                    mpf(L_SERIES_TOL), N_MAX_DEFAULT)
                return val

            logr = mpmath.log(mpf(x0) / mpf(s))
            s1_x0 = csum(1, vx0)
            s1_s = csum(1, vs)
            mean = logr * d.a * d.u / 2 + d.a * (s1_s - s1_x0)
            var = (logr * d.a ** 2 * d.u / 4
                   + d.a ** 2 * (csum(2, vx0) - csum(2, vs) + s1_s ** 2 - s1_x0 ** 2))
        else:
            def asum(m_, vy):
                def term(n):
                    sign = -1 if n % 2 else 1
                    return sign * table.mbar_row(n)[m_] / (vy ** n * mpmath.factorial(n))

                val, _, _ = asymptotic_sum(term, m_, N_MAX_DEFAULT)
                return val

            s1_x0 = asum(1, vx0)
            s1_s = asum(1, vs)
            mean = d.a * (s1_s - s1_x0)
            var = d.a ** 2 * (asum(2, vx0) - asum(2, vs) + s1_s ** 2 - s1_x0 ** 2)
    return mean, var


@dataclass(frozen=True)
class GammaDiagnostics:
    """Cumulant-ratio consistency with a Gamma reference law."""

    ratios: tuple          # (c1/c2, 2 c2/c3, 3 c3/c4)
    implied_beta: tuple    # k c_k / c_{k+1}, the rate implied by each pair
    flatness: float        # max relative spread of the implied rates


def gamma_consistency(cs: CumulantSet) -> GammaDiagnostics:
    """The three adjacent cumulant ratios and their spread.

    For a Gamma law every entry equals the rate parameter, so a small
    flatness score supports the Gamma-referenced density expansion.
    """
    if cs.order < 4:
        raise ValueError("gamma_consistency needs cumulants up to order 4")
    ratios = cs.ratios
    betas = tuple(float(b) for b in ratios)
    mean_b = sum(betas) / 3
    flat = max(abs(b - mean_b) for b in betas) / abs(mean_b) if mean_b else float("inf")
    return GammaDiagnostics(ratios=ratios, implied_beta=betas, flatness=flat)
