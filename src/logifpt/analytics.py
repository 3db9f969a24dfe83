"""Crossing-time moments and cumulants.

Moments come from the coefficient recursion of the transform ratio, run in
fixed-point Python ints (see :mod:`logifpt.kernels`): it reads the
building-block sums as ints, and its first ``mpf`` is each moment.  At 256
bits and order 10 it keeps upcrossing moments within 4.9e-76 of a 700-bit
evaluation on the benchmark scenarios.  The test suite checks it against
the Bell-polynomial closed form of the reciprocal denominator series, an
independent route in ``mpf`` kept in ``tests/oracles.py``.  The error
bounds and the cumulants stay in ``mpf``.  A :class:`MomentSet` from
:func:`fpt_moments` keeps its two endpoint building-block series, whose
``mpf`` coefficients are formed on first use, and its
``cumulants`` property (computed on first use, then cached) takes the
logarithmic polynomials of them, which is cheaper and better conditioned
than the generic moment-to-cumulant conversion (also provided, as an
oracle, and the fallback for moment sets from other sources).

All values are held in arbitrary precision and downcast only through the
``*_float`` accessors.  Downcrossing results carry per-order relative error
estimates inherited from the optimally-truncated asymptotic sums; orders
whose estimate exceeds FLAG_RTOL are flagged rather than silently returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import mpmath
from mpmath import mp, mpf

from .kernels import SeriesDiagnostics, _fixed_quotient, l_series, lbar_series
from .model import DerivedParams, Direction, FptProblem, validate_problem
from .series import ExpSeries, binomial_series, log_polynomials, series_product, series_ratio

FLAG_RTOL = 1e-8


@dataclass(frozen=True)
class MomentSet:
    """Raw moments E[T^k] for k = 1..order (index 0 of ``moments`` is k=1)."""

    problem: FptProblem
    order: int
    moments: tuple
    precision: int
    degenerate: bool = False
    error_estimates: tuple | None = None  # relative, per order (downcrossing)
    flagged: tuple | None = None
    diagnostics: object = None  # SeriesDiagnostics of the building blocks
    # (derived params, block series at x0, at the threshold) from fpt_moments;
    # the series are kernels.SumSeries, rounded to mpf when first read
    endpoints: tuple | None = field(default=None, compare=False, repr=False)

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

    @cached_property
    def cumulants(self) -> "CumulantSet":
        """Cumulants c_1..c_order of the crossing time.

        From the endpoint series, by logarithmic polynomials:

            upcrossing:   c_k = (-1)^k [ u log(U/x0) (1/2)_k a^k + Lx0_k - LU_k ]
            downcrossing: c_k = (-1)^k [ Lx0_k - LL_k ]

        where L*_k are the order-k logarithmic polynomials of the building-block
        series (l-series up, lbar-series down) at the two states, and the
        upcrossing term is log q(x0) - log q(U).  A set without endpoint
        series (degenerate, empirical, finite-difference or read from a file)
        goes through :func:`cumulants_from_moments`.
        """
        if self.endpoints is None:
            return cumulants_from_moments(self)
        d, b0, b1 = self.endpoints
        with mp.workprec(self.precision):
            logq = [0] * (self.order + 1)
            if self.problem.direction is Direction.UP:
                pre = d.u * mpmath.log(mpf(self.problem.threshold) / mpf(d.params.x0))
                logq = [pre * c for c in binomial_series(mpf(1) / 2, d.a, self.order).coeffs]
            lp = zip(log_polynomials(b0.coeffs), log_polynomials(b1.coeffs))
            cum = tuple((-1) ** k * (logq[k] + l0 - l1) for k, (l0, l1) in enumerate(lp, 1))
        return CumulantSet(problem=self.problem, order=self.order, cumulants=cum,
                           precision=self.precision)


@dataclass(frozen=True)
class CumulantSet:
    """Cumulants c_1..c_n with the Gamma-structure diagnostic ratios."""

    problem: FptProblem
    order: int
    cumulants: tuple
    precision: int
    degenerate: bool = False

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


def _propagate_errors(s1, e, g):
    """First-order error bound dg on the quotient g = s0/s1, given the summed
    error estimates e of the two building-block series (e_0 = 0, s1_0 = 1).

    dg = e (1 + |g|) / (1 - |s1|+), with |g| and |s1| taken entrywise and
    |s1|+ the series |s1| with its constant term set to 0.
    """
    one_plus_g = ExpSeries((1 + abs(g[0]),) + tuple(abs(c) for c in g[1:]))
    one_minus_s1 = ExpSeries((mpf(1),) + tuple(-abs(c) for c in s1[1:]))
    return series_ratio(series_product(ExpSeries(tuple(e)), one_plus_g), one_minus_s1).coeffs


def fpt_moments(d: DerivedParams, prob: FptProblem, order: int) -> MomentSet:
    """Moments E[T^k], k = 1..order, of the crossing time.

    The building blocks -- the l-series upcrossing, the lbar-series
    downcrossing -- are expanded at x0 and at the threshold and kept in the
    result, whose ``cumulants`` are formed from them on first use.  The
    moments are the coefficients of the quotient of the two expansions.
    Upcrossing, that is q(x0) l(x0) / (q(U) l(U)); it is taken as
    q(x0/U) l(x0) / l(U), since q(x0)/q(U) = q(x0/U) exactly (see
    :mod:`logifpt.kernels`).  One q-series and no ``t_series`` enter, and
    nothing cancels between two q-series.  The quotient recursion runs in
    fixed-point ints, on the int partial sums of the blocks.
    For downcrossing problems the per-order relative error estimates of the
    asymptotic sums are attached and orders above FLAG_RTOL are flagged.
    Upcrossing sums are convergent, their estimates are 0, and the relative
    error estimates are exact zeros with no order flagged.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if validate_problem(d, prob):
        return MomentSet(problem=prob, order=order, moments=(mpf(0),) * order,
                         precision=d.precision, degenerate=True,
                         error_estimates=(mpf(0),) * order, flagged=(False,) * order)
    block = l_series if prob.direction is Direction.UP else lbar_series
    b0, g0 = block(d.params.x0, order, d)
    b1, g1 = block(prob.threshold, order, d)
    diag = SeriesDiagnostics.merge(g0, g1)
    with mp.workprec(d.precision):
        q_log = None
        if prob.direction is Direction.UP:
            # log(q(x0) / q(U)) = u log(U/x0) (1/2)_k a^k at k >= 1
            q_log = d.u * mpmath.log(mpf(prob.threshold) / mpf(d.params.x0))
        g = _fixed_quotient(b0, b1, q_log)
        moments = tuple((-1) ** m_ * g[m_] for m_ in range(1, order + 1))
        rel, flagged = (mpf(0),) * order, (False,) * order
        if any(diag.error_estimate):  # convergent sums, all upcrossing ones, have none
            dg = _propagate_errors(b1, diag.error_estimate, g)
            rel = tuple(dg[k] / abs(m) if m else (mpf("inf") if dg[k] else mpf(0))
                        for k, m in enumerate(moments, 1))
            flagged = tuple(bool(r > FLAG_RTOL) for r in rel)
    return MomentSet(problem=prob, order=order, moments=moments,
                     precision=d.precision, error_estimates=rel,
                     flagged=flagged, diagnostics=diag, endpoints=(d, b0, b1))


def cumulants_from_moments(ms: MomentSet) -> CumulantSet:
    """Standard conversion: the logarithmic polynomials of (1, m_1, ..., m_n),
    c_n = m_n - sum C(n-1, k-1) c_k m_{n-k}."""
    with mp.workprec(ms.precision):
        c = log_polynomials((mpf(1),) + tuple(ms.moments))
    return CumulantSet(problem=ms.problem, order=ms.order, cumulants=tuple(c),
                       precision=ms.precision, degenerate=ms.degenerate)


def fpt_cumulants(d: DerivedParams, prob: FptProblem, order: int) -> CumulantSet:
    """Cumulants of the crossing time: ``fpt_moments(d, prob, order).cumulants``,
    by logarithmic polynomials of the building-block series (see
    :attr:`MomentSet.cumulants`)."""
    return fpt_moments(d, prob, order).cumulants
