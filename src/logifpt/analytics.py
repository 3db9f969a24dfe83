"""Crossing-time moments and cumulants.

Moments and cumulants come from one pass over the building-block sums, run
in fixed-point Python ints (see :mod:`logifpt.kernels`): it takes the log of
the transform ratio, whose coefficients are the cumulants, then its exp,
whose coefficients are the moments, and its first ``mpf`` is each of them,
rounded once.  What limits the upcrossing moments is the cut of the l-sums
at ``kernels.L_SERIES_TOL``, not this pass's rounding; :mod:`logifpt.kernels`
gives both figures.  This pass is the library's one series algebra;
``kernels.q_series`` and ``kernels.t_series`` run on it too.  The test
suite checks it against the Bell-polynomial closed form of the reciprocal
denominator series, an independent route in ``mpf`` kept in
``tests/oracles.py`` with the ``mpf`` series operations it uses.  Going
down, the same pass bounds the moments' error from the first omitted terms
of the asymptotic sums.

One record holds a moment set and its cumulants: :class:`MomentSet`.  A set
from :func:`fpt_moments` keeps the cumulants of the series pass; one from
another source (empirical, read from a file) converts its moments with
:func:`cumulants_from_moments`, which loses the digits the moments cancel:
at sigma 1e-3 it is 1.2e-15 off where the series route is within 1e-60.
Either way ``cumulants`` is the tuple c_1..c_order, and ``ratios`` reads the
Gamma-structure diagnostic k c_k / c_(k+1), k = 1..order - 1, off it at the
set's precision; the ``moments`` CLI writes them rounded once to doubles.
The order is the number of moments the set holds, not a stored count.

All values are held in arbitrary precision and downcast only through the
``*_float`` accessors.  Downcrossing results carry per-order relative error
estimates inherited from the optimally-truncated asymptotic sums (one
:class:`~logifpt.kernels.SumSeries` per endpoint); ``flagged`` marks the
orders whose estimate exceeds FLAG_RTOL rather than silently returning them.
Upcrossing estimates are 0, which means "not estimated", not "exact".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import mpmath
from mpmath import mp, mpf

from .errors import InvalidParams
from .kernels import N_MAX_DEFAULT, _fixed_quotient, _to_mpf, l_series, lbar_series
from .model import DerivedParams, Direction, FptProblem, validate_problem
from .series import log_polynomials

FLAG_RTOL = 1e-8


@dataclass(frozen=True)
class MomentSet:
    """Raw moments E[T^k] for k = 1..order (index 0 of ``moments`` is k=1),
    with the cumulants of the same law; ``order`` is ``len(moments)``.

    A set may hold any moments: :func:`logifpt.laguerre.match_gamma`, at the
    set's precision, decides whether its mean and variance give a Gamma
    reference."""

    moments: tuple
    precision: int
    error_estimates: tuple | None = None  # relative, per order (downcrossing)
    diagnostics: dict | None = None  # "trunc_index" and "error_estimate", see fpt_moments
    # c_1..c_order from the log of the transform series, set by fpt_moments as
    # exact (int, exponent) pairs; ``cumulants`` rounds them to the precision
    series_cumulants: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.moments)

    @property
    def moments_float(self) -> tuple:
        return tuple(float(m) for m in self.moments)

    @cached_property
    def flagged(self) -> tuple | None:
        """error_estimates > FLAG_RTOL per order; None for a set without estimates."""
        if self.error_estimates is None:
            return None
        return tuple(bool(r > FLAG_RTOL) for r in self.error_estimates)

    @cached_property
    def cumulants(self) -> tuple:
        """Cumulants c_1..c_order of the crossing time, as ``mpf``.

        A set from :func:`fpt_moments` carries them: c_k = (-1)^k L_k, with L
        the log of the transform series that its moments exponentiate,

            upcrossing:   L_k = u log(U/x0) (1/2)_k a^k + Lx0_k - LU_k
            downcrossing: L_k = Lx0_k - LL_k

        where L*_k are the coefficients of the log of the building-block
        series (l-series up, lbar-series down) at the two states, all in the
        fixed point of :mod:`logifpt.kernels`, kept as ints and rounded here,
        on first read, once each.  A set without them (degenerate, empirical
        or read from a file) goes through :func:`cumulants_from_moments`.
        """
        if self.series_cumulants is None:
            return cumulants_from_moments(self)
        return tuple(_to_mpf(man, exp, self.precision) for man, exp in self.series_cumulants)

    @property
    def cumulants_float(self) -> tuple:
        return tuple(float(c) for c in self.cumulants)

    @property
    def ratios(self) -> tuple:
        """k c_k / c_(k+1) for k = 1..order - 1, from :attr:`cumulants` at the
        set's precision; each equals the Gamma rate for an exactly
        Gamma-distributed crossing time.  An entry is None where c_(k+1) is
        exactly 0, as in a degenerate set."""
        c = self.cumulants
        with mp.workprec(self.precision):
            return tuple(k * c[k - 1] / c[k] if c[k] else None for k in range(1, self.order))


def fpt_moments(d: DerivedParams, prob: FptProblem, order: int) -> MomentSet:
    """Moments E[T^k], k = 1..order, of the crossing time.

    The building blocks -- the l-series upcrossing, the lbar-series
    downcrossing -- are expanded at x0 and at the threshold.  The moments
    are the coefficients of the quotient of the two expansions.
    Upcrossing, that is q(x0) l(x0) / (q(U) l(U)); it is taken as
    q(x0/U) l(x0) / l(U), since q(x0)/q(U) = q(x0/U) exactly (see
    :mod:`logifpt.kernels`).  One q-series and no ``t_series`` enter, and
    nothing cancels between two q-series.  The quotient runs in fixed-point
    ints, on the int partial sums of the two :class:`~logifpt.kernels.SumSeries`,
    as the exp of the log of the quotient; that log gives the cumulants, kept
    in the result.  Going down the quotient also bounds its error; the
    per-order relative error estimates are attached, ``flagged`` reads them
    against FLAG_RTOL, and ``diagnostics`` holds the larger endpoint cut
    ("trunc_index") and the summed ``mpf`` estimate ("error_estimate") per
    order.  Upcrossing sums are convergent: the relative error estimates are
    exact zeros, with no order flagged.  A degenerate problem (x0 at the
    threshold) gives zero moments, and its diagnostics hold order + 1 zero
    cuts and zero estimates, so every set has the same diagnostics.
    An order outside 1..N_MAX_DEFAULT, the kernel table bound, raises
    InvalidParams before any table is built.
    """
    if not 1 <= order <= N_MAX_DEFAULT:
        raise InvalidParams(f"order must be in 1..{N_MAX_DEFAULT} (the kernel table bound), "
                            f"got {order}")
    if validate_problem(d, prob):
        zeros = (mpf(0),) * order
        return MomentSet(moments=zeros, precision=d.precision, error_estimates=zeros,
                         diagnostics={"trunc_index": [0] * (order + 1),
                                      "error_estimate": [mpf(0)] * (order + 1)})
    block = l_series if prob.direction is Direction.UP else lbar_series
    b0, b1 = block(d.params.x0, order, d), block(prob.threshold, order, d)
    with mp.workprec(d.precision):
        q_log = mpf(0)  # going down no q enters
        if prob.direction is Direction.UP:
            # log(q(x0) / q(U)) = u log(U/x0) (1/2)_k a^k at k >= 1
            q_log = d.u * mpmath.log(mpf(prob.threshold) / mpf(d.params.x0))
        g, logs, e, dg = _fixed_quotient(b0, b1, q_log)
        moments = tuple((-1) ** m_ * g[m_] for m_ in range(1, order + 1))
        cumulants = tuple(((-1) ** k * man, exp) for k, (man, exp) in enumerate(logs[1:], 1))
        rel = (mpf(0),) * order
        if dg is not None:  # convergent sums, all upcrossing ones, have no bound
            rel = tuple(dg[k] / abs(m) if m else (mpf("inf") if dg[k] else mpf(0))
                        for k, m in enumerate(moments, 1))
    diagnostics = {"trunc_index": list(map(max, b0.cut, b1.cut)),
                   "error_estimate": list(e or (mpf(0),) * (order + 1))}
    return MomentSet(moments=moments, precision=d.precision, error_estimates=rel,
                     diagnostics=diagnostics, series_cumulants=cumulants)


def cumulants_from_moments(ms: MomentSet) -> tuple:
    """Standard conversion: the logarithmic polynomials of (1, m_1, ..., m_n),
    c_n = m_n - sum C(n-1, k-1) c_k m_{n-k}, as a tuple of ``mpf``."""
    with mp.workprec(ms.precision):
        return tuple(log_polynomials((mpf(1),) + tuple(ms.moments)))


def fpt_cumulants(d: DerivedParams, prob: FptProblem, order: int) -> MomentSet:
    """``fpt_moments(d, prob, order)``, whose set carries the cumulants (see
    :attr:`MomentSet.cumulants`); kept as the name the benchmark traces."""
    return fpt_moments(d, prob, order)
