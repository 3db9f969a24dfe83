"""Independent evaluation of the crossing-time Laplace transforms.

This module deliberately avoids the coefficient machinery in ``kernels``:
the regular confluent function is summed from its globally convergent
series, the irregular one is integrated from its real integral
representation, and moments are extracted by Richardson-extrapolated central
differences of the transform at the origin.  It exists to cross-validate
the series pipeline, so it runs at a higher precision (512 bits).
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

from .analytics import MomentMethod, MomentSet
from .errors import BadParameterB, QuadratureFailure, StencilFailure
from .model import DerivedParams, Direction, FptProblem, validate_problem

_MAX_TERMS = 200000

# central-difference stencils of second-order accuracy, offsets in units of h
_STENCILS = {
    1: ((-1, 1), ("-1/2", "1/2")),
    2: ((-1, 0, 1), ("1", "-2", "1")),
    3: ((-2, -1, 1, 2), ("-1/2", "1", "-1", "1/2")),
    4: ((-2, -1, 0, 1, 2), ("1", "-4", "6", "-4", "1")),
}


class HypEvalConfig:
    """The oracle's fixed evaluation settings.

    fd_step is expressed in units of 1/a (the natural scale of the Laplace
    variable); fd_levels is the depth of the Richardson table.
    """

    precision = 512
    series_tol = 1e-40
    fd_step = 1e-6
    fd_levels = 4


def kummer_phi(a, b, z, tol=1e-40):
    """Regular confluent hypergeometric function by direct series summation.

    Terms t_n = <a>_n / <b>_n * z^n / n! are accumulated until |t_n| drops
    below tol times the partial sum (checked twice in a row, so the even/odd
    cancellation of negative z cannot stop the sum early).
    """
    with mp.extraprec(20):
        a = mpf(a)
        b = mpf(b)
        z = mpf(z)
        if b <= 0 and b == mpmath.floor(b):
            raise BadParameterB(f"second parameter must not be a non-positive integer, got {b}")
        tol = mpf(tol)
        term = mpf(1)
        total = mpf(1)
        small = 0
        for n in range(_MAX_TERMS):
            term *= (a + n) / (b + n) * z / (n + 1)
            total += term
            if abs(term) <= tol * (abs(total) + tol):
                small += 1
                if small >= 2:
                    return total
            else:
                small = 0
    raise QuadratureFailure("confluent series did not settle")


_QUAD_PREC_CAP = 350
_QUAD_MAXDEGREE = 8


def tricomi_psi(a, b, z, tol=1e-40):
    """Irregular confluent hypergeometric function for a >= 0, z > 0.

    Evaluated from the real integral representation
    Gamma(a)^-1 integral_0^inf e^(-z t) t^(a-1) (1+t)^(b-a-1) dt, which
    avoids the Gamma-function connection formula (ill-conditioned when b
    sits near an integer).  The integrand is used after one integration by
    parts,

        Gamma(a+1)^-1 integral_0^inf t^a e^(-z t) (1+t)^(b-a-2)
                                     [z (1+t) - (b-a-1)] dt,

    because the raw t^(a-1) form loses all accuracy as a -> 0 (the mass
    spreads over ~1/a decades) while the pipeline needs exactly that corner
    for derivative stencils near the origin.  The by-parts form is smooth
    there and yields Psi(0, b, z) = 1 without a special case.
    """
    a = mpf(a)
    b = mpf(b)
    z = mpf(z)
    if not z > 0:
        raise QuadratureFailure(f"integral representation needs z > 0, got {z}")
    if a < 0:
        raise QuadratureFailure(f"integral representation needs a >= 0, got {a}")
    c = b - a - 1

    def integrand(t):
        return t ** a * mpmath.e ** (-z * t) * (1 + t) ** (c - 1) * (z * (1 + t) - c)

    with mp.workprec(min(mp.prec, _QUAD_PREC_CAP)):
        val, err = mpmath.quad(integrand, [0, 1, mpmath.inf], error=True,
                               maxdegree=_QUAD_MAXDEGREE)
        if not mpmath.isfinite(val) or (abs(val) > 0 and err > 10 * mpf(tol) * abs(val)):
            raise QuadratureFailure(
                f"quadrature error {mpmath.nstr(err, 3)} too large "
                f"for value {mpmath.nstr(val, 3)}")
    return val / mpmath.gamma(a + 1)


def _psi_any(a, b, z, tol=1e-40):
    """Tricomi function extended to a > -1 through the contiguous recurrence

        psi(a, b, z) = -(b - 2(a+1) - z) psi(a+1, b, z)
                       - (a+1)(a+2-b) psi(a+2, b, z),

    anchoring both right-hand evaluations in the integral representation.
    Only slightly negative a occur here (finite-difference stencils just
    left of the origin).
    """
    a = mpf(a)
    if a >= 0:
        return tricomi_psi(a, b, z, tol=tol)
    if a <= -1:
        raise QuadratureFailure(f"first parameter {a} below the supported range")
    b = mpf(b)
    z = mpf(z)
    return (-(b - 2 * (a + 1) - z) * tricomi_psi(a + 1, b, z, tol=tol)
            - (a + 1) * (a + 2 - b) * tricomi_psi(a + 2, b, z, tol=tol))


def laplace_transform(d: DerivedParams, prob: FptProblem, lam):
    """Direct evaluation of E[exp(-lam T)] for the crossing problem.

    Equals 1 at lam = 0 and whenever x0 coincides with the threshold; for
    lam > 0 the value lies strictly inside (0, 1) for non-degenerate
    problems.  Small negative lam (inside the analyticity region
    lam > -1/a) is supported for the finite-difference oracle.
    """
    degenerate = validate_problem(d, prob)
    with mp.workprec(HypEvalConfig.precision):
        lam = mpf(lam)
        if degenerate or lam == 0:
            return mpf(1)
        arg = 1 + d.a * lam
        if arg <= 0:
            raise StencilFailure(
                f"lam = {float(lam)} outside the analyticity region (needs lam > -1/a)")
        s = mpmath.sqrt(arg)
        ap = d.u * (1 - s)
        bp = 1 - 2 * d.u * s
        x0 = mpf(d.params.x0)
        th = mpf(prob.threshold)
        vx0 = d.v * x0
        vth = d.v * th
        if prob.direction is Direction.UP:
            num = kummer_phi(ap, bp, vx0, tol=HypEvalConfig.series_tol)
            den = kummer_phi(ap, bp, vth, tol=HypEvalConfig.series_tol)
        else:
            num = _psi_any(ap, bp, vx0, tol=HypEvalConfig.series_tol)
            den = _psi_any(ap, bp, vth, tol=HypEvalConfig.series_tol)
        return (x0 / th) ** ap * num / den


def fd_moments(d: DerivedParams, prob: FptProblem, order: int = 4) -> MomentSet:
    """Moments extracted from derivatives of the transform at the origin.

    The k-th moment is (-1)^k times the k-th derivative, estimated with
    second-order central stencils refined through a Richardson table of
    HypEvalConfig.fd_levels levels.  Negative-lam evaluations stay inside the
    analyticity region; on evaluation failure the step is halved a few
    times before StencilFailure is raised.
    """
    if not 1 <= order <= 4:
        raise ValueError("finite-difference oracle supports orders 1..4")
    degenerate = validate_problem(d, prob)
    if degenerate:
        return MomentSet(problem=prob, order=order, moments=(mpf(0),) * order,
                         method=MomentMethod.FINITE_DIFFERENCE,
                         precision=HypEvalConfig.precision, degenerate=True)
    with mp.workprec(HypEvalConfig.precision):
        base_h = mpf(HypEvalConfig.fd_step) / d.a
        for attempt in range(6):
            h = base_h / 2 ** attempt
            cache = {}

            def g(x):
                if x not in cache:
                    cache[x] = laplace_transform(d, prob, x)
                return cache[x]

            try:
                moments = []
                for k in range(1, order + 1):
                    offs, coefs = _STENCILS[k]
                    coefs = [mpf(c) for c in coefs]
                    rows = []
                    for lev in range(HypEvalConfig.fd_levels):
                        hh = h / 2 ** lev
                        val = sum(c * g(o * hh) for o, c in zip(offs, coefs)) / hh ** k
                        rows.append([val])
                    for i in range(1, HypEvalConfig.fd_levels):
                        for lev in range(i, HypEvalConfig.fd_levels):
                            rows[lev].append(
                                (4 ** i * rows[lev][i - 1] - rows[lev - 1][i - 1])
                                / (4 ** i - 1))
                    moments.append((-1) ** k * rows[-1][-1])
                return MomentSet(problem=prob, order=order, moments=tuple(moments),
                                 method=MomentMethod.FINITE_DIFFERENCE,
                                 precision=HypEvalConfig.precision)
            except (StencilFailure, QuadratureFailure):
                continue
    raise StencilFailure("transform could not be evaluated on any usable stencil")
