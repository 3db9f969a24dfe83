"""Independent evaluation of the crossing-time Laplace transforms.

The transform is a ratio of confluent hypergeometric functions (DLMF 13.2):
Kummer's M for upcrossing and Tricomi's U for downcrossing.  Both are
mpmath's (``hyp1f1`` and ``hyperu``), evaluated at ``PRECISION`` bits.  The
module shares no code with ``kernels``, ``series`` or ``analytics``: it
exists to cross-validate the series pipeline, through ``logifpt oracle`` and
through the Cauchy-integral moments of ``tests/oracles.py``.

``hyperu`` has one slow corner: b an integer, with b and z both near 1e4.
There one evaluation took 27-39 s on a 2-vCPU host, and more than 40 s at
b = 1e4, z = 1.1e4; at b = 10000.3 it took 1.2 s.  Here b = 1 - 2us is an
integer only by accident.  No test or golden scenario comes near that
corner; their evaluations take milliseconds each.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

from .errors import TransformFailure
from .model import DerivedParams, Direction, FptProblem, validate_problem

# the oracle's fixed evaluation precision, in bits
PRECISION = 512


def laplace_transform(d: DerivedParams, prob: FptProblem, lam):
    """Direct evaluation of E[exp(-lam T)] for the crossing problem.

    Equals 1 at lam = 0 and whenever x0 coincides with the threshold; for
    lam > 0 the value lies strictly inside (0, 1) for non-degenerate
    problems.  Complex lam is supported; one with zero imaginary part takes
    the real path.  lam = -1/a is the branch point of s = sqrt(1 + a lam),
    not the edge of the domain: the expectation can diverge at a larger lam,
    where the denominator function vanishes, and the ratio continues past
    that pole to values no expectation of a positive T can take.

    Raises TransformFailure at real lam <= -1/a, when mpmath cannot evaluate
    a confluent function, and when a real lam's value is not finite, is <= 0,
    is below 1 at lam < 0 or is above 1 at lam > 0.  That check is
    necessary, not sufficient: a value past the pole can still pass it
    (fisheries from x0 = 3.91e7 down to 2.8e7 gives 2.14 at lam = -0.05,
    where -0.1 gives -10.1 and is refused).
    """
    degenerate = validate_problem(d, prob)
    with mp.workprec(PRECISION):
        lam = mpmath.mpmathify(lam)
        real = lam.imag == 0
        if real:
            lam = lam.real
        if degenerate or lam == 0:
            return mpf(1)
        arg = 1 + d.a * lam
        if real and arg <= 0:
            raise TransformFailure(
                f"lam = {float(lam)} outside the analyticity region (needs lam > -1/a)")
        s = mpmath.sqrt(arg)
        ap = d.u * (1 - s)
        bp = 1 - 2 * d.u * s
        x0 = mpf(d.params.x0)
        th = mpf(prob.threshold)
        f = mpmath.hyp1f1 if prob.direction is Direction.UP else mpmath.hyperu
        try:
            num = f(ap, bp, d.v * x0)
            den = f(ap, bp, d.v * th)
        except mp.NoConvergence as exc:
            raise TransformFailure(f"{f.__name__} did not converge: {exc}") from exc
        value = (x0 / th) ** ap * num / den
        if real and not (mpmath.isfinite(value) and value > 0
                         and (value <= 1 if lam > 0 else value >= 1)):
            raise TransformFailure(f"lam = {float(lam)} gives {mpmath.nstr(value, 5)}, "
                                   "which is not E[exp(-lam T)] of a positive T")
        return value
