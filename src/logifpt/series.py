"""The logarithm of a formal power series in exponential convention.

A series is given by the coefficients c_0..c_n of

    A(t) = sum_k c_k t^k / k!

truncated at its order n; ordinary (non-factorial) coefficients are never
used.  :func:`log_polynomials` takes its logarithm by the standard
recurrence (Knuth, TAOCP vol. 2, sec. 4.7), which follows from
differentiating A = e^(log A):

    L_n = b_n - sum_{0<k<n} C(n-1, k-1) L_k b_{n-k},   b = a / a_0

It needs only +, * and /, so the coefficients may be ``mpmath.mpf`` values
(callers set the working precision with ``mp.workprec``), floats or
``Fraction``.  The library's other series work, the quotient that gives the
moments and cumulants, runs this recurrence and the matching exp recurrence
on fixed-point ints in :func:`logifpt.kernels._fixed_quotient`.

The ``mpf`` series operations (product, exp, binomial series, ratio,
reciprocal, logarithm) and the exact references the test suite compares
against live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math


def log_polynomials(coeffs):
    """Coefficients L_1..L_n of log A for A with coefficients (a_0, a_1, ...).

    With b = a/a_0, L_n = b_n - sum_{k=1}^{n-1} C(n-1, k-1) L_k b_{n-k}, the
    exp-convention form of A' = A (log A)'.  Returns the list [L_1, ..., L_n];
    the constant term log a_0 is left to the caller.
    """
    a0 = coeffs[0]
    b = [c / a0 for c in coeffs]
    L = [None]
    for n in range(1, len(coeffs)):
        tot = b[n]
        for k in range(1, n):
            tot -= math.comb(n - 1, k - 1) * L[k] * b[n - k]
        L.append(tot)
    return L[1:]
