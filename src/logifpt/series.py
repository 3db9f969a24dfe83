"""Formal power series in exponential convention.

A series is stored through the coefficients c_0..c_n of

    A(t) = sum_k c_k t^k / k!

truncated at its order n.  This is the single internal convention: ordinary
(non-factorial) coefficients are never stored.  Arithmetic is closed under
truncation: binary operations return a series of the smaller input order.

Coefficients may be ``mpmath.mpf`` values (the normal case; callers set the
working precision with ``mp.workprec``), plain floats, or ``Fraction`` for
exact test oracles -- the algebra only needs +, *, /.

Every operation is one coefficient recursion of O(n^2) steps, the standard
power-series recurrences (Knuth, TAOCP vol. 2, sec. 4.7):

    ratio   A/B:     q_n = (a_n - sum_{k>=1} C(n, k) b_k q_{n-k}) / b_0
    exp     e^A:     c_n = sum_{k>=1} C(n-1, k-1) a_k c_{n-k}
    log     log A:   L_n = b_n - sum_{0<k<n} C(n-1, k-1) L_k b_{n-k},  b = a/a_0
    binomial (1 + a t)^p:  c_k = c_{k-1} (p - k + 1) a

The exp and log recurrences follow from differentiating e^A and
A = e^(log A).

The exact references the test suite compares against (Stirling numbers,
factorial powers, partial Bell polynomials, the reciprocal series by its
Bell-polynomial closed form and by the ratio recursion, and the logarithm
series) live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveConstantTerm, ZeroConstantTerm


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


@dataclass(frozen=True)
class ExpSeries:
    """Truncated power series in exponential convention."""

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]


def series_product(A: ExpSeries, B: ExpSeries) -> ExpSeries:
    """Cauchy product in exponential convention: c_n = sum C(n,k) a_k b_{n-k}."""
    n = min(A.order, B.order)
    out = []
    for m_ in range(n + 1):
        tot = 0
        for k in range(m_ + 1):
            tot += math.comb(m_, k) * A.coeffs[k] * B.coeffs[m_ - k]
        out.append(tot)
    return ExpSeries(tuple(out))


def series_ratio(A: ExpSeries, B: ExpSeries) -> ExpSeries:
    """Quotient series A/B by the direct recursion.

    q_0 = a_0/b_0,  q_n = (a_n - sum C(n,k) b_k q_{n-k}) / b_0.
    """
    if B.coeffs[0] == 0:
        raise ZeroConstantTerm("ratio needs a nonzero denominator constant term")
    n = min(A.order, B.order)
    q = [A.coeffs[0] / B.coeffs[0]]
    for m_ in range(1, n + 1):
        tot = A.coeffs[m_]
        for k in range(1, m_ + 1):
            tot -= math.comb(m_, k) * B.coeffs[k] * q[m_ - k]
        q.append(tot / B.coeffs[0])
    return ExpSeries(tuple(q))


def series_exp(A: ExpSeries) -> ExpSeries:
    """Exponential of a series with zero constant term (result has c_0 = 1).

    c_n = sum_{k=1}^n C(n-1, k-1) a_k c_{n-k}, the exp-convention form of
    (e^A)' = A' e^A; c_n is the complete Bell polynomial of (a_1, ..., a_n).
    """
    a = A.coeffs
    if a[0] != 0:
        raise NonPositiveConstantTerm("exp is restricted to zero constant term")
    c = [a[0] + 1]  # promotes to the coefficient type
    for n in range(1, A.order + 1):
        tot = 0
        for k in range(1, n + 1):
            tot += math.comb(n - 1, k - 1) * a[k] * c[n - k]
        c.append(tot)
    return ExpSeries(tuple(c))


def binomial_series(p, a, order: int) -> ExpSeries:
    """(1 + a t)^p to the given order: c_k = p (p-1) ... (p-k+1) a^k.

    Each coefficient is the one before times (p - k + 1) a, a running
    product in the type of p (so c_0 = p^0).
    """
    c = [p ** 0]
    for k in range(order):
        c.append(c[-1] * (p - k) * a)
    return ExpSeries(tuple(c))
