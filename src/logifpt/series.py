"""Formal power series in exponential convention, plus exact combinatorics.

A series is stored through the coefficients c_0..c_n of

    A(t) = sum_k c_k t^k / k!

truncated at its order n.  This is the single internal convention: ordinary
(non-factorial) coefficients are never stored.  Arithmetic is closed under
truncation: binary operations return a series of the smaller input order.

Coefficients may be ``mpmath.mpf`` values (the normal case; callers set the
working precision with ``mp.workprec``), plain floats, or ``Fraction`` for
exact test oracles -- the algebra only needs +, *, /.

The combinatorial kernels (unsigned Stirling numbers of the first kind,
partial Bell polynomials, logarithmic polynomials) are kept here as well;
Stirling numbers and binomials are exact Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveConstantTerm, ZeroConstantTerm

STIRLING_N_MAX = 512

# triangular table, row n holds s(n, 0..n); grown on demand, never shrunk
_stirling_rows = [[1]]


def stirling1_unsigned(n: int, j: int, n_max: int = STIRLING_N_MAX) -> int:
    """Unsigned Stirling number of the first kind s(n, j), exact.

    Built once by the recurrence s(n+1, j) = n s(n, j) + s(n, j-1) and
    memoized module-wide.  Raises for indices outside 0 <= j <= n <= n_max.
    """
    if n < 0 or j < 0 or j > n:
        raise IndexError(f"need 0 <= j <= n, got (n, j) = ({n}, {j})")
    if n > n_max:
        raise IndexError(f"n = {n} exceeds table bound n_max = {n_max}")
    while len(_stirling_rows) <= n:
        prev = _stirling_rows[-1]
        m = len(_stirling_rows) - 1  # previous row index
        row = [0] * (m + 2)
        for i in range(m + 1):
            row[i] += m * prev[i]
            row[i + 1] += prev[i]
        _stirling_rows.append(row)
    return _stirling_rows[n][j]


def falling_factorial(x, m: int):
    """x (x-1) ... (x-m+1); empty product is 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = 1
    for i in range(m):
        out = out * (x - i)
    return out


def rising_factorial(x, n: int):
    """x (x+1) ... (x+n-1); empty product is 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = 1
    for i in range(n):
        out = out * (x + i)
    return out


def bell_partial_table(b, n: int):
    """Table B[m][k] of partial exponential Bell polynomials for m, k <= n.

    b is the sequence (b_1, b_2, ...); entries beyond len(b) are treated as
    absent (only b_1..b_{m-k+1} enter B_{m,k}).  Uses the recurrence

        B_{m,k} = sum_i C(m-1, i-1) b_i B_{m-i, k-1},

    which avoids enumerating partitions.
    """
    B = [[0] * (n + 1) for _ in range(n + 1)]
    B[0][0] = 1
    for m_ in range(1, n + 1):
        for k in range(1, m_ + 1):
            tot = 0
            for i in range(1, m_ - k + 2):
                if i <= len(b):
                    tot += math.comb(m_ - 1, i - 1) * b[i - 1] * B[m_ - i][k - 1]
            B[m_][k] = tot
    return B


def bell_partial(n: int, k: int, b):
    """Partial exponential Bell polynomial B_{n,k}(b_1, ..., b_{n-k+1})."""
    if not 1 <= k <= n:
        raise IndexError(f"need 1 <= k <= n, got (n, k) = ({n}, {k})")
    if len(b) < n - k + 1:
        raise IndexError(f"need at least {n - k + 1} arguments, got {len(b)}")
    return bell_partial_table(b, n)[n][k]


def log_polynomials(coeffs):
    """Coefficients L_1..L_n of log A for A with coefficients (a_0, a_1, ...).

    L_n = sum_k (-1)^(k-1) (k-1)! B_{n,k}(a_1/a_0, ..., a_{n-k+1}/a_0).
    Returns the list [L_1, ..., L_n]; the constant term log a_0 is left to
    the caller.
    """
    a0 = coeffs[0]
    n = len(coeffs) - 1
    scaled = [c / a0 for c in coeffs[1:]]
    B = bell_partial_table(scaled, n)
    out = []
    for m_ in range(1, n + 1):
        tot = 0
        sign = 1
        fact = 1
        for k in range(1, m_ + 1):
            tot += sign * fact * B[m_][k]
            sign = -sign
            fact *= k
        out.append(tot)
    return out


@dataclass(frozen=True)
class ExpSeries:
    """Truncated power series in exponential convention."""

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]

    @classmethod
    def identity(cls, order: int, one=1) -> "ExpSeries":
        """The multiplicative identity 1 + 0 t + ... up to the given order."""
        return cls((one,) + (one * 0,) * order)


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


def series_reciprocal(A: ExpSeries) -> ExpSeries:
    """Reciprocal series by the coefficient recursion.

    r_0 = 1/a_0,  r_n = -(1/a_0) sum_{j>=1} C(n,j) a_j r_{n-j}.
    """
    if A.coeffs[0] == 0:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    r = [1 / A.coeffs[0]]
    for m_ in range(1, A.order + 1):
        tot = 0
        for j in range(1, m_ + 1):
            tot += math.comb(m_, j) * A.coeffs[j] * r[m_ - j]
        r.append(-tot / A.coeffs[0])
    return ExpSeries(tuple(r))


def series_reciprocal_bell(A: ExpSeries) -> ExpSeries:
    """Reciprocal series by the Bell-polynomial closed form.

    r_n = (1/a_0) sum_k (-1)^k k! B_{n,k}(a_1/a_0, ...).  Agrees with
    :func:`series_reciprocal` to working precision.
    """
    a0 = A.coeffs[0]
    if a0 == 0:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    n = A.order
    scaled = [c / a0 for c in A.coeffs[1:]]
    B = bell_partial_table(scaled, n)
    out = []
    for m_ in range(n + 1):
        tot = 0
        sign = 1
        fact = 1
        for k in range(m_ + 1):
            tot += sign * fact * B[m_][k]
            sign = -sign
            fact *= k + 1
        out.append(tot / a0)
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


def series_log(A: ExpSeries) -> ExpSeries:
    """Logarithm of a series with positive constant term."""
    a0 = A.coeffs[0]
    if not a0 > 0:
        raise NonPositiveConstantTerm("log needs a positive constant term")
    from mpmath import log as _mplog

    c0 = _mplog(a0)
    return ExpSeries((c0, *log_polynomials(A.coeffs)))


def series_exp(A: ExpSeries) -> ExpSeries:
    """Exponential of a series with zero constant term (result has c_0 = 1).

    c_n is the complete Bell polynomial of (a_1, ..., a_n).
    """
    if A.coeffs[0] != 0:
        raise NonPositiveConstantTerm("exp is restricted to zero constant term")
    n = A.order
    B = bell_partial_table(list(A.coeffs[1:]), n)
    out = [A.coeffs[0] + 1]  # promotes to the coefficient type
    for m_ in range(1, n + 1):
        out.append(sum(B[m_][k] for k in range(1, m_ + 1)))
    return ExpSeries(tuple(out))
