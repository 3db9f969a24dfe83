"""Coefficient tables and building-block series for the crossing transforms.

Everything here expands pieces of the closed-form Laplace transforms around
the origin of the Laplace variable.  Writing ``s(z) = sqrt(1 + a z)`` (with
``a`` the scaling from :class:`~logifpt.model.DerivedParams` and ``z`` the
Laplace variable), the three coefficient families are defined by

    <1 - 2u s(z)>_n  = sum_k  plain(n, k)  (a z)^k / k!
    <u (1 - s(z))>_n = sum_m  tilde(n, m)  (a z)^m / m!
    <u (1 + s(z))>_n = sum_m  bar(n, m)    (a z)^m / m!

where ``<x>_n`` is the rising factorial.  Each family is evaluated through
explicit sums over unsigned Stirling numbers of the first kind (the image of
``t^j`` under the k-th falling power of the halved Euler operator ``t d/dt``
is ``(j/2)_k t^j``, which turns the rising-factorial polynomials into the
finite sums implemented below).  Entry m of a row is

    2^-m  sum_j  s(n+shift, j+shift) W(family, m, j) base^j,

with base = -2u for ``plain`` and u otherwise.  The weights do not depend on
u and are integers, because 2^m (j/2)_m = j (j-2) ... (j-2m+2).  An mpf u is
exactly man 2^e, so the whole sum, scaled by a power of two, is an exact
Python integer, evaluated by Horner's rule in the mantissa.  Rows are built
with no rounding at all until each entry is converted once to an mpf at the
table's precision; that one rounding is all that separates an entry from its
exact value.

For fixed n each family is an exp-convention series in ``a z``;
:class:`KernelTable` keeps it as a row (``plain_row``, ``tilde_row``,
``bar_row``) of degree ``order``.  The series algebra of
:mod:`logifpt.series` then gives ``m_row(n)``, the ratio
``<u(1-s)>_n / <1-2us>_n``, and ``mbar_row(n)``, the product
``<u(1-s)>_n <u(1+s)>_n``.  The product is symmetric under ``s -> -s`` and
hence a polynomial of degree n in z: ``mbar_row(n)[m] = 0`` for ``m > n``
identically, which the downcrossing sums exploit.

The upcrossing building blocks (``q_series``, ``l_series``, ``t_series``)
are convergent sums over n and are truncated by a stagnation rule; the
downcrossing blocks (``lbar_series``) are asymptotic sums in ``1/(v y)``
summed by optimal truncation (stop at the smallest term, report the first
omitted term as the error estimate).

Every caller gets its table from :func:`ensure_table`, which keeps one
process-wide cache of :class:`KernelTable` objects keyed by
``(u, precision, order)``: rows depend on nothing else, so a moments or
density scan over thresholds or starting states at fixed (r, K, q, E, sigma)
builds its rows once.  The cache keeps the TABLE_CACHE_SIZE most recently
used tables and drops the least recently used beyond that;
``table_cache_info`` reports its hits, misses and size.  Sums over n stop at
N_MAX_DEFAULT, the last row a table holds, and the convergent ones are cut
at the relative tolerance L_SERIES_TOL.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

from .errors import NoConvergence
from .model import DerivedParams
from .series import (ExpSeries, falling_factorial, series_product, series_ratio,
                     stirling1_unsigned)

# last row n of every table, hence the last term of every sum over n
N_MAX_DEFAULT = 256
# relative size below which a term of a convergent sum is negligible
L_SERIES_TOL = mpf("1e-30")
# consecutive negligible terms required before a convergent sum is cut
_STAGNATION_RUN = 5
# sustained-growth factor that ends term generation in an asymptotic sum
_GROWTH_STOP = 10.0
# tables kept by ensure_table
TABLE_CACHE_SIZE = 8
_tables: OrderedDict = OrderedDict()
_table_counts = {"hits": 0, "misses": 0}


@lru_cache(maxsize=None)
def _weight(family: str, m: int, j: int) -> int:
    """2^m times the u-independent weight of base^j in entry m of a row.

    ``plain`` carries 2^m (j/2)_m = j (j-2) ... (j-2m+2).  ``tilde`` and
    ``bar`` carry sum_i (+-1)^i C(j,i) 2^m (i/2)_m, the t=1 value of the m-th
    halved-Euler falling power applied to (1 -+ t)^j, times 2^m; the
    alternating (``tilde``) one vanishes for j > m, since alternating
    binomial sums annihilate polynomials of degree < j.
    """
    def doubled(i):
        return math.prod(range(i, i - 2 * m, -2))

    if family == "plain":
        return doubled(j)
    sign = -1 if family == "tilde" else 1
    return sum(sign ** i * math.comb(j, i) * doubled(i) for i in range(j + 1))


class KernelTable:
    """Per-n coefficient rows for a fixed drift index u.

    Row ``(family, n)``, n = 0..N_MAX_DEFAULT, is the :class:`ExpSeries` in
    ``a z`` of the family's n-th member, of degree ``order``.  Rows are built
    at the precision of the derived parameters on first use and cached in
    one dict; the table is immutable from the caller's perspective and safe
    to share once built.
    """

    def __init__(self, d: DerivedParams, order: int):
        self.u = d.u
        self.precision = d.precision
        self.order = order
        self._rows = {}

    def _row(self, family: str, n: int, build) -> ExpSeries:
        if not 0 <= n <= N_MAX_DEFAULT:
            raise IndexError(f"n = {n} outside table bounds 0..{N_MAX_DEFAULT}")
        key = (family, n)
        if key not in self._rows:
            with mp.workprec(self.precision):
                self._rows[key] = build()
        return self._rows[key]

    def _stirling_row(self, n: int, base, shift: int, family: str) -> ExpSeries:
        """Entries sum_j s(n+shift, j+shift) _weight(family, m, j) base^j / 2^m,
        m = 0..order, each summed exactly in integers and rounded once.

        base is exactly x 2^-k with integers x and k >= 0, so an entry whose
        sum runs to j = top, times 2^(k top + m), is the integer
        sum_j s(n+shift, j+shift) W x^j 2^(k (top-j)), built by Horner's rule
        in x.  ``tilde`` weights vanish for j > m, so top = min(n, m) there.
        """
        x, e = base.man_exp
        if base < 0:  # mpmath's man_exp gives the mantissa unsigned
            x = -x
        k = max(-e, 0)
        x <<= e + k
        stirling = [stirling1_unsigned(n + shift, j + shift) for j in range(n + 1)]
        out = []
        for m in range(self.order + 1):
            top = min(n, m) if family == "tilde" else n
            acc = 0
            for j in range(top, -1, -1):
                acc = acc * x + (stirling[j] * _weight(family, m, j) << k * (top - j))
            out.append(mpf((acc, -k * top - m)))
        return ExpSeries(tuple(out))

    def plain_row(self, n: int) -> ExpSeries:
        """<1 - 2u s(z)>_n; entry 0 equals the rising factorial <1-2u>_n."""
        return self._row("plain", n, lambda: self._stirling_row(n, -2 * self.u, 1, "plain"))

    def tilde_row(self, n: int) -> ExpSeries:
        """<u (1 - s(z))>_n; entry 0 vanishes for n >= 1 since <0>_n = 0."""
        return self._row("tilde", n, lambda: self._stirling_row(n, self.u, 0, "tilde"))

    def bar_row(self, n: int) -> ExpSeries:
        """<u (1 + s(z))>_n; entry 0 equals <2u>_n."""
        return self._row("bar", n, lambda: self._stirling_row(n, self.u, 0, "bar"))

    def m_row(self, n: int) -> ExpSeries:
        """<u(1-s)>_n / <1-2us>_n; entry 0 vanishes for n >= 1, and the
        denominator constant <1-2u>_n never does in the persistent regime."""
        return self._row("m", n, lambda: series_ratio(self.tilde_row(n),
                                                      self.plain_row(n)))

    def mbar_row(self, n: int) -> ExpSeries:
        """<u(1-s)>_n <u(1+s)>_n.

        The product is even in s, hence a polynomial of degree n in z, so
        entries above n are set to exact zeros; entry 0 vanishes for n >= 1.
        """
        def build():
            prod = series_product(self.tilde_row(n), self.bar_row(n)).coeffs
            return ExpSeries(prod[: n + 1] + (mpf(0),) * (self.order - n))

        return self._row("mbar", n, build)


def ensure_table(d: DerivedParams, order: int) -> KernelTable:
    """The shared table for (u, precision, order).

    The process-wide cache is looked up by ``(d.u, d.precision, order)`` and
    a table of degree ``order`` is built on a miss; the least recently used
    table beyond TABLE_CACHE_SIZE is dropped.
    """
    key = (d.u, d.precision, order)
    table = _tables.pop(key, None)
    if table is None:
        _table_counts["misses"] += 1
        table = KernelTable(d, order)
    else:
        _table_counts["hits"] += 1
    _tables[key] = table
    if len(_tables) > TABLE_CACHE_SIZE:
        _tables.popitem(last=False)
    return table


def table_cache_info() -> dict:
    """Hits, misses and current size of the shared table cache."""
    return {**_table_counts, "size": len(_tables)}


@dataclass
class SeriesDiagnostics:
    """Per-coefficient truncation bookkeeping.

    trunc_index[k] is the last n-term included for coefficient k;
    error_estimate[k] is zero for convergent sums and the magnitude of the
    first omitted term for asymptotic ones.
    """

    trunc_index: list = field(default_factory=list)
    error_estimate: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "trunc_index": list(self.trunc_index),
            "error_estimate": [float(e) for e in self.error_estimate],
        }

    @staticmethod
    def merge(a: "SeriesDiagnostics", b: "SeriesDiagnostics") -> "SeriesDiagnostics":
        """Entrywise max of the cut points and sum of the error estimates of
        two diagnostics of the same order."""
        return SeriesDiagnostics(
            trunc_index=[max(x, y) for x, y in zip(a.trunc_index, b.trunc_index)],
            error_estimate=[x + y for x, y in zip(a.error_estimate, b.error_estimate)],
        )


def convergent_sum(term_fn, tol, n_max: int):
    """Sum term_fn(n) for n >= 1 until the stagnation rule fires.

    The sum is cut once _STAGNATION_RUN consecutive terms fall below tol
    times the running partial sum; raises NoConvergence when n_max is hit
    first.  Returns (value, last_included_n).
    """
    partial = mpf(0)
    run = 0
    n = 0
    while True:
        n += 1
        if n > n_max:
            raise NoConvergence(f"sum still changing at n_max = {n_max}")
        term = term_fn(n)
        partial += term
        scale = abs(partial) if partial != 0 else abs(term)
        if abs(term) <= tol * scale:
            run += 1
            if run >= _STAGNATION_RUN:
                return partial, n
        else:
            run = 0


def asymptotic_sum(term_fn, n_start: int, n_max: int):
    """Optimal truncation of the (generally divergent) sum of term_fn(n).

    Terms are generated from n_start until their magnitude envelope has
    clearly turned upward (or n_max is reached).  The cut n* minimizes the
    envelope max(|T_n|, |T_{n+1}|), which is robust to isolated exact zeros
    in the term sequence; ties resolve to the smaller n.  Returns
    (value, first_omitted_magnitude, last_included_n).
    """
    terms = []
    min_env = mpmath.inf
    n = n_start - 1
    while n < n_max:
        n += 1
        terms.append(term_fn(n))
        if len(terms) >= 2:
            env = max(abs(terms[-1]), abs(terms[-2]))
            if env < min_env:
                min_env = env
            elif env > _GROWTH_STOP * min_env and abs(terms[-1]) > abs(terms[-2]):
                break
    if len(terms) == 1:
        return terms[0], abs(terms[0]), n_start
    best = min(range(len(terms) - 1),
               key=lambda i: max(abs(terms[i]), abs(terms[i + 1])))
    value = sum(terms[: best + 1], mpf(0))
    return value, abs(terms[best + 1]), n_start + best


def q_series(y, order: int, d: DerivedParams) -> ExpSeries:
    """Expansion of y^(u (1 - s(z))) in the Laplace variable z.

    q_0 = 1 and q_k = -u log(y) sum_j C(k-1, j-1) (1/2)_j a^j q_{k-j};
    collapses to the identity series at y = 1.
    """
    with mp.workprec(d.precision):
        logy = mpmath.log(mpf(y))
        half = mpf(1) / 2
        w = [mpf(0)]
        apow = mpf(1)
        for j in range(1, order + 1):
            apow *= d.a
            w.append(-d.u * logy * falling_factorial(half, j) * apow)
        q = [mpf(1)]
        for k in range(1, order + 1):
            tot = mpf(0)
            for j in range(1, k + 1):
                tot += math.comb(k - 1, j - 1) * w[j] * q[k - j]
            q.append(tot)
    return ExpSeries(tuple(q))


def _power_over_factorial(x):
    """n -> x^n / n! from one list grown on demand, each entry from the last."""
    values = [mpf(1)]

    def at(n):
        while len(values) <= n:
            values.append(values[-1] * x / len(values))
        return values[n]

    return at


def l_series(y, order: int, d: DerivedParams):
    """Expansion coefficients l_k(y) of the regular hypergeometric factor.

    l_0 = 1 and l_k = a^k sum_{n>=1} m_row(n)[k] (v y)^n / n!.  The n-sum
    converges factorially; it is cut once five consecutive terms fall below
    L_SERIES_TOL times the running partial sum.  Raises NoConvergence if the
    table bound N_MAX_DEFAULT is hit first.
    Returns (series, diagnostics).
    """
    table = ensure_table(d, order)
    diag = SeriesDiagnostics(trunc_index=[0], error_estimate=[mpf(0)])
    with mp.workprec(d.precision):
        vy = d.v * mpf(y)
        scale = _power_over_factorial(vy)
        tol = mpf(L_SERIES_TOL)  # rounded to the working precision
        out = [mpf(1)]
        apow = mpf(1)
        for k in range(1, order + 1):
            apow *= d.a

            def term(n, _k=k):
                return table.m_row(n)[_k] * scale(n)

            try:
                partial, n_cut = convergent_sum(term, tol, N_MAX_DEFAULT)
            except NoConvergence as exc:
                raise NoConvergence(
                    f"l-series order {k} at v*y = {float(vy)}: {exc}") from exc
            out.append(apow * partial)
            diag.trunc_index.append(n_cut)
            diag.error_estimate.append(mpf(0))
    return ExpSeries(tuple(out)), diag


def t_series(y, order: int, d: DerivedParams):
    """Upcrossing coefficients t_m(y): Cauchy product of l- and q-series."""
    ls, diag = l_series(y, order, d)
    qs = q_series(y, order, d)
    with mp.workprec(d.precision):
        return series_product(qs, ls), diag


def lbar_series(y, order: int, d: DerivedParams):
    """Downcrossing coefficients lbar_m(y) with per-order error estimates.

    lbar_0 = 1 and lbar_m = a^m sum_{n>=m} (-1)^n mbar_row(n)[m]
    / ((v y)^n n!).  The n-sum is asymptotic in 1/(v y); it is summed by
    optimal truncation: terms are generated until their magnitude envelope
    has clearly turned upward, the cut n* minimizes the envelope
    max(|T_n|, |T_{n+1}|) (robust to the structural zeros at small n; ties
    resolve to the smaller n), and the first omitted term is reported as
    the error estimate.
    Returns (series, diagnostics).
    """
    table = ensure_table(d, order)
    diag = SeriesDiagnostics(trunc_index=[0], error_estimate=[mpf(0)])
    with mp.workprec(d.precision):
        vy = d.v * mpf(y)
        scale = _power_over_factorial(1 / vy)
        out = [mpf(1)]
        apow = mpf(1)
        for m_ in range(1, order + 1):
            apow *= d.a

            def term(n, _m=m_):
                sign = -1 if n % 2 else 1
                return sign * table.mbar_row(n)[_m] * scale(n)

            value, est, n_cut = asymptotic_sum(term, m_, N_MAX_DEFAULT)
            out.append(apow * value)
            diag.trunc_index.append(n_cut)
            diag.error_estimate.append(apow * est)
    return ExpSeries(tuple(out)), diag
