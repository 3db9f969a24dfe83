"""Coefficient tables and building-block series for the crossing transforms.

Everything here expands pieces of the closed-form Laplace transforms around
the origin of the Laplace variable.  Writing ``w = a z`` and
``s = sqrt(1 + w)`` (with ``a`` the scaling from
:class:`~logifpt.model.DerivedParams` and ``z`` the Laplace variable), every
moment and cumulant comes from two families of rows, exp-convention series
in ``w``:

    m_row(n)    = <u (1 - s)>_n / <1 - 2u s>_n
    mbar_row(n) = <u (1 - s)>_n  <u (1 + s)>_n

where ``<x>_n`` is the rising factorial.  Going from n to n+1 multiplies a
row by one rational factor in s, so :class:`KernelTable` builds the rows in
order of n, each from the one before (Taylor-mode evaluation of the term
ratio of Kummer's series):

    m_row(n+1)    = m_row(n) (n + u (1 - s)) / (1 + n - 2u s)
    mbar_row(n+1) = mbar_row(n) (n^2 + 2u n - u^2 w)

The first takes one series division by the linear factor, the second is a
shift and a scaling in w; both run at the table's precision and round once
per step, so an entry carries the rounding of every step before it.  The
second factor is (u(1-s) + n)(u(1+s) + n), whose s^2 = 1 + w makes it linear
in w: ``mbar_row(n)`` is a polynomial of degree n, so ``mbar_row(n)[m] = 0``
for ``m > n`` identically, which the downcrossing sums exploit.  Entry m of
either row reads only entries up to m, so a row of degree ``order`` is the
exact prefix of a row of any higher degree.

The upcrossing building blocks (``q_series``, ``l_series``, ``t_series``)
are convergent sums over n and are truncated by a stagnation rule; the
downcrossing blocks (``lbar_series``) are asymptotic sums in ``1/(v y)``
summed by optimal truncation (stop at the smallest term, report the first
omitted term as the error estimate).

Every caller gets its table from :func:`ensure_table`, which keeps one
process-wide cache of :class:`KernelTable` objects keyed by
``(u, precision)``: rows depend on nothing else, so a moments or density
scan over thresholds or starting states at fixed (r, K, q, E, sigma)
builds its rows once.  A cached table serves any order up to its own; a
request of higher order replaces it.  The cache keeps the TABLE_CACHE_SIZE
most recently used tables and drops the least recently used beyond that;
``table_cache_info`` reports its hits, misses and size.  Sums over n stop at
N_MAX_DEFAULT, the last row a table holds, and the convergent ones are cut
at the relative tolerance L_SERIES_TOL.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpf

from .errors import NoConvergence
from .model import DerivedParams
from .series import ExpSeries, falling_factorial, series_product

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


class KernelTable:
    """Per-n coefficient rows for a fixed drift index u.

    ``m_row(n)`` and ``mbar_row(n)``, n = 0..N_MAX_DEFAULT, are the
    :class:`ExpSeries` in ``a z`` of the n-th ratio and product, of degree
    ``order``.  Rows are built in order of n at the precision of the derived
    parameters, each from the one before, on first use, and kept; the table
    is immutable from the caller's perspective and safe to share once built.
    """

    def __init__(self, d: DerivedParams, order: int):
        self.u = d.u
        self.precision = d.precision
        self.order = order
        with mp.workprec(self.precision):
            # s_k = (1/2)(1/2 - 1)...(1/2 - k + 1), the coefficients of
            # s = sqrt(1 + w) in exp convention; entry m of a series division by
            # a linear factor in s weighs D_{m-k} by C(m, k) s_k
            s = [mpf(1)]
            for k in range(order):
                s.append(s[-1] * (mpf(1) / 2 - k))
            self._weights = [[math.comb(m, k) * s[k] for k in range(m + 1)]
                             for m in range(order + 1)]
            one = ExpSeries.identity(order, mpf(1))
        self._rows = {"m": [one], "mbar": [one]}

    def _row(self, family: str, n: int, step) -> ExpSeries:
        if not 0 <= n <= N_MAX_DEFAULT:
            raise IndexError(f"n = {n} outside table bounds 0..{N_MAX_DEFAULT}")
        rows = self._rows[family]
        if n >= len(rows):
            with mp.workprec(self.precision):
                while len(rows) <= n:
                    rows.append(step(len(rows) - 1, rows[-1]))
        return rows[n]

    def _m_step(self, i: int, prev: ExpSeries) -> ExpSeries:
        """m_row(i+1) = (i + u(1-s)) D with D = m_row(i) / (1 + i - 2us).

        D takes one series division, D_m = (prev_m + 2u S_m) / (1 + i - 2u)
        with S_m = sum_{k=1..m} C(m,k) s_k D_{m-k}; entry m of the new row
        is i D_m - u S_m.  Since i + u(1-s) = (1 + i - 2us)/2 + u + (i-1)/2
        this is m_row(i)/2 + (u + (i-1)/2) D, but written so that entry 0
        comes out an exact zero for every u.
        """
        u = self.u
        two_u = 2 * u
        den = 1 + i - two_u
        quot, out = [], []
        for m_, weights in enumerate(self._weights):
            conv = mpf(0)
            for k in range(1, m_ + 1):
                conv += weights[k] * quot[m_ - k]
            quot.append((prev[m_] + two_u * conv) / den)
            out.append(i * quot[m_] - u * conv)
        return ExpSeries(tuple(out))

    def _mbar_step(self, i: int, prev: ExpSeries) -> ExpSeries:
        """mbar_row(i+1) = (i^2 + 2ui - u^2 w) mbar_row(i); multiplying by w
        shifts an exp-convention series up one place and scales entry m by m."""
        c = i * (i + 2 * self.u)
        u2 = self.u ** 2
        return ExpSeries((c * prev[0],) + tuple(c * prev[m_] - u2 * m_ * prev[m_ - 1]
                                                for m_ in range(1, self.order + 1)))

    def m_row(self, n: int) -> ExpSeries:
        """<u(1-s)>_n / <1-2us>_n; entry 0 vanishes for n >= 1, and the
        denominator constant <1-2u>_n never does in the persistent regime."""
        return self._row("m", n, self._m_step)

    def mbar_row(self, n: int) -> ExpSeries:
        """<u(1-s)>_n <u(1+s)>_n, a polynomial of degree n in z: entries
        above n, and entry 0 for n >= 1, are exact zeros."""
        return self._row("mbar", n, self._mbar_step)


def ensure_table(d: DerivedParams, order: int) -> KernelTable:
    """The shared table for (u, precision), of degree at least ``order``.

    The process-wide cache is looked up by ``(d.u, d.precision)``.  Entry m
    of a row depends only on entries up to m, so a cached table of higher
    degree serves a lower ``order`` unchanged; a table of lower degree, or
    none, is replaced by a new one of degree ``order``.  The least recently
    used table beyond TABLE_CACHE_SIZE is dropped.
    """
    key = (d.u, d.precision)
    table = _tables.pop(key, None)
    if table is None or table.order < order:
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
