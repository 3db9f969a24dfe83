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
shift and a scaling in w.  Both run in fixed point, in the style of
mpmath's hypergeometric summators (``mpmath.libmp.libhyper``): a row is a
list of Python ints that share one binary exponent, rescaled after each
step so that its smallest nonzero entry carries ``precision + GUARD_BITS``
bits.  u enters exactly, as its mantissa and exponent; the division weights
are exact integers; and the mbar step is exact up to the rescaling.  The
guard bits absorb what the steps truncate: the sums over n read the entries
as ints and round only their results to the table's precision, not once
per step.  The second factor is (u(1-s) + n)(u(1+s) + n), whose s^2 = 1 + w
makes it linear in w: ``mbar_row(n)`` is a polynomial of degree n, so
``mbar_row(n)[m] = 0`` for ``m > n`` identically, which the downcrossing
sums exploit.  Entry m of either row reads only entries up to m, so a row of
degree ``order`` is the exact prefix of a row of any higher degree.

The upcrossing building blocks (``q_series``, ``l_series``, ``t_series``)
are convergent sums over n and are truncated by a stagnation rule; the
downcrossing blocks (``lbar_series``) are asymptotic sums in ``1/(v y)``
summed by optimal truncation (stop at the smallest term, report the first
omitted term as the error estimate).  ``l_series`` and ``lbar_series`` run
their n-sums in the same integers, on the rows as ints: (v y)^n / n! and
(v y)^-n / n! are fixed-point sequences, each order's partial sum is one
int, and both truncation rules compare ints exactly.  ``l_series`` advances
all its orders in one pass over n, each to its own cut.  Both return the
partial sums as ints, in a :class:`SumSeries`: an :class:`ExpSeries` whose
``mpf`` coefficients (each sum rounded to the precision, then times a^k)
are formed on first use.  Only the downcrossing error estimates are formed
in ``mpf`` right away.

The moments do not go through ``t_series`` = q(y) l(y).  The upcrossing
quotient is q(x0) l(x0) / (q(U) l(U)), and since q(y) = y^(u (1 - s)),
q(x0) / q(U) = q(x0 / U) exactly: :func:`logifpt.analytics.fpt_moments`
forms one q-series, of exponent u log(U / x0) (1/2)_k a^k, and divides
q(x0 / U) l(x0) by l(U).  Dividing by a second q-series instead loses up to
16 digits to cancellation at order 10.  The quotient runs in the same
fixed point as the rows (``_fixed_quotient``): it takes the partial sums
of the two :class:`SumSeries` as ints, with a^k folded in as a
fixed-point int at precision + GUARD_BITS bits, and the exponent, the
exp recurrence, the product and the ratio are Python ints at one binary
exponent.  No ``mpf`` is formed between the kernel rows and the moments:
the first one is each moment, rounded once.  Going down the quotient is
lbar(x0) / lbar(L), in the same ints.  The error bound and the cumulants
read the ``mpf`` series and stay in ``mpf``.  So does the independent check
in ``tests/oracles.py``, the Bell-polynomial closed form, which multiplies
``q_series`` into the l-series at x0; in the library only ``t_series``
calls ``q_series``.  At 256 bits and order 10, the int route keeps the
upcrossing moments of the seven benchmark scenarios within 4.9e-76 of a
700-bit evaluation, and within 8e-77 at u = -1e4 and -0.01.

Every caller gets its table from :func:`ensure_table`, which keeps one
:class:`KernelTable` per process, the last one built.  Rows depend on
nothing but ``(u, precision)``, so a moments or density scan over thresholds
or starting states at fixed (r, K, q, E, sigma) builds its rows once.  The
kept table serves any order up to its own; another u or precision, or a
higher order, replaces it with an empty one.  Besides rows, a table keeps
the ints that ``l_series`` and ``lbar_series`` return (partial sums,
exponents, cuts and, going down, first omitted terms), keyed by the family
and the exact ``mpf`` v y, at the highest order computed.  A lower order
reads their prefix, which has the bits of a fresh call, since each order is
summed and cut on its own.  The ``SumSeries`` and the ``mpf`` error
estimates are formed from the caller's ``d.a`` on every call, so the same u
and v y under another a share the sums.  A ``NoConvergence`` is not kept.
ENDPOINT_SUMS_MAX bounds the entries, the least recently used going first.
A scan from one starting state thus sums that state once; a likelihood fit,
with a new u at every evaluation, builds a new table each time and gains
from neither rows nor sums.  Sums over n stop at N_MAX_DEFAULT,
the last row a table holds, and the convergent ones are cut at the relative
tolerance L_SERIES_TOL.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import mpmath
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from .errors import NoConvergence
from .model import DerivedParams
from .series import ExpSeries, binomial_series, series_exp, series_product

# last row n of every table, hence the last term of every sum over n
N_MAX_DEFAULT = 256
# endpoint sums a table keeps, the least recently used dropped first
ENDPOINT_SUMS_MAX = 64
# relative size below which a term of a convergent sum is negligible
L_SERIES_TOL = mpf("1e-30")
# consecutive negligible terms required before a convergent sum is cut
_STAGNATION_RUN = 5
# sustained-growth factor that ends term generation in an asymptotic sum
_GROWTH_STOP = 10
# bits above the table precision carried by fixed-point rows and sums
GUARD_BITS = 64


def _man_exp(x) -> tuple:
    """(man, exp) with x = man 2^exp exactly, for a finite mpf x."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


# L_SERIES_TOL = _TOL_MAN 2^_TOL_EXP exactly
_TOL_MAN, _TOL_EXP = _man_exp(L_SERIES_TOL)


def _to_mpf(man: int, exp: int, precision: int):
    """man 2^exp rounded to nearest at ``precision`` bits."""
    return mp.make_mpf(from_man_exp(man, exp, precision, round_nearest))


def _shift(man: int, by: int) -> int:
    """man 2^by, floored to an integer."""
    return man << by if by >= 0 else man >> -by


def _fixed_powers(x, order: int, wp: int) -> list:
    """(man, exp) with man 2^exp = x^k to wp bits, k = 0..order, each from
    the one before; x^0 = 1 and x^1 = x are exact."""
    x_man, x_exp = _man_exp(x)
    out = [(1, 0)]
    man, exp = 1, 0
    for _ in range(order):
        man *= x_man
        by = wp - man.bit_length()
        man, exp = _shift(man, by), exp + x_exp - by
        out.append((man, exp))
    return out


def _fixed_quotient(num: "SumSeries", den: "SumSeries", q_log=None) -> tuple:
    """Coefficients of q num / den, or of num / den when ``q_log`` is None,
    for two building-block series of :func:`l_series` or :func:`lbar_series`,
    each rounded once to the precision.

    q = exp(A) with A_0 = 0 and A_k = c (1/2)_k a^k for ``q_log`` = c, the
    falling factorial (1/2)_k as in :func:`q_series`.  The int partial sums
    come in with a^k folded in (``SumSeries.fixed``), a^k taken at precision
    + GUARD_BITS bits, and each A_k is one exact product of c, (1/2)_k 2^k
    and a^k.  Everything then comes to the one binary exponent that gives
    the smallest nonzero input entry precision + GUARD_BITS bits, the rule
    of the kernel rows, and the exp recurrence, the product and the ratio of
    :mod:`logifpt.series` run on Python ints: each output entry sums its
    terms exactly and is floored once to the shared exponent.  den_0 = 1, so
    the ratio divides by nothing.
    """
    precision = num.d.precision
    wp = precision + GUARD_BITS
    order = num.order
    apow = _fixed_powers(num.d.a, order, wp)
    parts = num.fixed(apow) + den.fixed(apow)
    if q_log is not None:
        c_man, c_exp = _man_exp(q_log)
        half = 1  # (1/2)_k 2^k
        for k, (man, e) in enumerate(apow[1:]):
            half *= 1 - 2 * k
            parts.append((c_man * half * man, c_exp + e - k - 1))
    exp = min(e + m.bit_length() for m, e in parts if m) - wp
    ints = [_shift(m, e - exp) for m, e in parts]
    sh = -exp  # num_0 = 1 carries at least wp bits, so the unit 1 << sh is exact
    top, bottom = ints[:order + 1], ints[order + 1:2 * order + 2]
    log_q = [0, *ints[2 * order + 2:]]
    pascal = [[math.comb(n, k) for k in range(n + 1)] for n in range(order + 1)]
    if q_log is not None:
        q = [1 << sh]
        for n in range(1, order + 1):
            row, tot = pascal[n - 1], 0
            for k in range(1, n + 1):
                tot += row[k - 1] * log_q[k] * q[n - k]
            q.append(tot >> sh)
        prod = []
        for n in range(order + 1):
            row, tot = pascal[n], 0
            for k in range(n + 1):
                tot += row[k] * q[k] * top[n - k]
            prod.append(tot >> sh)
        top = prod
    g = []
    for n in range(order + 1):
        row, tot = pascal[n], top[n] << sh
        for k in range(1, n + 1):
            tot -= row[k] * bottom[k] * g[n - k]
        g.append(tot >> sh)
    return tuple(_to_mpf(x, exp, precision) for x in g)


def _normalize(mans: list, exp: int, wp: int) -> tuple:
    """Rescale ints sharing the exponent ``exp`` so that the smallest nonzero
    one has wp bits: every nonzero entry then carries wp bits, however far
    apart the entries are (at order 10 a row spans up to 2^230 for large |u|
    and, in mbar, up to 2^320 for small |u|)."""
    low = min((abs(x).bit_length() for x in mans if x), default=wp)
    return [_shift(x, wp - low) for x in mans], exp - (wp - low)


class SumSeries(ExpSeries):
    """A building-block series held as its partial sums over n, one int per
    order: coefficient k >= 1 is a^k mans[k] 2^exps[k], coefficient 0 is 1.

    :func:`_fixed_quotient` reads the ints (``fixed``).  ``coeffs``, the
    ``mpf`` series, is formed on first use: each sum rounded to the
    precision, then times a^k in ``mpf``.
    """

    def __init__(self, mans: list, exps: list, d: DerivedParams):
        object.__setattr__(self, "mans", mans)
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "d", d)

    @property
    def order(self) -> int:
        return len(self.mans) - 1

    @cached_property
    def coeffs(self) -> tuple:
        d = self.d
        with mp.workprec(d.precision):
            out, apow = [mpf(1)], mpf(1)
            for man, exp in zip(self.mans[1:], self.exps[1:]):
                apow *= d.a
                out.append(apow * _to_mpf(man, exp, d.precision))
        return tuple(out)

    def fixed(self, apow: list) -> list:
        """The coefficients as exact (man, exp) pairs, given a^k as the pair
        ``apow[k]``."""
        return [(1, 0)] + [(m * p, e + f) for m, e, (p, f)
                           in zip(self.mans[1:], self.exps[1:], apow[1:])]


class KernelTable:
    """Per-n coefficient rows for a fixed drift index u.

    ``fixed_row("m", n)`` and ``fixed_row("mbar", n)``, n = 0..N_MAX_DEFAULT,
    are the exp-convention series in ``a z`` of the n-th ratio m_row(n) and
    product mbar_row(n), of degree ``order``.  Rows are built in order of n,
    each from the one before, on first use, and kept as fixed-point integers
    at the precision of the derived parameters plus GUARD_BITS.  Entry 0 of
    either row is an exact zero for n >= 1, and so are the entries of
    mbar_row(n) above n.

    ``endpoint_sums`` keeps the int sums of :func:`l_series` and
    :func:`lbar_series` at up to ENDPOINT_SUMS_MAX values of v y.  Rows and
    sums are filled on read, so the table is not safe to share between
    threads; between callers in one thread it gives the bits of a fresh
    table.
    """

    def __init__(self, d: DerivedParams, order: int):
        self.u = d.u
        self.precision = d.precision
        self.order = order
        self._wp = d.precision + GUARD_BITS
        # u = u_man 2^-sh exactly
        u_man, u_exp = _man_exp(d.u)
        self._sh = max(0, -u_exp)
        self._u_man = u_man << (u_exp + self._sh)
        # entry m of a series division by a linear factor in s = sqrt(1 + w)
        # weighs D_{m-k} by C(m, k) s_k, with s_k 2^k = prod_{j<k} (1 - 2j);
        # scaled by 2^order these weights are exact integers
        s_scaled = [1]
        for j in range(order):
            s_scaled.append(s_scaled[-1] * (1 - 2 * j))
        self._div_weights = [[math.comb(m, k) * s_scaled[k] << (order - k)
                              for k in range(1, m + 1)] for m in range(order + 1)]
        one = ([1 << self._wp] + [0] * order, -self._wp)
        self._rows = {"m": [one], "mbar": [one]}
        self._sums = OrderedDict()

    def fixed_row(self, family: str, n: int) -> tuple:
        """Row n of family "m" or "mbar" as (mans, exp): entry m is
        mans[m] 2^exp, and every nonzero entry has precision + GUARD_BITS
        bits or more."""
        if not 0 <= n <= N_MAX_DEFAULT:
            raise IndexError(f"n = {n} outside table bounds 0..{N_MAX_DEFAULT}")
        rows = self._rows[family]
        step = self._m_next if family == "m" else self._mbar_next
        while len(rows) <= n:
            rows.append(step(len(rows) - 1, *rows[-1]))
        return rows[n]

    def endpoint_sums(self, sums_at, vy, order: int) -> list:
        """The int lists ``sums_at(self, vy, order)`` returns, each cut to
        ``order`` + 1 entries.

        They are kept under (``sums_at``, the exact ``mpf`` vy).  A kept
        entry of ``order`` or higher serves the request as a prefix: each
        order's sum and cut are independent of the others.  Otherwise
        ``sums_at`` runs, and its lists replace what the key kept; an
        exception from it keeps nothing.  The least recently used key goes
        once more than ENDPOINT_SUMS_MAX are kept.
        """
        sums, key = self._sums, (sums_at, vy._mpf_)
        entry = sums.get(key)
        if entry is None or len(entry[0]) <= order:
            entry = sums[key] = sums_at(self, vy, order)
        sums.move_to_end(key)
        if len(sums) > ENDPOINT_SUMS_MAX:
            sums.popitem(last=False)
        return [x[:order + 1] for x in entry]

    def _m_next(self, i: int, prev: list, exp: int) -> tuple:
        """m_row(i+1) = (i + u(1-s)) D with D = m_row(i) / (1 + i - 2us).

        D takes one series division, D_m = (prev_m + 2u S_m) / (1 + i - 2u)
        with S_m = sum_{k=1..m} C(m,k) s_k D_{m-k}; entry m of the new row
        is i D_m - u S_m.  In units of 2^exp, with S_m = conv 2^-order and
        u = u_man 2^-sh, D_m is one floor division and entry 0 comes out an
        exact zero for every u.
        """
        u_man, up = self._u_man, self._sh + self.order
        den = (((1 + i) << self._sh) - 2 * u_man) << self.order
        quot, out = [], []
        for m_, weights in enumerate(self._div_weights):
            conv = 0
            for k, w in enumerate(weights, 1):
                conv += w * quot[m_ - k]
            uc = u_man * conv
            q = ((prev[m_] << up) + 2 * uc) // den
            quot.append(q)
            out.append(i * q - (uc >> up))
        return _normalize(out, exp, self._wp)

    def _mbar_next(self, i: int, prev: list, exp: int) -> tuple:
        """mbar_row(i+1) = (i^2 + 2ui - u^2 w) mbar_row(i), exactly in units
        of 2^(exp - 2 sh); multiplying by w shifts an exp-convention series up
        one place and scales entry m by m."""
        sh = self._sh
        c = ((i * i) << sh) + 2 * i * self._u_man   # (i^2 + 2ui) 2^sh
        u2 = self._u_man ** 2                         # u^2 2^(2 sh)
        out = [(c * prev[0]) << sh]
        out += [((c * prev[m_]) << sh) - u2 * m_ * prev[m_ - 1]
                for m_ in range(1, self.order + 1)]
        return _normalize(out, exp - 2 * sh, self._wp)


# the table ensure_table built last
_table = None


def ensure_table(d: DerivedParams, order: int) -> KernelTable:
    """The shared table for (u, precision), of degree at least ``order``.

    One table is kept, the last one built.  Entry m of a row depends only on
    entries up to m, so it serves a request with its own ``(d.u,
    d.precision)`` and a degree up to its own unchanged; any other request
    replaces it with a new, empty table of degree ``order``.  Besides rows,
    the table keeps the int endpoint sums of up to ENDPOINT_SUMS_MAX values
    of (family, exact v y), each at the highest order computed and served to
    lower orders as a prefix (:meth:`KernelTable.endpoint_sums`); no
    ``NoConvergence`` is kept.  A likelihood fit, with a new u at every
    evaluation, gains nothing from either.
    """
    global _table
    if (_table is None or (_table.u, _table.precision) != (d.u, d.precision)
            or _table.order < order):
        _table = KernelTable(d, order)
    return _table


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


def q_series(y, order: int, d: DerivedParams) -> ExpSeries:
    """Expansion of y^(u (1 - s(z))) in the Laplace variable z.

    The exponential of u log(y) (1 - s), where s = sqrt(1 + a z) has the
    coefficients (1/2)_k a^k (falling factorial); collapses to the identity
    series at y = 1.
    """
    with mp.workprec(d.precision):
        ulogy = d.u * mpmath.log(mpf(y))
        s = binomial_series(mpf(1) / 2, d.a, order)
        return series_exp(ExpSeries((mpf(0),) + tuple(-ulogy * c for c in s.coeffs[1:])))


def _powers_over_factorials(x, wp: int):
    """n -> (man, exp) with man 2^exp = x^n / n! to wp bits, from one list
    grown on demand, each entry from the last."""
    x_man, x_exp = _man_exp(x)
    values = [(1 << wp, -wp)]

    def at(n):
        while len(values) <= n:
            man, exp = values[-1]
            man = man * x_man // len(values)
            by = wp - man.bit_length()
            values.append((_shift(man, by), exp + x_exp - by))
        return values[n]

    return at


def _fixed_terms(table: KernelTable, family: str, k: int, scale, n_start: int):
    """Exact products (man, exp) of row entry k and scale(n), n = n_start ..
    N_MAX_DEFAULT."""
    for n in range(n_start, N_MAX_DEFAULT + 1):
        mans, e = table.fixed_row(family, n)
        x, f = scale(n)
        yield mans[k] * x, e + f


def _fixed_asymptotic_sum(terms, wp: int):
    """Optimal truncation, the rule of :func:`lbar_series`, over exact terms
    (man, exp), in integers.

    The kept terms share one exponent, lowered (and the kept ints shifted up
    to match) whenever a new term would carry fewer than wp bits, so the
    envelope comparisons see every term to wp bits.  Returns (value_man,
    first_omitted_man, exp, index of the last included term).
    """
    kept, acc, min_env = [], None, None
    for p, e in terms:
        want = e + p.bit_length() - wp
        if acc is None:
            acc = want
        elif p and want < acc:
            by = acc - want + wp  # room for the next wp bits of decline
            kept = [t << by for t in kept]
            if min_env is not None:
                min_env <<= by
            acc -= by
        kept.append(_shift(p, e - acc))
        if len(kept) >= 2:
            env = max(abs(kept[-1]), abs(kept[-2]))
            if min_env is None or env < min_env:
                min_env = env
            elif env > _GROWTH_STOP * min_env and abs(kept[-1]) > abs(kept[-2]):
                break
    if len(kept) == 1:
        return kept[0], abs(kept[0]), acc, 0
    best = min(range(len(kept) - 1), key=lambda i: max(abs(kept[i]), abs(kept[i + 1])))
    return sum(kept[: best + 1]), abs(kept[best + 1]), acc, best


def l_series(y, order: int, d: DerivedParams):
    """Expansion coefficients l_k(y) of the regular hypergeometric factor.

    l_0 = 1 and l_k = a^k sum_{n>=1} m_row(n)[k] (v y)^n / n!.  The n-sum
    converges factorially; it is cut once five consecutive terms fall below
    L_SERIES_TOL times the running partial sum.  Raises NoConvergence, for
    the smallest order still open, if the table bound N_MAX_DEFAULT is hit
    first.  Returns (series, diagnostics); the series is a :class:`SumSeries`,
    whose ``mpf`` coefficients are formed on first use.

    The sums run in fixed point on the table's integer rows, all orders in
    one pass over n, so each row and each (v y)^n / n! is fetched once.
    Order k keeps its partial sum as one int at the exponent that gives its
    first term wp bits, and leaves the pass at its own cut; the stagnation
    test compares ints against the exact mantissa and exponent of
    L_SERIES_TOL.  The ints and cuts are kept on the table under v y
    (:meth:`KernelTable.endpoint_sums`), so a scan from one starting state
    sums it once.
    """
    table = ensure_table(d, order)
    with mp.workprec(d.precision):
        vy = d.v * mpf(y)
    partial, acc, cut = table.endpoint_sums(_l_sums, vy, order)
    diag = SeriesDiagnostics(trunc_index=cut, error_estimate=[mpf(0)] * (order + 1))
    return SumSeries(partial, acc, d), diag


def _l_sums(table: KernelTable, vy, order: int) -> tuple:
    """(partial sums, their exponents, cuts) of :func:`l_series` at v y."""
    wp = table._wp
    scale = _powers_over_factorials(vy, wp)
    partial, acc, run = [0] * (order + 1), [None] * (order + 1), [0] * (order + 1)
    cut = [0] * (order + 1)
    open_orders = list(range(1, order + 1))
    for n in range(1, N_MAX_DEFAULT + 1):
        mans, e = table.fixed_row("m", n)
        x, f = scale(n)
        e += f
        still_open = []
        for k in open_orders:
            p = mans[k] * x
            if acc[k] is None:
                acc[k] = e + p.bit_length() - wp
            term = _shift(p, e - acc[k])
            partial[k] += term
            ref = abs(partial[k]) if partial[k] else abs(term)
            if abs(term) << -_TOL_EXP <= _TOL_MAN * ref:
                run[k] += 1
                if run[k] >= _STAGNATION_RUN:
                    cut[k] = n
                    continue
            else:
                run[k] = 0
            still_open.append(k)
        open_orders = still_open
        if not open_orders:
            return partial, acc, cut
    raise NoConvergence(f"l-series order {open_orders[0]} at v*y = {float(vy)}: "
                        f"sum still changing at n_max = {N_MAX_DEFAULT}")


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
    the error estimate, in ``mpf``.  Returns (series, diagnostics); the
    series is a :class:`SumSeries`, whose ``mpf`` coefficients are formed on
    first use.  The sums, cuts and first omitted terms are ints kept on the
    table under v y, as in :func:`l_series`; the estimates, a^m times the
    first omitted term, are formed from ``d.a`` on every call.
    """
    table = ensure_table(d, order)
    with mp.workprec(d.precision):
        vy = d.v * mpf(y)
        mans, exps, cut, omitted = table.endpoint_sums(_lbar_sums, vy, order)
        apow, estimates = mpf(1), [mpf(0)]
        for est, exp in zip(omitted[1:], exps[1:]):
            apow *= d.a
            estimates.append(apow * _to_mpf(est, exp, d.precision))
    return SumSeries(mans, exps, d), SeriesDiagnostics(trunc_index=cut,
                                                       error_estimate=estimates)


def _lbar_sums(table: KernelTable, vy, order: int) -> tuple:
    """(sums, their exponents, cuts, first omitted terms) of
    :func:`lbar_series` at v y, the omitted terms at the sums' exponents."""
    scale = _powers_over_factorials(-1 / vy, table._wp)  # carries (-1)^n
    mans, exps, cut, omitted = [0], [0], [0], [0]
    for m_ in range(1, order + 1):
        terms = _fixed_terms(table, "mbar", m_, scale, m_)
        value, est, exp, best = _fixed_asymptotic_sum(terms, table._wp)
        mans.append(value)
        exps.append(exp)
        cut.append(m_ + best)
        omitted.append(est)
    return mans, exps, cut, omitted
