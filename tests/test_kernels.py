from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from logifpt import (KernelTable, ModelParams, derive_params, l_series,
                     lbar_series, q_series, t_series)
from logifpt import kernels
from logifpt.errors import NoConvergence
from logifpt.kernels import asymptotic_sum, convergent_sum
from logifpt.series import (ExpSeries, falling_factorial, series_exp, series_product,
                            series_ratio)
from tests.conftest import FISHERIES, fisheries_at


def dyadic_table(u_value=-2.625, precision=256, order=7):
    """Kernel table whose drift index is an exactly representable dyadic,
    so the rational brute-force oracle sees the identical u."""
    sigma = 1.0
    r1 = sigma ** 2 * (1 - 2 * u_value) / 2
    d = derive_params(ModelParams(r=r1, K=1000.0, q=0.0, E=0.0, sigma=sigma, x0=10.0),
                      precision=precision)
    assert float(d.u) == u_value
    return d, KernelTable(d, order)


def euler_applied_product(factors, m):
    """Oracle: expand prod of (const + slope*t) exactly, apply the m-th
    falling power of the halved Euler operator termwise, evaluate at t=1."""
    poly = [Fraction(1)]
    for const, slope in factors:
        nxt = [Fraction(0)] * (len(poly) + 1)
        for k, c in enumerate(poly):
            nxt[k] += c * const
            nxt[k + 1] += c * slope
        poly = nxt
    return sum(c * falling_factorial(Fraction(k, 2), m) for k, c in enumerate(poly))


def lam_oracles(u, n, m):
    uf = Fraction(u)
    plain = euler_applied_product([(1 + i, -2 * uf) for i in range(n)], m)
    tilde = euler_applied_product([(uf + i, -uf) for i in range(n)], m)
    bar = euler_applied_product([(uf + i, uf) for i in range(n)], m)
    return plain, tilde, bar


def exact(q):
    return mpf(q.numerator) / q.denominator


def oracle_rows(u, n, order):
    """m_row(n) and mbar_row(n) in exact rationals: series_ratio and
    series_product of the Fraction expansions of the rising factorials."""
    plain, tilde, bar = zip(*(lam_oracles(u, n, m) for m in range(order + 1)))
    return (series_ratio(ExpSeries(tilde), ExpSeries(plain)).coeffs,
            series_product(ExpSeries(tilde), ExpSeries(bar)).coeffs)


def test_table_bounds():
    d, tab = dyadic_table(order=5)
    tab.m_row(kernels.N_MAX_DEFAULT)
    with pytest.raises(IndexError):
        tab.m_row(kernels.N_MAX_DEFAULT + 1)[0]
    with pytest.raises(IndexError):
        tab.m_row(2)[6]
    with pytest.raises(IndexError):
        tab.m_row(-1)[0]


def test_m_coeff_examples_and_series_oracle(fisheries):
    d, tab = dyadic_table(order=6)
    u = d.u
    assert tab.m_row(0)[0] == 1
    with mp.workprec(256):
        expect = -u / (2 * (1 - 2 * u))
        assert abs(tab.m_row(1)[1] - expect) <= mpf("1e-70") * abs(expect)
    # the recurrence rounds once per step; 1e-65 bounds what 12 steps leave
    with mp.workprec(256):
        for n in range(0, 13):
            want, _ = oracle_rows(-2.625, n, 6)
            for m in range(7):
                e = exact(want[m])
                assert abs(tab.m_row(n)[m] - e) <= mpf("1e-65") * max(1, abs(e))
    # entry 0 is <0>_n / <1-2u>_n: an exact zero at a u that is not dyadic too
    fish = KernelTable(fisheries, 2)
    for n in range(1, 13):
        assert tab.m_row(n)[0] == 0
        assert fish.m_row(n)[0] == 0


def test_mbar_examples_and_series_oracle():
    d, tab = dyadic_table(order=6)
    u = d.u
    assert tab.mbar_row(0)[0] == 1
    assert tab.mbar_row(0)[3] == 0
    for n in range(1, 13):
        assert tab.mbar_row(n)[0] == 0
    assert abs(tab.mbar_row(1)[1] - (-u ** 2)) <= mpf("1e-70") * abs(u ** 2)
    with mp.workprec(256):
        for n in range(0, 13):
            _, want = oracle_rows(-2.625, n, 6)
            for m in range(7):
                e = exact(want[m])
                assert abs(tab.mbar_row(n)[m] - e) <= mpf("1e-65") * max(1, abs(e))


def test_mbar_degree_bound():
    # the product of the two rank-n rising factorials is a degree-n
    # polynomial in the transform variable, so coefficients vanish above n
    d, tab = dyadic_table()
    for n in range(1, 6):
        for m in range(n + 1, 8):
            assert tab.mbar_row(n)[m] == 0


# ------------------------------------------------------------- series blocks

def test_q_series_trivials_and_leading_term(fisheries):
    d = fisheries
    qs = q_series(1.0, 6, d)
    assert qs.coeffs[0] == 1
    assert all(c == 0 for c in qs.coeffs[1:])
    y = 123.0
    qs = q_series(y, 6, d)
    with mp.workprec(d.precision):
        expect = -d.u * mpmath.log(mpf(y)) * mpf(1) / 2 * d.a
        assert abs(qs.coeffs[1] - expect) <= mpf("1e-70") * abs(expect)


def test_q_series_matches_exp_of_log_expansion(fisheries):
    d = fisheries
    y = 7345.5
    order = 6
    with mp.workprec(d.precision):
        logy = mpmath.log(mpf(y))
        w = [mpf(0)]
        apow = mpf(1)
        for j in range(1, order + 1):
            apow *= d.a
            w.append(-d.u * logy * falling_factorial(mpf(1) / 2, j) * apow)
        via_exp = series_exp(ExpSeries(tuple(w)))
        qs = q_series(y, order, d)
        scale = max(abs(c) for c in qs.coeffs)
        for x, yv in zip(qs.coeffs, via_exp.coeffs):
            assert abs(x - yv) <= mpf("1e-60") * scale


def test_l_series_basics(fisheries):
    d = fisheries
    y = 1e4
    ls, diag = l_series(y, 3, d)
    assert ls.coeffs[0] == 1
    with mp.workprec(d.precision):
        vy = d.v * mpf(y)
        lead = d.a * (-d.u / (2 * (1 - 2 * d.u))) * vy
        # first coefficient is dominated by its n=1 term at small v*y
        assert abs(ls.coeffs[1] / lead - 1) < 0.01
    assert diag.trunc_index[1] >= 1
    assert all(e == 0 for e in diag.error_estimate)


def test_l_series_invariant_under_doubled_truncation():
    d = fisheries_at(2.01e7)
    y = 3.91e7
    ls, diag = l_series(y, 3, d)
    tab = kernels.ensure_table(d, 3)
    with mp.workprec(d.precision):
        vy = d.v * mpf(y)
        for k in range(1, 4):
            n2 = min(2 * diag.trunc_index[k], kernels.N_MAX_DEFAULT)
            direct = sum(tab.m_row(n)[k] * vy ** n / mpmath.factorial(n)
                         for n in range(1, n2 + 1))
            direct *= d.a ** k
            assert abs(direct - ls.coeffs[k]) <= mpf("1e-25") * abs(direct)


def test_l_series_no_convergence_beyond_table_bound():
    d = fisheries_at(2.01e7)
    with pytest.raises(NoConvergence):
        l_series(3e8, 2, d)  # v*y ~ 132: terms near n = 256 are not yet negligible


def test_t_series_is_product_of_blocks(fisheries):
    d = fisheries
    y = 512.0
    order = 5
    ts, _ = t_series(y, order, d)
    ls, _ = l_series(y, order, d)
    qs = q_series(y, order, d)
    with mp.workprec(d.precision):
        prod = series_product(ls, qs)
        scale = max(abs(c) for c in ts.coeffs)
        for x, yv in zip(ts.coeffs, prod.coeffs):
            assert abs(x - yv) <= mpf("1e-60") * scale
    assert ts.coeffs[0] == 1
    # y = 1 collapses the state factor: t_m = l_m
    ts1, _ = t_series(1.0, order, d)
    ls1, _ = l_series(1.0, order, d)
    assert ts1.coeffs == ls1.coeffs


def test_lbar_series_leading_term_and_estimates():
    d = fisheries_at(3.91e7)
    # far tail: v*y ~ 441 makes the n=1 term dominate the asymptotic sum
    y_far = 1e9
    bs_far, _ = lbar_series(y_far, 1, d)
    with mp.workprec(d.precision):
        lead = d.a * d.u ** 2 / (d.v * mpf(y_far))
        assert abs(bs_far.coeffs[1] / lead - 1) < 0.05
    y = 3.91e7
    bs, diag = lbar_series(y, 4, d)
    assert bs.coeffs[0] == 1
    assert all(e > 0 for e in diag.error_estimate[1:])
    # estimates are small relative to the coefficients at this v*y
    for k in range(1, 5):
        assert diag.error_estimate[k] < mpf("1e-10") * abs(bs.coeffs[k])


def test_sum_helpers():
    with mp.workprec(128):
        val, n = convergent_sum(lambda k: mpf(2) ** (-k), mpf("1e-20"), 500)
        assert abs(val - 1) < mpf("1e-18")
        # alternating factorial-style divergence: optimal cut near the
        # smallest term, estimate equals the first omitted magnitude
        x = mpf(10)

        def term(k):
            return (-1) ** k * mpmath.factorial(k) / x ** k

        value, est, cut = asymptotic_sum(term, 1, 400)
        assert 5 <= cut <= 15
        assert est == abs(term(cut + 1))


def _cache_delta(before):
    after = kernels.table_cache_info()
    return after["hits"] - before["hits"], after["misses"] - before["misses"]


def test_shared_table_serves_a_threshold_scan(monkeypatch):
    from logifpt import Direction, FptProblem, fpt_moments

    built = []
    init = KernelTable.__init__

    def counting_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(KernelTable, "__init__", counting_init)
    # an r no other test uses, so the first call cannot find a cached table
    params = {**FISHERIES, "r": 0.7137}
    before = kernels.table_cache_info()
    d1 = derive_params(ModelParams(**{**params, "x0": 100.0}))
    a = fpt_moments(d1, FptProblem(Direction.UP, 1e4), 4)
    # each building-block series looks the table up: x0 misses, the threshold hits
    assert _cache_delta(before) == (1, 1)
    d2 = derive_params(ModelParams(**{**params, "x0": 150.0}))
    b = fpt_moments(d2, FptProblem(Direction.UP, 2e4), 4)
    assert _cache_delta(before) == (3, 1)
    assert len(built) == 1
    assert a.moments != b.moments


def test_shared_tables_are_bounded_and_least_recently_used_go_first():
    def derived(i):
        return derive_params(ModelParams(**{**FISHERIES, "sigma": 0.1 + i / 1000}))

    before = kernels.table_cache_info()
    tables = [kernels.ensure_table(derived(i), 2) for i in range(20)]
    assert _cache_delta(before) == (0, 20)
    assert kernels.table_cache_info()["size"] <= kernels.TABLE_CACHE_SIZE
    # a hit on the oldest cached table keeps it while TABLE_CACHE_SIZE - 1
    # new ones push out the others
    oldest = 20 - kernels.TABLE_CACHE_SIZE
    assert kernels.ensure_table(derived(oldest), 2) is tables[oldest]
    for i in range(20, 19 + kernels.TABLE_CACHE_SIZE):
        kernels.ensure_table(derived(i), 2)
    assert kernels.ensure_table(derived(oldest), 2) is tables[oldest]
    assert kernels.ensure_table(derived(oldest + 1), 2) is not tables[oldest + 1]


def test_shared_tables_are_keyed_by_u_and_precision():
    from collections import OrderedDict
    from unittest import mock

    from logifpt import Direction, FptProblem, fpt_moments

    low, _ = dyadic_table(precision=128)
    high, _ = dyadic_table(precision=256)
    assert low.u == high.u  # one key field apart
    for d in (low, high):
        assert kernels.ensure_table(d, 3).precision == d.precision
    assert kernels.ensure_table(low, 3) is not kernels.ensure_table(high, 3)

    # rows of a lower order are the prefix of those of a higher one, so an
    # order-10 table serves order 4 with the numbers of a fresh order-4 table
    cases = [(fisheries_at(100.0), FptProblem(Direction.UP, 1e4)),
             (fisheries_at(3.91e7), FptProblem(Direction.DOWN, 2.8e7))]
    for d, prob in cases:
        with mock.patch.object(kernels, "_tables", OrderedDict()):
            ten = kernels.ensure_table(d, 10)
            served = fpt_moments(d, prob, 4)
            assert kernels.ensure_table(d, 4) is ten
        with mock.patch.object(kernels, "_tables", OrderedDict()):
            fresh = fpt_moments(d, prob, 4)
            assert kernels.ensure_table(d, 4).order == 4
        assert served.moments == fresh.moments
        assert served.error_estimates == fresh.error_estimates
        assert served.diagnostics.trunc_index == fresh.diagnostics.trunc_index

    # a higher order replaces the cached table, which then serves both
    d = fisheries_at(100.0)
    with mock.patch.object(kernels, "_tables", OrderedDict()):
        four = kernels.ensure_table(d, 4)
        ten = kernels.ensure_table(d, 10)
        assert ten is not four and ten.order == 10
        assert kernels.ensure_table(d, 4) is ten
        assert kernels.table_cache_info()["size"] == 1
