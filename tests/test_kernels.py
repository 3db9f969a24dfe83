import dataclasses
import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from logifpt import (KernelTable, ModelParams, derive_params, l_series,
                     lbar_series, q_series, t_series)
from logifpt import kernels
from logifpt.errors import NoConvergence
from tests.conftest import FISHERIES, drift_at, fisheries_at, scenario_grid
from tests.oracles import (ExpSeries, asymptotic_sum, binomial_series, convergent_sum,
                           falling_factorial, mpf_row, reference_q_series, series_exp,
                           series_product, series_ratio, sum_coeffs, sum_error_estimate)


def dyadic_table(u_value=-2.625, precision=256, order=7):
    """Kernel table whose drift index is an exactly representable dyadic,
    so the rational brute-force oracle sees the identical u."""
    d = drift_at(u_value, precision)
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
    mpf_row(tab, "m", kernels.N_MAX_DEFAULT)
    with pytest.raises(IndexError):
        mpf_row(tab, "m", kernels.N_MAX_DEFAULT + 1)[0]
    with pytest.raises(IndexError):
        mpf_row(tab, "m", 2)[6]
    with pytest.raises(IndexError):
        mpf_row(tab, "m", -1)[0]


def test_m_coeff_examples_and_series_oracle(fisheries):
    d, tab = dyadic_table(order=6)
    u = d.u
    assert mpf_row(tab, "m", 0)[0] == 1
    with mp.workprec(256):
        expect = -u / (2 * (1 - 2 * u))
        assert abs(mpf_row(tab, "m", 1)[1] - expect) <= mpf("1e-70") * abs(expect)
    # the recurrence rounds once per step; 1e-65 bounds what 12 steps leave
    with mp.workprec(256):
        for n in range(0, 13):
            want, _ = oracle_rows(-2.625, n, 6)
            for m in range(7):
                e = exact(want[m])
                assert abs(mpf_row(tab, "m", n)[m] - e) <= mpf("1e-65") * max(1, abs(e))
    # entry 0 is <0>_n / <1-2u>_n: an exact zero at a u that is not dyadic too
    fish = KernelTable(fisheries, 2)
    for n in range(1, 13):
        assert mpf_row(tab, "m", n)[0] == 0
        assert mpf_row(fish, "m", n)[0] == 0


def test_mbar_examples_and_series_oracle():
    d, tab = dyadic_table(order=6)
    u = d.u
    assert mpf_row(tab, "mbar", 0)[0] == 1
    assert mpf_row(tab, "mbar", 0)[3] == 0
    for n in range(1, 13):
        assert mpf_row(tab, "mbar", n)[0] == 0
    assert abs(mpf_row(tab, "mbar", 1)[1] - (-u ** 2)) <= mpf("1e-70") * abs(u ** 2)
    with mp.workprec(256):
        for n in range(0, 13):
            _, want = oracle_rows(-2.625, n, 6)
            for m in range(7):
                e = exact(want[m])
                assert abs(mpf_row(tab, "mbar", n)[m] - e) <= mpf("1e-65") * max(1, abs(e))


def test_mbar_degree_bound():
    # the product of the two rank-n rising factorials is a degree-n
    # polynomial in the transform variable, so coefficients vanish above n
    d, tab = dyadic_table()
    for n in range(1, 6):
        for m in range(n + 1, 8):
            assert mpf_row(tab, "mbar", n)[m] == 0


def reference_rows(u, order, n_max, precision=600):
    """m_row(n) and mbar_row(n), n = 0..n_max, by the mpf row steps at
    ``precision`` bits, rounding once per step.

    The m step is one series division by the linear factor 1 + i - 2us,
    D_m = (prev_m + 2u S_m) / (1 + i - 2u) with S_m = sum_{k=1..m} C(m,k)
    s_k D_{m-k}, and entry m of the next row is i D_m - u S_m; the mbar step
    multiplies by i^2 + 2ui - u^2 w.
    """
    with mp.workprec(precision):
        s = binomial_series(mpf(1) / 2, 1, order)
        weights = [[math.comb(m, k) * s[k] for k in range(m + 1)] for m in range(order + 1)]
        one = (mpf(1),) + (mpf(0),) * order
        m_rows, mbar_rows = [one], [one]
        for i in range(n_max):
            prev, quot, out = m_rows[-1], [], []
            for m_ in range(order + 1):
                conv = sum((weights[m_][k] * quot[m_ - k] for k in range(1, m_ + 1)), mpf(0))
                quot.append((prev[m_] + 2 * u * conv) / (1 + i - 2 * u))
                out.append(i * quot[m_] - u * conv)
            m_rows.append(tuple(out))
            prev, c = mbar_rows[-1], i * (i + 2 * u)
            mbar_rows.append((c * prev[0],) + tuple(c * prev[m_] - u ** 2 * m_ * prev[m_ - 1]
                                                    for m_ in range(1, order + 1)))
    return m_rows, mbar_rows


@pytest.mark.parametrize("u_value", [None, -1e4, -0.01], ids=["fisheries", "large_u", "small_u"])
def test_rows_match_a_600_bit_reference_to_the_table_bound(u_value):
    """Fixed-point rows are rounded once, on conversion: every nonzero entry
    of both families is within 1e-75 of a 600-bit recurrence up to the last
    row, and every structural zero is an exact zero.  Entries of one row
    span about 2^136 at |u| = 1e4 (both families) and at |u| = 0.01 (mbar)."""
    d = fisheries_at(100.0) if u_value is None else drift_at(u_value)
    order = 10
    tab = KernelTable(d, order)
    want_m, want_mbar = reference_rows(d.u, order, kernels.N_MAX_DEFAULT)
    with mp.workprec(600):
        for n in range(1, kernels.N_MAX_DEFAULT + 1):
            for got, want in ((mpf_row(tab, "m", n), want_m[n]),
                              (mpf_row(tab, "mbar", n), want_mbar[n])):
                for x, e in zip(got.coeffs, want):
                    if e == 0:
                        assert x == 0
                    else:
                        assert abs(x - e) <= mpf("1e-75") * abs(e)


# trunc_index and flagged of fpt_moments on scenario_grid(), as the
# per-step mpf sums cut them
CUTS = {
    ("up_1e4", 4): ([0, 13, 14, 14, 13], [False] * 4),
    ("up_1e4", 10): ([0, 13, 14, 14, 13, 14, 14, 14, 14, 14, 14], [False] * 10),
    ("up_1e5", 4): ([0, 16, 16, 17, 16], [False] * 4),
    ("up_1e5", 10): ([0, 16, 16, 17, 16, 17, 17, 16, 17, 17, 17], [False] * 10),
    ("up_large", 4): ([0, 69, 70, 71, 71], [False] * 4),
    ("up_large", 10): ([0, 69, 70, 71, 71, 70, 73, 72, 72, 70, 72], [False] * 10),
    ("down_deep", 4): ([0, 35, 35, 35, 36], [False] * 4),
    ("down_deep", 10): ([0, 35, 35, 35, 36, 35, 35, 36, 29, 35, 37], [False] * 4 + [True] * 6),
    ("down_mid", 4): ([0, 35, 35, 35, 36], [False] * 4),
    ("down_mid", 10): ([0, 35, 35, 35, 36, 35, 35, 36, 29, 35, 37], [False] * 10),
    ("down_high", 4): ([0, 44, 44, 45, 46], [False] * 4),
    ("down_high", 10): ([0, 44, 44, 45, 46, 44, 45, 46, 44, 45, 48], [False] * 10),
}


@pytest.mark.parametrize("name, order", list(CUTS))
def test_cut_points_are_pinned(name, order):
    from logifpt import fpt_moments

    d, prob = {s[0]: s[1:] for s in scenario_grid()}[name]
    ms = fpt_moments(d, prob, order)
    assert (ms.diagnostics["trunc_index"], list(ms.flagged)) == CUTS[name, order]


# ------------------------------------------------------------- series blocks

def test_q_series_trivials_and_leading_term(fisheries):
    d = fisheries
    qs = q_series(1.0, 6, d)
    assert qs[0] == 1
    assert all(c == 0 for c in qs[1:])
    y = 123.0
    qs = q_series(y, 6, d)
    with mp.workprec(d.precision):
        expect = -d.u * mpmath.log(mpf(y)) * mpf(1) / 2 * d.a
        assert abs(qs[1] - expect) <= mpf("1e-70") * abs(expect)


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
        scale = max(abs(c) for c in qs)
        for x, yv in zip(qs, via_exp.coeffs):
            assert abs(x - yv) <= mpf("1e-60") * scale


def test_l_series_basics(fisheries):
    d = fisheries
    y = 1e4
    ls = l_series(y, 3, d)
    assert sum_coeffs(ls)[0] == 1
    with mp.workprec(d.precision):
        vy = d.v * mpf(y)
        lead = d.a * (-d.u / (2 * (1 - 2 * d.u))) * vy
        # first coefficient is dominated by its n=1 term at small v*y
        assert abs(sum_coeffs(ls)[1] / lead - 1) < 0.01
    assert ls.cut[1] >= 1
    assert ls.omitted is None and all(e == 0 for e in sum_error_estimate(ls))


def test_l_series_invariant_under_doubled_truncation():
    d = fisheries_at(2.01e7)
    y = 3.91e7
    ls = l_series(y, 3, d)
    tab = kernels.ensure_table(d, 3)
    with mp.workprec(d.precision):
        vy = d.v * mpf(y)
        for k in range(1, 4):
            n2 = min(2 * ls.cut[k], kernels.N_MAX_DEFAULT)
            direct = sum(mpf_row(tab, "m", n)[k] * vy ** n / mpmath.factorial(n)
                         for n in range(1, n2 + 1))
            direct *= d.a ** k
            assert abs(direct - sum_coeffs(ls)[k]) <= mpf("1e-25") * abs(direct)


def test_l_series_no_convergence_beyond_table_bound():
    d = fisheries_at(2.01e7)
    with pytest.raises(NoConvergence):
        l_series(3e8, 2, d)  # v*y ~ 132: terms near n = 256 are not yet negligible


@pytest.mark.parametrize("y, first_open", [(2.775e8, 3), (2.75e8, 6)])
def test_l_series_names_the_smallest_open_order(y, first_open):
    # the lower orders converge before n = 256; the error names the first that does not
    d = fisheries_at(2.01e7)
    messages = []
    for _ in range(2):  # a failure is not kept: the repeat sums again and fails alike
        with pytest.raises(NoConvergence, match=f"l-series order {first_open} at") as err:
            l_series(y, 10, d)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    # the converged orders are kept, and do not serve the order that fails
    l_series(y, first_open - 1, d)
    with pytest.raises(NoConvergence, match=f"l-series order {first_open} at"):
        l_series(y, 10, d)


def test_t_series_is_product_of_blocks(fisheries):
    d = fisheries
    y = 512.0
    order = 5
    ts = t_series(y, order, d)
    ls = l_series(y, order, d)
    qs = q_series(y, order, d)
    with mp.workprec(d.precision):
        prod = series_product(sum_coeffs(ls), ExpSeries(qs))
        scale = max(abs(c) for c in ts)
        for x, yv in zip(ts, prod.coeffs):
            assert abs(x - yv) <= mpf("1e-60") * scale
    assert ts[0] == 1
    # y = 1 collapses the state factor: t_m = l_m, a^m times the l-sum int,
    # correctly rounded
    for sigma, precision, order in ((0.2, 256, 5), (0.05, 64, 20), (0.5, 256, 20)):
        d = derive_params(ModelParams(**{**FISHERIES, "sigma": sigma}), precision=precision)
        ls1 = l_series(1.0, order, d)
        a_man, a_exp = kernels._man_exp(d.a)
        assert t_series(1.0, order, d) == (1, *(
            kernels._to_mpf(a_man ** k * man, k * a_exp + exp, precision)
            for k, (man, exp) in enumerate(zip(ls1.mans[1:], ls1.exps[1:]), 1)))


@pytest.mark.parametrize("precision", [64, 256])
@pytest.mark.parametrize("y", [150.0, 1e4, 3.91e7, 6e7])
def test_q_and_t_series_match_an_800_bit_evaluation(precision, y):
    """At orders 1-20, every q_series coefficient is within 32 ulps of the
    mpf series evaluated at 800 bits from the same rounded u and a, and every
    t_series coefficient within 32 ulps of its largest one; their error is
    that of -u log y, rounded to the precision (at most 25 ulps measured on
    fisheries at 64 and 256 bits, y from 1 to 6e7)."""
    d = derive_params(ModelParams(**FISHERIES), precision=precision)
    wide = dataclasses.replace(d, precision=800)
    with mp.workprec(800):
        q_ref = reference_q_series(y, 20, wide)
        t_ref = series_product(q_ref, sum_coeffs(l_series(y, 20, wide))).coeffs
    for order in range(1, 21):
        q, t = q_series(y, order, d), t_series(y, order, d)
        assert len(q) == len(t) == order + 1
        with mp.workprec(800):
            t_ulp = mpf(2) ** (mpmath.mag(max(map(abs, t_ref[:order + 1]))) - precision)
            for k in range(order + 1):
                assert abs(q[k] - q_ref[k]) <= 32 * mpf(2) ** (mpmath.mag(q_ref[k]) - precision)
                assert abs(t[k] - t_ref[k]) <= 32 * t_ulp


def test_lbar_series_leading_term_and_estimates():
    d = fisheries_at(3.91e7)
    # far tail: v*y ~ 441 makes the n=1 term dominate the asymptotic sum
    y_far = 1e9
    bs_far = lbar_series(y_far, 1, d)
    with mp.workprec(d.precision):
        lead = d.a * d.u ** 2 / (d.v * mpf(y_far))
        assert abs(sum_coeffs(bs_far)[1] / lead - 1) < 0.05
    y = 3.91e7
    bs = lbar_series(y, 4, d)
    coeffs, estimates = sum_coeffs(bs), sum_error_estimate(bs)
    assert coeffs[0] == 1
    assert all(e > 0 for e in estimates[1:])
    # estimates are small relative to the coefficients at this v*y
    for k in range(1, 5):
        assert estimates[k] < mpf("1e-10") * abs(coeffs[k])


def test_lbar_estimates_are_formed_on_first_read(monkeypatch):
    """The endpoint sums downcrossing fpt_moments reads carry first omitted
    terms whose ``mpf`` conversion, the oracle's, is a^k times each term."""
    import logifpt.analytics as analytics
    from logifpt import Direction, FptProblem, fpt_moments

    d = fisheries_at(3.91e7)
    seen = []

    def block(*args):
        seen.append(lbar_series(*args))
        return seen[-1]

    monkeypatch.setattr(analytics, "lbar_series", block)
    fpt_moments(d, FptProblem(Direction.DOWN, 2.8e7), 10)
    assert len(seen) == 2
    bs = seen[0]
    estimates = sum_error_estimate(bs)
    with mp.workprec(d.precision):
        want = [mpf(0)] + [d.a ** k * abs(mpmath.ldexp(bs.omitted[k], bs.exps[k]))
                           for k in range(1, 11)]
    assert all(abs(e / w - 1) < mpf("1e-70") for e, w in zip(estimates[1:], want[1:]))
    assert estimates[0] == 0


def test_lbar_sums_do_not_read_the_callers_precision():
    """The table keeps the downcrossing sums under the exact v y alone, so
    _lbar_sums rounds 1 / (v y) at the table's precision, not at whatever
    precision its caller left."""
    d = fisheries_at(3.91e7)
    table = kernels.KernelTable(d, 10)
    with mp.workprec(d.precision):
        vy = d.v * mpf(2.8e7)
    sums = []
    for prec in (53, d.precision):
        with mp.workprec(prec):
            sums.append(kernels._lbar_sums(table, vy, 10))
    assert sums[0] == sums[1]


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


def test_optimal_truncation_ties_resolve_to_the_smaller_n():
    # envelopes max(|T_i|, |T_i+1|): 8, 4, 2, 2, 4, ...; the two minima tie
    terms = [8, -4, 2, -1, 2, -4, 8, -16, 32, -64]
    with mp.workprec(64):
        value, est, cut = asymptotic_sum(lambda n: mpf(terms[n - 1]), 1, len(terms))
    assert (value, est, cut) == (6, 1, 3)
    man, omitted, exp, best = kernels._fixed_asymptotic_sum(((t, 0) for t in terms), 16)
    assert (Fraction(man) * Fraction(2) ** exp, Fraction(omitted) * Fraction(2) ** exp,
            best) == (6, 1, 2)


def count_sums(monkeypatch) -> list:
    """A list that grows by one entry per endpoint sum computed (one
    (v y)^n / n! sequence each) rather than served from the kept sums."""
    calls = []
    real = kernels._powers_over_factorials

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "_powers_over_factorials", counting)
    return calls


def numbers(ms) -> tuple:
    """What a MomentSet reports: moments, cumulants, estimates, flags, cuts."""
    return (ms.moments, ms.cumulants.cumulants, ms.error_estimates, ms.flagged,
            ms.diagnostics["trunc_index"], ms.diagnostics["error_estimate"])


@pytest.mark.parametrize("x0, thresholds", [(100.0, (1e4, 2e4, 5e4)),
                                            (3.91e7, (2.8e7, 2.5e7, 2.01e7))],
                         ids=["up", "down"])
def test_a_threshold_scan_sums_its_starting_state_once(monkeypatch, x0, thresholds):
    from logifpt import Direction, FptProblem, fpt_moments
    from tests.oracles import bell_moments

    d = fisheries_at(x0)
    direction = Direction.UP if thresholds[0] > x0 else Direction.DOWN
    requests = [(FptProblem(direction, t), route)
                for route in (fpt_moments, bell_moments) for t in thresholds]
    fresh = []
    for prob, route in requests:
        monkeypatch.setattr(kernels, "_table", None)
        fresh.append(numbers(route(d, prob, 10)))
    monkeypatch.setattr(kernels, "_table", None)
    calls = count_sums(monkeypatch)
    scan = [numbers(route(d, prob, 10)) for prob, route in requests]
    # x0 once and each threshold once, over both routes
    assert len(calls) == 1 + len(thresholds)
    assert scan == fresh


def test_the_kept_sums_are_bounded(monkeypatch):
    from logifpt import Direction, FptProblem, fpt_moments

    d = fisheries_at(100.0)
    monkeypatch.setattr(kernels, "_table", None)
    calls = count_sums(monkeypatch)
    thresholds = [1e3 * (1 + i / 100) for i in range(kernels.ENDPOINT_SUMS_MAX + 8)]
    for t in thresholds:
        fpt_moments(d, FptProblem(Direction.UP, t), 1)
    kept = kernels.ensure_table(d, 1)._sums
    assert len(calls) == 1 + len(thresholds)
    assert len(kept) == kernels.ENDPOINT_SUMS_MAX
    # x0, read by every request, stays; the oldest thresholds went first
    with mp.workprec(d.precision):
        assert (kernels._l_sums, (d.v * 100)._mpf_) in kept
    fpt_moments(d, FptProblem(Direction.UP, thresholds[-1]), 1)
    assert len(calls) == 1 + len(thresholds)
    fpt_moments(d, FptProblem(Direction.UP, thresholds[0]), 1)
    assert len(calls) == 2 + len(thresholds)
    assert len(kept) == kernels.ENDPOINT_SUMS_MAX


@pytest.mark.parametrize("up", [True, False], ids=["up", "down"])
@pytest.mark.parametrize("scaled, new_sums", [
    ({"r": 4 * FISHERIES["r"], "sigma": 2 * FISHERIES["sigma"]}, 0),  # a / 4, u and v kept
    ({"K": 2 * FISHERIES["K"]}, 2),                                    # v / 2, u and a kept
], ids=["another_a", "another_v"])
def test_kept_sums_are_keyed_by_v_y_alone(monkeypatch, scaled, new_sums, up):
    from logifpt import Direction, FptProblem, fpt_moments

    base = {**FISHERIES, "E": 0.0}
    x0, prob = ((100.0, FptProblem(Direction.UP, 1e4)) if up
                else (3.91e7, FptProblem(Direction.DOWN, 2.8e7)))
    d1 = derive_params(ModelParams(**{**base, "x0": x0}))
    d2 = derive_params(ModelParams(**{**base, **scaled, "x0": x0}))
    assert d2.u == d1.u and (d2.v == d1.v) != (d2.a == d1.a)
    monkeypatch.setattr(kernels, "_table", None)
    fpt_moments(d1, prob, 10)
    calls = count_sums(monkeypatch)
    kept = fpt_moments(d2, prob, 10)
    assert len(calls) == new_sums
    monkeypatch.setattr(kernels, "_table", None)
    assert numbers(kept) == numbers(fpt_moments(d2, prob, 10))


def test_shared_table_serves_a_threshold_scan(monkeypatch):
    from logifpt import Direction, FptProblem, fpt_moments

    built = []
    init = KernelTable.__init__

    def counting_init(self, *args, **kw):
        built.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(KernelTable, "__init__", counting_init)
    monkeypatch.setattr(kernels, "_table", None)
    d1 = fisheries_at(100.0)
    a = fpt_moments(d1, FptProblem(Direction.UP, 1e4), 4)
    # both building-block series read the one table: x0 builds it, the threshold reuses it
    assert len(built) == 1 and kernels._table is built[0]
    d2 = fisheries_at(150.0)  # another x0, the same u
    b = fpt_moments(d2, FptProblem(Direction.UP, 2e4), 4)
    assert len(built) == 1
    assert a.moments != b.moments
    # another u replaces the table
    d3 = derive_params(ModelParams(**{**FISHERIES, "r": 0.7137}))
    fpt_moments(d3, FptProblem(Direction.UP, 1e4), 4)
    assert len(built) == 2 and kernels._table is built[1]


def test_shared_tables_are_keyed_by_u_and_precision(monkeypatch):
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
        monkeypatch.setattr(kernels, "_table", None)
        ten = kernels.ensure_table(d, 10)
        served = fpt_moments(d, prob, 4)
        assert kernels.ensure_table(d, 4) is ten
        monkeypatch.setattr(kernels, "_table", None)
        fresh = fpt_moments(d, prob, 4)
        assert kernels.ensure_table(d, 4).order == 4
        assert served.moments == fresh.moments
        assert served.error_estimates == fresh.error_estimates
        assert served.diagnostics["trunc_index"] == fresh.diagnostics["trunc_index"]
        # likewise the order-10 sums kept at both endpoints serve order 4 as
        # their prefix, summing nothing
        fpt_moments(d, prob, 10)
        calls = count_sums(monkeypatch)
        prefix = fpt_moments(d, prob, 4)
        assert not calls
        assert numbers(prefix) == numbers(fresh)

    # a higher order replaces the kept table, which then serves both
    d = fisheries_at(100.0)
    monkeypatch.setattr(kernels, "_table", None)
    four = kernels.ensure_table(d, 4)
    ten = kernels.ensure_table(d, 10)
    assert ten is not four and ten.order == 10
    assert kernels.ensure_table(d, 4) is ten
