import dataclasses
import math
import sys

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp, mpf

from logifpt import (Direction, FptProblem, ModelParams, cumulants_from_moments, derive_params,
                     fpt_cumulants, fpt_moments)
from logifpt.analytics import FLAG_RTOL
from logifpt.errors import InvalidParams, LogifptError
from logifpt.kernels import lbar_series
from tests.conftest import (FISHERIES, drift_at, fisheries_at, fisheries_like, rel_err,
                            scenario_grid)
from tests.oracles import (ExpSeries, bell_moments, cauchy_moments, gamma_consistency,
                           mean_variance_closed_form, reference_error_bound, series_ratio,
                           sum_coeffs)

UP4 = FptProblem(Direction.UP, 1e4)
UP5 = FptProblem(Direction.UP, 1e5)


def test_table_row_up_1e4(fisheries):
    cs = fpt_cumulants(fisheries, UP4, 4)
    c = cs.cumulants_float
    assert abs(c[0] - 13.35) <= 0.01
    assert abs(c[1] - 4.49) <= 0.01
    assert abs(c[3] - 7.60) <= 0.01
    r = [float(x) for x in cs.ratios]
    for got, want in zip(r, (2.98, 1.98, 1.79)):
        assert abs(got - want) <= 0.01


def test_table_row_up_1e5(fisheries):
    cs = fpt_cumulants(fisheries, UP5, 4)
    c = cs.cumulants_float
    assert abs(c[0] - 20.03) <= 0.01
    assert abs(c[1] - 6.73) <= 0.01
    assert abs(c[3] - 11.42) <= 0.01


@pytest.mark.parametrize("threshold,mean,var,k4", [
    (150.0, 1.18, 0.39, 0.67),
    (110.0, 0.28, 0.09, 0.16),
])
def test_table_rows_small_thresholds(fisheries, threshold, mean, var, k4):
    cs = fpt_cumulants(fisheries, FptProblem(Direction.UP, threshold), 4)
    c = cs.cumulants_float
    assert abs(c[0] - mean) <= 0.01
    assert abs(c[1] - var) <= 0.01
    assert abs(c[3] - k4) <= 0.01
    for got, want in zip(cs.ratios, (2.98, 1.98, 1.79)):
        assert abs(float(got) - want) <= 0.01


def test_flat_ratios_high_dispersion_scenario():
    # extreme-dispersion benchmark: all three ratios print as 0.04 and the
    # fourth cumulant is cross-checked against the transform-derivative oracle
    d = fisheries_at(4.0e7)
    prob = FptProblem(Direction.UP, 6.0e7)
    cs = fpt_cumulants(d, prob, 4)
    diag = gamma_consistency(cs.cumulants)
    for b in diag.implied_beta:
        assert abs(b - 0.04) < 0.005
    assert diag.flatness < 0.01
    assert float(cs.cumulants[3]) > 1e6
    oracle = cumulants_from_moments(cauchy_moments(d, prob, 4))
    with mp.workprec(d.precision):
        assert abs(oracle[3] / cs.cumulants[3] - 1) < mpf("1e-6")


@pytest.mark.parametrize("name", ["up_1e4", "down_deep"])
def test_moments_agree_across_precisions(name):
    _, d, prob = next(s for s in scenario_grid() if s[0] == name)
    ms = fpt_moments(d, prob, 10)
    hi = fpt_moments(derive_params(d.params, precision=512), prob, 10)
    with mp.workprec(512):
        for got, want in zip(ms.moments, hi.moments):
            assert abs(got - want) <= mpf("1e-60") * abs(want)


# the seven upcrossing scenarios of the benchmark: (x0, threshold)
BENCH_UP = {"up_150": (100.0, 150.0), "up_1e4": (100.0, 1e4), "up_1e5": (100.0, 1e5),
            "up_110": (100.0, 110.0), "up_large": (2.01e7, 3.91e7),
            "up_mid": (2.01e7, 2.51e7), "up_high": (4.0e7, 6e7)}


@pytest.mark.parametrize("name", list(BENCH_UP))
def test_upcrossing_moments_match_700_bits(name):
    """q(x0)/q(U) enters as the one series q(x0/U), so the two q-series do not
    cancel: at order 10 both routes keep 256-bit moments within 1e-72 of a
    700-bit evaluation (with q(x0) and q(U) apart, up to 3.8e-61)."""
    x0, threshold = BENCH_UP[name]
    d = fisheries_at(x0)
    prob = FptProblem(Direction.UP, threshold)
    hi = fpt_moments(derive_params(d.params, precision=700), prob, 10)
    for route in (fpt_moments, bell_moments):
        ms = route(d, prob, 10)
        with mp.workprec(700):
            for got, want in zip(ms.moments, hi.moments):
                assert abs(got - want) <= mpf("1e-72") * abs(want), route.__name__


def test_l_series_cut_sets_the_upcrossing_accuracy(monkeypatch):
    """The 700-bit match above holds the truncation rule fixed, so it measures
    rounding only.  What limits upcrossing moments is the cut at L_SERIES_TOL:
    on up_large, cutting the l-sums at 1e-70 moves orders 1-10 by up to 8.5e-33
    (relative).  L_SERIES_TOL = 1e-27, or a cut after three stagnant terms
    instead of five, fails here."""
    from logifpt import kernels

    x0, threshold = BENCH_UP["up_large"]
    d = fisheries_at(x0)
    prob = FptProblem(Direction.UP, threshold)
    monkeypatch.setattr(kernels, "_table", None)
    default = fpt_moments(d, prob, 10)
    tol_man, tol_exp = kernels._man_exp(mpf("1e-70"))
    monkeypatch.setattr(kernels, "_TOL_MAN", tol_man)
    monkeypatch.setattr(kernels, "_TOL_EXP", tol_exp)
    monkeypatch.setattr(kernels, "_table", None)
    tight = fpt_moments(d, prob, 10)
    assert max(tight.diagnostics["trunc_index"]) > max(default.diagnostics["trunc_index"])
    with mp.workprec(d.precision):
        for got, want in zip(default.moments, tight.moments):
            assert abs(got - want) <= mpf("1e-31") * abs(want)


# (u, x0, U) at the drift corners of the kernel-row tests.  The inputs to the
# quotient span 2^238 at u = -1e4 (a = 2e-8) and 2^153 at u = -0.01 (a = 2e4)
@pytest.mark.parametrize("u_value, x0, threshold", [(-1e4, 1.0, 5.0), (-0.01, 10.0, 500.0)],
                         ids=["large_u", "small_u"])
def test_upcrossing_moments_at_the_drift_corners_match_700_bits(u_value, x0, threshold):
    d = drift_at(u_value, x0=x0)
    prob = FptProblem(Direction.UP, threshold)
    hi = fpt_moments(derive_params(d.params, precision=700), prob, 10)
    for route in (fpt_moments, bell_moments):
        ms = route(d, prob, 10)
        with mp.workprec(700):
            for got, want in zip(ms.moments, hi.moments):
                assert abs(got - want) <= mpf("1e-70") * abs(want), route.__name__


def test_cumulants_at_small_sigma_match_700_bits():
    """At sigma 1e-3 the crossing time is nearly deterministic: c_10 is 1e-61
    against a mean of 0.76.  The cumulants come from the log of the transform
    series in the quotient's fixed point and stay within 1e-60 of a 700-bit
    evaluation; the logs of the endpoint series rounded to mpf give 1.8e-52.
    Converting the moments instead loses the digits the moments cancel: more
    than 5e-16 off, one double missed, so it cannot stand in for the series
    route."""
    params = ModelParams(**{**FISHERIES, "sigma": 1e-3, "r": 6.367, "x0": 761.38})
    prob = FptProblem(Direction.UP, 76138.36)
    ms = fpt_moments(derive_params(params), prob, 10)
    want = fpt_moments(derive_params(params, precision=700), prob, 10).cumulants
    via_moments = cumulants_from_moments(ms)
    with mp.workprec(700):
        assert max(abs(c / w - 1) for c, w in zip(ms.cumulants, want)) < mpf("1e-60")
        assert max(abs(c / w - 1) for c, w in zip(via_moments, want)) > mpf("5e-16")
    assert ms.cumulants_float == tuple(float(w) for w in want)
    assert sum(float(c) != float(w) for c, w in zip(via_moments, want)) == 1


def count_calls(monkeypatch, names):
    """Wrap every logifpt module's and the oracles' binding of each name in a
    call counter."""
    calls = dict.fromkeys(names, 0)
    for module in list(sys.modules.values()):
        modname = getattr(module, "__name__", "")
        if not (modname.startswith("logifpt.") or modname == "tests.oracles"):
            continue
        for name in names:
            original = vars(module).get(name)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_the_recursion_route_leaves_the_mpf_guard_alone(monkeypatch, fisheries):
    """One upcrossing likelihood evaluation runs its quotient in ints and calls
    none of the mpf series algebra, nor q_series, nor do downcrossing moments
    with their error bound; the Bell route still goes through the mpf
    algebra and its own mpf q-series."""
    from logifpt import SimConfig, log_likelihood, sample_fpt
    from logifpt.inference import MleConfig

    sample = sample_fpt(fisheries, SimConfig(problem=UP4, paths=50, dt=1e-2,
                                             horizon=60.0, seed=3))
    fixed = {k: FISHERIES[k] for k in ("x0", "K", "q", "E")}
    cfg = MleConfig(estimate=("sigma", "r"), fixed={**fixed, "U": 1e4},
                    init={"sigma": 0.2, "r": 0.71})
    names = ("series_product", "series_ratio", "q_series", "reference_q_series",
             "reference_error_bound")
    calls = count_calls(monkeypatch, names)
    assert log_likelihood({"sigma": 0.21, "r": 0.7}, sample, cfg) > -1e300
    _, d, prob = next(s for s in scenario_grid() if s[0] == "down_mid")
    assert any(fpt_moments(d, prob, 10).error_estimates)
    assert calls == dict.fromkeys(names, 0)
    bell_moments(fisheries, UP4, 10)
    assert calls["series_product"] > 0 and calls["reference_q_series"] > 0
    assert calls["q_series"] == 0
    # going down, the Bell route bounds its error by the mpf recursion
    bell_moments(d, prob, 10)
    assert calls["reference_error_bound"] == 1


@pytest.mark.parametrize("name", ["up_1e4", "up_large", "down_mid"])
def test_endpoints_are_the_block_series_once_read(monkeypatch, name):
    """The quotient reads its endpoint sums as ints: those of l_series
    (lbar_series going down) at x0 and at the threshold, bit for bit."""
    import logifpt.analytics as analytics
    from logifpt.kernels import SumSeries, l_series, lbar_series

    seen, fixed_quotient = [], analytics._fixed_quotient

    def quotient(num, den, q_log=None):
        seen.append((num, den))
        return fixed_quotient(num, den, q_log)

    monkeypatch.setattr(analytics, "_fixed_quotient", quotient)
    _, d, prob = next(s for s in scenario_grid() if s[0] == name)
    ms = fpt_moments(d, prob, 10)
    [(b0, b1)] = seen
    block = l_series if prob.direction is Direction.UP else lbar_series
    assert isinstance(b0, SumSeries) and isinstance(b1, SumSeries)
    assert b0.d is d and b1.d is d
    for got, y in ((b0, d.params.x0), (b1, prob.threshold)):
        want = block(y, 10, d)
        assert got.order == 10 and len(got.mans) == 11
        assert (got.mans, got.exps, got.cut, got.omitted) == (
            want.mans, want.exps, want.cut, want.omitted)
    assert len(ms.series_cumulants) == 10


@pytest.mark.parametrize("name", ["down_deep", "down_mid", "down_high"])
def test_error_bound_matches_the_recursion(name):
    _, d, prob = next(s for s in scenario_grid() if s[0] == name)
    ms = fpt_moments(d, prob, 10)
    b0, b1 = (sum_coeffs(lbar_series(y, 10, d)) for y in (d.params.x0, prob.threshold))
    e = ms.diagnostics["error_estimate"]
    with mp.workprec(d.precision):
        g = series_ratio(b0, b1).coeffs
        want = reference_error_bound(b1, e, g, 10)
        for k in range(1, 11):
            assert abs(ms.error_estimates[k - 1] * abs(ms.moments[k - 1]) - want[k]) \
                <= mpf("1e-70") * want[k]
            assert ms.flagged[k - 1] == (want[k] / abs(ms.moments[k - 1]) > FLAG_RTOL)


@pytest.mark.parametrize("name", ["down_deep", "down_mid", "down_high"])
def test_error_estimates_are_the_summed_omitted_terms(name):
    """Estimate k of a downcrossing set is a^k times the sum of the two
    endpoints' first omitted terms, om0_k 2^exp0_k + om1_k 2^exp1_k, rounded
    once: within 1e-60 of that sum at 1000 bits."""
    _, d, prob = next(s for s in scenario_grid() if s[0] == name)
    ms = fpt_moments(d, prob, 10)
    ends = [lbar_series(y, 10, d) for y in (d.params.x0, prob.threshold)]
    with mp.workprec(1000):
        for k in range(1, 11):
            want = d.a ** k * sum(mpf(b.omitted[k]) * mpf(2) ** b.exps[k] for b in ends)
            assert abs(ms.diagnostics["error_estimate"][k] / want - 1) < mpf("1e-60")


def test_moment_set_invariants(fisheries):
    ms = fpt_moments(fisheries, UP4, 4)
    assert all(m > 0 for m in ms.moments)
    assert ms.moments[1] >= ms.moments[0] ** 2  # Cauchy-Schwarz
    assert ms.moments_float[0] == pytest.approx(13.3483, abs=1e-3)


def test_degenerate_problem_all_zero(fisheries):
    prob = FptProblem(Direction.UP, FISHERIES["x0"])
    for route in (fpt_moments, bell_moments):
        ms = route(fisheries, prob, 5)
        assert ms.degenerate and all(m == 0 for m in ms.moments)
    cs = fpt_cumulants(fisheries, prob, 4)
    assert cs.degenerate and all(c == 0 for c in cs.cumulants)
    assert mean_variance_closed_form(fisheries, prob) == (0, 0)


@pytest.mark.parametrize("order", [0, 257])
@pytest.mark.parametrize("direction, x0, threshold", [("up", 100.0, 1e4),
                                                      ("down", 6e7, 3.91e7)])
def test_orders_outside_the_kernel_table_are_refused(monkeypatch, order, direction, x0,
                                                     threshold):
    import logifpt.kernels as kernels

    def not_reached(*args, **kwargs):
        raise AssertionError("a kernel table was built for an order it cannot serve")

    monkeypatch.setattr(kernels, "ensure_table", not_reached)
    d = fisheries_at(x0)
    with pytest.raises(InvalidParams, match=f"1..{kernels.N_MAX_DEFAULT}.*got {order}"):
        fpt_moments(d, FptProblem(Direction(direction), threshold), order)


def test_degenerate_recursion_collapses_by_induction():
    # same series at numerator and threshold position: coefficients cancel
    d = fisheries_at(100.0)
    from logifpt.kernels import t_series
    s = ExpSeries(t_series(100.0, 5, d))
    with mp.workprec(d.precision):
        g = series_ratio(s, s).coeffs
        assert g[0] == 1
        for c in g[1:]:
            assert abs(c) < mpf("1e-60")


def test_methods_agree(fisheries):
    for prob in (UP4, UP5):
        a = fpt_moments(fisheries, prob, 8)
        b = bell_moments(fisheries, prob, 8)
        with mp.workprec(fisheries.precision):
            for x, y in zip(a.moments, b.moments):
                assert abs(x / y - 1) < mpf("1e-20")


def test_cumulant_duality(fisheries):
    ms = fpt_moments(fisheries, UP4, 4)
    via_moments = cumulants_from_moments(ms)
    direct = fpt_cumulants(fisheries, UP4, 4)
    with mp.workprec(fisheries.precision):
        for x, y in zip(via_moments, direct.cumulants):
            assert abs(x / y - 1) < mpf("1e-10")


def test_moment_set_cumulants(fisheries):
    """fpt_moments keeps its series cumulants out of == and repr, as exact
    (int, exponent) pairs; its cumulants are those pairs rounded once to the
    precision on first read, are those of fpt_cumulants, and a set without
    series cumulants converts its moments."""
    ms = fpt_moments(fisheries, UP4, 4)
    assert "cumulants" not in vars(ms)
    assert all(type(man) is int and type(exp) is int for man, exp in ms.series_cumulants)
    with mp.workprec(ms.precision):
        rounded = tuple(mpmath.ldexp(mpf(man), exp) for man, exp in ms.series_cumulants)
    assert ms.cumulants is ms.cumulants
    assert ms.cumulants == fpt_cumulants(fisheries, UP4, 4).cumulants
    assert ms.cumulants == rounded
    assert "series_cumulants" not in repr(ms)
    bare = dataclasses.replace(ms, series_cumulants=None)
    assert bare == ms
    assert bare.cumulants == cumulants_from_moments(ms)


def test_cumulants_from_moments_low_orders(fisheries):
    ms = fpt_moments(fisheries, UP4, 2)
    cs = cumulants_from_moments(ms)
    with mp.workprec(fisheries.precision):
        assert cs[0] == ms.moments[0]
        expect = ms.moments[1] - ms.moments[0] ** 2
        assert abs(cs[1] - expect) < mpf("1e-60") * abs(expect)


def test_closed_form_mean_variance(fisheries):
    mean, var = mean_variance_closed_form(fisheries, UP4)
    cs = fpt_cumulants(fisheries, UP4, 2)
    with mp.workprec(fisheries.precision):
        assert abs(mean / cs.cumulants[0] - 1) < mpf("1e-10")
        assert abs(var / cs.cumulants[1] - 1) < mpf("1e-10")
    assert rel_err(mean, 13.35) < 1e-3
    assert rel_err(var, 4.49) < 1e-3


def test_closed_form_mean_variance_down():
    d = fisheries_at(6.0e7)
    prob = FptProblem(Direction.DOWN, 3.91e7)
    mean, var = mean_variance_closed_form(d, prob)
    cs = fpt_cumulants(d, prob, 2)
    with mp.workprec(d.precision):
        assert abs(mean / cs.cumulants[0] - 1) < mpf("1e-10")
        assert abs(var / cs.cumulants[1] - 1) < mpf("1e-10")


def test_monotone_in_threshold(fisheries):
    means = []
    for s in (150.0, 1e3, 1e4, 1e5):
        means.append(float(fpt_moments(fisheries, FptProblem(Direction.UP, s), 1).mean))
    assert means == sorted(means)
    assert all(m > 0 for m in means)


def test_down_error_estimates_flagging():
    d = fisheries_at(3.91e7)
    prob = FptProblem(Direction.DOWN, 2.01e7)
    ms = fpt_moments(d, prob, 4)
    assert ms.error_estimates is not None
    assert all(e >= 0 for e in ms.error_estimates)
    assert not any(ms.flagged)


def test_gamma_consistency_exact_gamma():
    # cumulants of a Gamma law: c_k = (alpha+1) (k-1)! / beta^k
    alpha, beta = 3.5, 2.0
    cums = tuple(mpf(alpha + 1) * math.factorial(k - 1) / mpf(beta) ** k
                 for k in range(1, 5))
    diag = gamma_consistency(cums)
    assert diag.flatness < 1e-15
    for b in diag.implied_beta:
        assert abs(b - beta) < 1e-14


def test_gamma_consistency_fisheries(fisheries):
    cs = fpt_cumulants(fisheries, UP4, 4)
    diag = gamma_consistency(cs.cumulants)
    for got, want in zip(diag.implied_beta, (2.98, 1.98, 1.79)):
        assert abs(got - want) <= 0.01
    assert diag.flatness > 0.1  # visibly non-Gamma tail structure


def test_gamma_consistency_needs_order_4(fisheries):
    cs = fpt_cumulants(fisheries, UP4, 3)
    with pytest.raises(ValueError):
        gamma_consistency(cs.cumulants)


@given(st.floats(min_value=0.3, max_value=2.0),       # growth rate
       st.floats(min_value=2.0, max_value=24.0),      # persistence index
       st.floats(min_value=1e2, max_value=1e8),       # carrying capacity
       st.floats(min_value=0.01, max_value=0.5),      # x0 as a fraction of K
       st.floats(min_value=1.3, max_value=4.0))       # threshold / x0
@settings(max_examples=10, deadline=None)
def test_random_upcrossing_against_oracle(r, rho, K, x0_frac, mult):
    from logifpt import ModelParams, derive_params

    sigma = math.sqrt(2 * r / (rho + 1))
    x0 = x0_frac * K
    threshold = min(mult * x0, 0.95 * K)
    if threshold <= x0:
        return
    d = derive_params(ModelParams(r=r, K=K, q=0.0, E=0.0, sigma=sigma, x0=x0))
    prob = FptProblem(Direction.UP, threshold)
    a = fpt_moments(d, prob, 4)
    b = bell_moments(d, prob, 4)
    assert all(m > 0 for m in a.moments)
    with mp.workprec(d.precision):
        assert a.moments[1] >= a.moments[0] ** 2
        for x, y in zip(a.moments, b.moments):
            assert abs(x / y - 1) < mpf("1e-20")
        oracle = cauchy_moments(d, prob, 2)
        for x, y in zip(oracle.moments, a.moments):
            assert abs(x / y - 1) < mpf("1e-6")


GROWTH = st.floats(min_value=0.5, max_value=1.0)        # growth rate r
SIGMA = st.floats(min_value=0.15, max_value=0.3)
WHERE = st.floats(min_value=0.0, max_value=1.0)         # where in its range


@given(GROWTH, SIGMA, st.booleans(), WHERE, WHERE)      # upcrossing?, x0, threshold
@example(r=0.75, sigma=0.2, up=False, at_x0=1.0, at_threshold=1.0)  # six unflagged down moments
@settings(max_examples=12, deadline=None)
def test_shared_tables_match_fresh_and_bell(r, sigma, up, at_x0, at_threshold):
    """Fisheries-like points (rho > 0 throughout): moments from the shared
    kernel table, the repeated call served from its kept endpoint sums, equal
    those from a fresh table exactly, and the recursion agrees with the Bell
    closed form to working precision."""
    from unittest import mock

    from logifpt import kernels

    d, prob = fisheries_like(r, sigma, up, at_x0, at_threshold)
    fpt_moments(d, prob, 6)
    with mock.patch.object(kernels, "_powers_over_factorials") as summed:
        shared = fpt_moments(d, prob, 6)  # both endpoints from the kept sums
    assert not summed.called
    with mock.patch.object(kernels, "_table", None):
        fresh = fpt_moments(d, prob, 6)  # from an empty slot: a fresh table
    assert shared.moments == fresh.moments
    assert shared.cumulants == fresh.cumulants
    assert shared.error_estimates == fresh.error_estimates
    assert shared.flagged == fresh.flagged
    assert shared.diagnostics["trunc_index"] == fresh.diagnostics["trunc_index"]
    bell = bell_moments(d, prob, 6)
    assert d.precision == 256
    with mp.workprec(d.precision):
        for x, y in zip(shared.moments, bell.moments):
            assert abs(x / y - 1) < mpf("1e-60")


@given(GROWTH, SIGMA, st.booleans(), WHERE, WHERE)
@example(r=1.0, sigma=0.25, up=False, at_x0=0.0, at_threshold=0.0)
@settings(max_examples=12, deadline=None)
def test_moments_are_positive_or_flagged(r, sigma, up, at_x0, at_threshold):
    """Upcrossing moments are convergent sums and always positive.  The
    downcrossing sums are asymptotic in 1/(v y); where v y is too small for
    them (the explicit example: a mean of -3.35 with a relative error
    estimate of 3) the moments are flagged, and every unflagged one is
    positive."""
    d, prob = fisheries_like(r, sigma, up, at_x0, at_threshold)
    ms = fpt_moments(d, prob, 6)
    assert all(m > 0 or flagged for m, flagged in zip(ms.moments, ms.flagged))
    assert not (up and any(ms.flagged))


@given(GROWTH, SIGMA, WHERE, WHERE, WHERE)
@settings(max_examples=12, deadline=None)
def test_upcrossing_mean_rises_with_threshold(r, sigma, at_x0, at_low, at_high):
    at_low, at_high = sorted((at_low, at_high))
    d, low = fisheries_like(r, sigma, True, at_x0, at_low)
    _, high = fisheries_like(r, sigma, True, at_x0, at_high)
    lower, upper = (fpt_moments(d, prob, 1).mean for prob in (low, high))
    assert upper > lower if high.threshold > low.threshold else upper == lower


@given(st.floats(min_value=0.4, max_value=2.0),        # growth rate r
       st.floats(min_value=0.05, max_value=0.5),       # sigma
       st.booleans(), WHERE, WHERE,                    # upcrossing?, x0, threshold
       st.integers(min_value=1, max_value=10))         # order
@settings(max_examples=12, deadline=None)
def test_moments_layer_is_finite_or_raises_typed(r, sigma, up, at_x0, at_threshold, order):
    """On fisheries-like problems (rho > 0), fpt_moments either raises a
    LogifptError or returns finite moments, error estimates and cumulants."""
    assume(sigma ** 2 < 2 * (r - FISHERIES["q"] * FISHERIES["E"]))  # rho > 0
    d, prob = fisheries_like(r, sigma, up, at_x0, at_threshold)
    try:
        ms = fpt_moments(d, prob, order)
    except LogifptError:
        return
    values = (*ms.moments, *ms.error_estimates, *ms.cumulants)
    assert len(values) == 3 * order
    assert all(mpmath.isfinite(v) for v in values)
