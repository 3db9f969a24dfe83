import math

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from logifpt import (CumulantSet, Direction, FptProblem, MomentMethod,
                     cumulants_from_moments, derive_params, fpt_cumulants, fpt_moments,
                     gamma_consistency, mean_variance_closed_form)
from logifpt.errors import NonConvergent
from tests.conftest import FISHERIES, fisheries_at, rel_err, scenario_grid

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
    diag = gamma_consistency(cs)
    for b in diag.implied_beta:
        assert abs(b - 0.04) < 0.005
    assert diag.flatness < 0.01
    assert float(cs.cumulants[3]) > 1e6
    from logifpt import fd_moments
    fd = cumulants_from_moments(fd_moments(d, prob, 4))
    with mp.workprec(d.precision):
        assert abs(fd.cumulants[3] / cs.cumulants[3] - 1) < mpf("1e-6")


@pytest.mark.parametrize("name", ["up_1e4", "down_deep"])
def test_moments_agree_across_precisions(name):
    _, d, prob = next(s for s in scenario_grid() if s[0] == name)
    ms = fpt_moments(d, prob, 10)
    hi = fpt_moments(derive_params(d.params, precision=512), prob, 10)
    with mp.workprec(512):
        for got, want in zip(ms.moments, hi.moments):
            assert abs(got - want) <= mpf("1e-60") * abs(want)


def test_moment_set_invariants(fisheries):
    ms = fpt_moments(fisheries, UP4, 4)
    assert all(m > 0 for m in ms.moments)
    assert ms.moment(2) >= ms.moment(1) ** 2  # Cauchy-Schwarz
    assert ms.moments_float[0] == pytest.approx(13.3483, abs=1e-3)


def test_degenerate_problem_all_zero(fisheries):
    prob = FptProblem(Direction.UP, FISHERIES["x0"])
    for method in (MomentMethod.RECURSION, MomentMethod.BELL_CLOSED_FORM):
        ms = fpt_moments(fisheries, prob, 5, method=method)
        assert ms.degenerate and all(m == 0 for m in ms.moments)
    cs = fpt_cumulants(fisheries, prob, 4)
    assert cs.degenerate and all(c == 0 for c in cs.cumulants)
    assert mean_variance_closed_form(fisheries, prob) == (0, 0)


def test_degenerate_recursion_collapses_by_induction():
    # same series at numerator and threshold position: coefficients cancel
    d = fisheries_at(100.0)
    from logifpt.kernels import t_series
    from logifpt.series import series_ratio
    s, _ = t_series(100.0, 5, d)
    with mp.workprec(d.precision):
        g = series_ratio(s, s).coeffs
        assert g[0] == 1
        for c in g[1:]:
            assert abs(c) < mpf("1e-60")


def test_methods_agree(fisheries):
    for prob in (UP4, UP5):
        a = fpt_moments(fisheries, prob, 8, method=MomentMethod.RECURSION)
        b = fpt_moments(fisheries, prob, 8, method=MomentMethod.BELL_CLOSED_FORM)
        with mp.workprec(fisheries.precision):
            for x, y in zip(a.moments, b.moments):
                assert abs(x / y - 1) < mpf("1e-20")


def test_cumulant_duality(fisheries):
    ms = fpt_moments(fisheries, UP4, 4)
    via_moments = cumulants_from_moments(ms)
    direct = fpt_cumulants(fisheries, UP4, 4)
    with mp.workprec(fisheries.precision):
        for x, y in zip(via_moments.cumulants, direct.cumulants):
            assert abs(x / y - 1) < mpf("1e-10")


def test_cumulants_from_moments_low_orders(fisheries):
    ms = fpt_moments(fisheries, UP4, 2)
    cs = cumulants_from_moments(ms)
    with mp.workprec(fisheries.precision):
        assert cs.cumulants[0] == ms.moments[0]
        expect = ms.moments[1] - ms.moments[0] ** 2
        assert abs(cs.cumulants[1] - expect) < mpf("1e-60") * abs(expect)


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
    # a hard accuracy demand beyond the asymptotic floor raises
    with pytest.raises(NonConvergent):
        fpt_moments(d, prob, 4, max_rel_error=1e-30)


def test_gamma_consistency_exact_gamma():
    # cumulants of a Gamma law: c_k = (alpha+1) (k-1)! / beta^k
    alpha, beta = 3.5, 2.0
    cums = tuple(mpf(alpha + 1) * math.factorial(k - 1) / mpf(beta) ** k
                 for k in range(1, 5))
    cs = CumulantSet(problem=UP4, order=4, cumulants=cums, precision=256)
    diag = gamma_consistency(cs)
    assert diag.flatness < 1e-15
    for b in diag.implied_beta:
        assert abs(b - beta) < 1e-14


def test_gamma_consistency_fisheries(fisheries):
    cs = fpt_cumulants(fisheries, UP4, 4)
    diag = gamma_consistency(cs)
    for got, want in zip(diag.implied_beta, (2.98, 1.98, 1.79)):
        assert abs(got - want) <= 0.01
    assert diag.flatness > 0.1  # visibly non-Gamma tail structure


def test_gamma_consistency_needs_order_4(fisheries):
    cs = fpt_cumulants(fisheries, UP4, 3)
    with pytest.raises(ValueError):
        gamma_consistency(cs)


@given(st.floats(min_value=0.3, max_value=2.0),       # growth rate
       st.floats(min_value=2.0, max_value=24.0),      # persistence index
       st.floats(min_value=1e2, max_value=1e8),       # carrying capacity
       st.floats(min_value=0.01, max_value=0.5),      # x0 as a fraction of K
       st.floats(min_value=1.3, max_value=4.0))       # threshold / x0
@settings(max_examples=10, deadline=None)
def test_random_upcrossing_against_oracle(r, rho, K, x0_frac, mult):
    from logifpt import ModelParams, derive_params, fd_moments

    sigma = math.sqrt(2 * r / (rho + 1))
    x0 = x0_frac * K
    threshold = min(mult * x0, 0.95 * K)
    if threshold <= x0:
        return
    d = derive_params(ModelParams(r=r, K=K, q=0.0, E=0.0, sigma=sigma, x0=x0))
    prob = FptProblem(Direction.UP, threshold)
    a = fpt_moments(d, prob, 4, method=MomentMethod.RECURSION)
    b = fpt_moments(d, prob, 4, method=MomentMethod.BELL_CLOSED_FORM)
    assert all(m > 0 for m in a.moments)
    with mp.workprec(d.precision):
        assert a.moment(2) >= a.moment(1) ** 2
        for x, y in zip(a.moments, b.moments):
            assert abs(x / y - 1) < mpf("1e-20")
        fd = fd_moments(d, prob, 2)
        for x, y in zip(fd.moments, a.moments):
            assert abs(x / y - 1) < mpf("1e-6")


def fisheries_like(r, sigma, up, at_x0, at_threshold):
    """(derived, problem) at a fisheries-like point; rho > 0 throughout."""
    from logifpt import ModelParams

    if up:
        x0 = 10 ** (2 + 2 * at_x0)                      # 1e2 .. 1e4
        threshold = x0 * 10 ** (0.5 + 2 * at_threshold)
        direction = Direction.UP
    else:
        x0 = 3.9e7 + 2.1e7 * at_x0                      # 3.9e7 .. 6e7
        threshold = x0 * (0.5 + 0.25 * at_threshold)
        direction = Direction.DOWN
    d = derive_params(ModelParams(**{**FISHERIES, "r": r, "sigma": sigma, "x0": x0}))
    return d, FptProblem(direction, threshold)


GROWTH = st.floats(min_value=0.5, max_value=1.0)        # growth rate r
SIGMA = st.floats(min_value=0.15, max_value=0.3)
WHERE = st.floats(min_value=0.0, max_value=1.0)         # where in its range


@given(GROWTH, SIGMA, st.booleans(), WHERE, WHERE)      # upcrossing?, x0, threshold
@settings(max_examples=12, deadline=None)
def test_shared_tables_match_fresh_and_bell(r, sigma, up, at_x0, at_threshold):
    """Fisheries-like points (rho > 0 throughout): moments from the shared
    table cache equal those from a fresh table exactly, and the recursion
    agrees with the Bell closed form to working precision."""
    from collections import OrderedDict
    from unittest import mock

    from logifpt import kernels

    d, prob = fisheries_like(r, sigma, up, at_x0, at_threshold)
    fpt_moments(d, prob, 6)
    shared = fpt_moments(d, prob, 6)
    with mock.patch.object(kernels, "_tables", OrderedDict()):
        fresh = fpt_moments(d, prob, 6)  # from an empty cache: a fresh table
    assert shared.moments == fresh.moments
    assert shared.error_estimates == fresh.error_estimates
    assert shared.diagnostics.trunc_index == fresh.diagnostics.trunc_index
    bell = fpt_moments(d, prob, 6, method=MomentMethod.BELL_CLOSED_FORM)
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
