import math
import warnings

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf
from scipy import integrate, special, stats

from logifpt import (Direction, FptProblem, MomentMethod, MomentSet,
                     build_approximant, fpt_moments, laguerre_coeffs,
                     laguerre_poly, match_gamma, select_order)
from logifpt.errors import (ExpansionConditionWarning, InsufficientMoments,
                            SingularOriginWarning, ZeroVariance)
from logifpt.series import rising_factorial
from tests.conftest import rel_err

UP4 = FptProblem(Direction.UP, 1e4)


def moment_set(values, precision=256, order=None):
    with mp.workprec(precision):
        vals = tuple(mpf(v) for v in values)
    return MomentSet(problem=UP4, order=order or len(vals), moments=vals,
                     method=MomentMethod.EMPIRICAL, precision=precision)


def gamma_moment_set(alpha, beta, order):
    """Exact raw moments of a Gamma law with shape alpha+1 and rate beta."""
    with mp.workprec(256):
        a1 = mpf(alpha) + 1
        b = mpf(beta)
        vals = tuple(rising_factorial(a1, j) / b ** j for j in range(1, order + 1))
    return moment_set(vals)


def from_mean_var(mean, var, order=2):
    return moment_set([mean, var + mean ** 2][:order])


def test_match_gamma_table_values():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = match_gamma(from_mean_var(13.35, 4.49))
    assert abs(g.alpha - 38.69) < 0.01
    assert abs(g.beta - 2.973) < 0.001


def test_match_gamma_exact_recovery():
    ms = gamma_moment_set(3.25, 1.7, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = match_gamma(ms)
    assert rel_err(g.alpha, 3.25) < 1e-12
    assert rel_err(g.beta, 1.7) < 1e-12


def test_match_gamma_warnings_and_errors():
    with pytest.warns(SingularOriginWarning):
        g = match_gamma(from_mean_var(0.28, 0.09))
    assert abs(g.alpha - (-0.129)) < 0.01
    with pytest.warns(ExpansionConditionWarning):
        match_gamma(from_mean_var(13.35, 4.49))
    with pytest.raises(ZeroVariance):
        match_gamma(moment_set([2.0, 4.0]))  # var exactly zero
    with pytest.raises(InsufficientMoments):
        match_gamma(moment_set([2.0]))


def test_laguerre_poly_values():
    assert laguerre_poly(0, 0.7, 3.0) == 1.0
    alpha, x = 1.3, 0.6
    assert laguerre_poly(1, alpha, x) == pytest.approx(alpha + 1 - x, rel=1e-14)
    assert laguerre_poly(3, 0.0, 1.0) == pytest.approx(-2.0 / 3.0, rel=1e-12)


def test_laguerre_poly_binomial_sum_oracle(rng):
    for _ in range(25):
        alpha = rng.uniform(-0.9, 5.0)
        x = rng.uniform(0.0, 30.0)
        for k in range(7):
            expect = sum(
                math.comb(k, j) * (-x) ** j
                * math.exp(special.gammaln(alpha + 1 + k) - special.gammaln(alpha + j + 1))
                / math.factorial(k)
                for j in range(k + 1))
            got = laguerre_poly(k, alpha, x)
            assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_laguerre_poly_vectorized():
    xs = np.linspace(0, 10, 7)
    vals = laguerre_poly(2, 0.5, xs)
    assert vals.shape == xs.shape
    assert vals[0] == pytest.approx(laguerre_poly(2, 0.5, 0.0))


def test_coeffs_b0_and_matched_vanishing(fisheries):
    ms = fpt_moments(fisheries, UP4, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = match_gamma(ms)
    coeffs = laguerre_coeffs(ms, g, 6)
    with mp.workprec(256):
        b0_expect = 1 / mpmath.gamma(g.alpha_mp + 1)
        assert abs(coeffs[0] / b0_expect - 1) < mpf("1e-40")
        assert abs(coeffs[1]) < mpf("1e-10") * coeffs[0]
        assert abs(coeffs[2]) < mpf("1e-10") * coeffs[0]
    with pytest.raises(InsufficientMoments):
        laguerre_coeffs(ms, g, 7)


def test_exact_gamma_coefficients_vanish():
    ms = gamma_moment_set(4.5, 0.8, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = match_gamma(ms)
        coeffs = laguerre_coeffs(ms, g, 6)
    with mp.workprec(256):
        for c in coeffs[1:]:
            assert abs(c) < mpf("1e-30") * coeffs[0]


def test_select_order_benchmark_scenarios(fisheries):
    # moderate dispersion: some order <= 8 qualifies at tol 1e-6
    ms = fpt_moments(fisheries, UP4, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = match_gamma(ms)
        coeffs = [float(c) for c in laguerre_coeffs(ms, g, 8)]
        n, converged = select_order(coeffs, g.alpha)
    assert converged and 3 <= n <= 8
    # extreme dispersion: never qualifies, n_max returned with the flag down
    from tests.conftest import fisheries_at

    d6 = fisheries_at(4.0e7)
    ms6 = fpt_moments(d6, FptProblem(Direction.UP, 6.0e7), 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms6, n_max=12)
    assert apx.order == 12 and not apx.converged


def test_select_order_gamma_input_returns_three():
    ms = gamma_moment_set(4.5, 0.8, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = match_gamma(ms)
        coeffs = [float(c) for c in laguerre_coeffs(ms, g, 8)]
        n, converged = select_order(coeffs, g.alpha)
    assert n == 3 and converged
    with pytest.raises(InsufficientMoments):
        laguerre_coeffs(ms, g, 9)


def test_gamma_only_truncation_is_gamma_pdf():
    ms = gamma_moment_set(4.5, 0.8, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms, n=0)
    ts = np.linspace(0.01, 25, 200)
    expect = stats.gamma.pdf(ts, a=5.5, scale=1 / 0.8)
    got = apx.density(ts)
    assert np.allclose(got, expect, rtol=1e-10)
    # median of the reference law through the cdf route
    med = stats.gamma.ppf(0.5, a=5.5, scale=1 / 0.8)
    assert apx.cdf(med) == pytest.approx(0.5, abs=2e-5)


def test_gamma_fixed_point_selected_order():
    ms = gamma_moment_set(2.0, 1.5, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms, n_max=8)
    ts = np.linspace(0.0, 20 / 1.5, 400)
    expect = stats.gamma.pdf(ts, a=3.0, scale=1 / 1.5)
    assert np.allclose(apx.density(ts), expect, rtol=1e-9, atol=1e-10)
    assert not apx.clip_applied


def test_density_normalization_and_moments(fisheries):
    ms = fpt_moments(fisheries, UP4, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms, n=4)
    total, _ = integrate.quad(lambda t: apx.density(t), 0, 80, limit=300)
    assert abs(total - 1) < 1e-6
    for j in range(1, 5):
        mj, _ = integrate.quad(lambda t: t ** j * apx.density(t, corrected=False),
                               0, 80, limit=300)
        assert rel_err(mj, float(ms.moments[j - 1])) < 1e-6
    assert apx.norm_residual < 1e-10


def test_correction_mass_negligible_below_unit_cv(fisheries):
    # moderate-dispersion scenarios need no visible correction
    ms = fpt_moments(fisheries, UP4, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms, n_max=8)
    assert apx.negative_mass < 1e-3
    assert abs(apx.renorm_factor - 1.0) < 1e-3


def test_cdf_endpoints(fisheries):
    ms = fpt_moments(fisheries, UP4, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms, n=4)
    assert apx.cdf(0.0) == 0.0
    assert apx.cdf(apx.t_cut * 2) == pytest.approx(1.0, abs=1e-6)
    ts = np.linspace(0, 40, 300)
    cdf = apx.cdf(ts)
    assert np.all(np.diff(cdf) >= -1e-12)


def test_singular_origin_scenario_diagnostics(fisheries):
    # threshold just above the start: cv > 1, matched shape negative
    prob = FptProblem(Direction.UP, 110.0)
    ms = fpt_moments(fisheries, prob, 8)
    with pytest.warns(SingularOriginWarning):
        apx = build_approximant(ms, n_max=8)
    assert apx.gamma.alpha < 0
    assert apx.negative_mass >= 0
    # the machinery reports trouble instead of silently degrading
    assert (not apx.converged) or apx.clip_applied or apx.negative_mass > 0
    if apx.clip_applied:
        ts = np.linspace(0.001, 5, 500)
        assert np.all(apx.density(ts) >= 0)
