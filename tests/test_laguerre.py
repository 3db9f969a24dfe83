import functools
import math
import warnings
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp, mpf
from scipy import integrate, optimize, special, stats

from logifpt import (Direction, FptProblem, GammaRef, LaguerreApproximant, ModelParams,
                     MomentSet, build_approximant, derive_params, fpt_moments,
                     laguerre_coeffs, match_gamma, select_order)
from logifpt.errors import (ExpansionConditionWarning, InsufficientMoments, InvalidParams,
                            LogifptError, SingularOriginWarning, UnreliableMoments,
                            ZeroVariance)
from tests.conftest import FISHERIES, fisheries_at, fisheries_like, rel_err
from tests.oracles import bell_moments, laguerre_poly, raw_density, rising_factorial

UP4 = FptProblem(Direction.UP, 1e4)


def moment_set(values, precision=256):
    with mp.workprec(precision):
        vals = tuple(mpf(v) for v in values)
    return MomentSet(moments=vals, precision=precision)


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


@pytest.mark.parametrize("first, second, flags, error", [
    pytest.param(2.0, 4.0, (False, False, True), ZeroVariance, id="4.0-flags0-ZeroVariance"),
    pytest.param(2.0, 4.0, (False, True, False), UnreliableMoments,
                 id="4.0-flags1-UnreliableMoments"),
    pytest.param(2.0, 3.0, (True, False, False), UnreliableMoments,
                 id="3.0-flags2-UnreliableMoments"),
    pytest.param(2.0, 5.0, (True, True, True), None, id="5.0-flags3-None"),
    # a mean not > 0 with a variance > 0
    pytest.param(-1.0, 3.0, (False, False, False), InvalidParams, id="mean-1.0-unflagged"),
    pytest.param(-1.0, 3.0, (True, False, False), UnreliableMoments, id="mean-1.0-flagged"),
    pytest.param(0.0, 3.0, (False, False, True), InvalidParams, id="mean0-flagged-above-2"),
    pytest.param(0.0, 3.0, (False, True, False), UnreliableMoments, id="mean0-flagged"),
])
def test_a_flagged_zero_variance_is_unreliable(first, second, flags, error):
    """A variance or a mean not > 0 from a set that flags its mean or second
    moment is a numerical failure (exit 3); flags above order 2 leave it an
    input error (exit 1), and a positive variance and mean are matched
    whatever the flags.  The variance is checked first."""
    ms = replace(moment_set([first, second, 9.0]),
                 error_estimates=tuple(mpf(f) for f in flags))
    assert ms.flagged == flags
    if error is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert match_gamma(ms).beta == pytest.approx(2.0)
        return
    with pytest.raises(error) as err:
        match_gamma(ms)
    assert err.value.exit_code == (3 if error is UnreliableMoments else 1)
    assert ("mean" if second > first ** 2 else "variance") in str(err.value)


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
    assert coeffs[0] == 1
    with mp.workprec(256):
        # the paper's B_k = sum_j C(k, j) (-beta)^j E[T^j] / Gamma(alpha + j + 1)
        mu = (mpf(1),) + tuple(ms.moments)
        gam = mpmath.gamma(g.alpha_mp + 1)
        for k, b in enumerate(coeffs):
            paper = sum(math.comb(k, j) * (-g.beta_mp) ** j * mu[j]
                        / mpmath.gamma(g.alpha_mp + j + 1) for j in range(k + 1))
            assert abs(b / gam - paper) < mpf("1e-40") / gam
        assert abs(coeffs[1]) < mpf("1e-10")
        assert abs(coeffs[2]) < mpf("1e-10")
    with pytest.raises(InsufficientMoments):
        laguerre_coeffs(ms, g, 7)


@pytest.mark.parametrize("x0, threshold", [(100.0, 150.0), (2.01e7, 2.51e7)])
def test_coeffs_are_exact_sums_rounded_once(x0, threshold):
    ms = fpt_moments(fisheries_at(x0), FptProblem(Direction.UP, threshold), 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = match_gamma(ms)
    coeffs = laguerre_coeffs(ms, g, 10)
    with mp.workprec(ms.precision):
        c, scale = [], mpf(1)
        for j, mu in enumerate((mpf(1),) + ms.moments):
            c.append(scale * mu)
            scale *= -g.beta_mp / (g.alpha_mp + j + 1)
    with mp.workprec(4096):  # wide enough to hold every sum exactly
        exact = [mpmath.fsum(math.comb(k, j) * c[j] for j in range(k + 1)) for k in range(11)]
    with mp.workprec(ms.precision):
        assert coeffs == [+b for b in exact]


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_moments_are_invalid_params(bad):
    ms = moment_set([13.35, 182.7, 2600.0, 38000.0, bad])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = match_gamma(ms)
        with pytest.raises(InvalidParams, match="finite"):
            laguerre_coeffs(ms, g, 5)


def test_infinite_variance_is_invalid_params():
    """An infinite second moment would match alpha = -1 and beta = 0, where
    (alpha + 1)_j vanishes; match_gamma refuses it before any division."""
    ms = moment_set([13.35, float("inf"), 2600.0, 38000.0])
    with pytest.raises(InvalidParams, match="moments must be finite"):
        match_gamma(ms)
    with pytest.raises(InvalidParams, match="moments must be finite"):
        build_approximant(ms)


def test_nan_mean_is_invalid_params_not_zero_variance():
    ms = moment_set([float("nan"), 182.7, 2600.0, 38000.0])
    with pytest.raises(InvalidParams, match="moments must be finite"):
        match_gamma(ms)


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
    d6 = fisheries_at(4.0e7)
    ms6 = fpt_moments(d6, FptProblem(Direction.UP, 6.0e7), 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms6)
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


# Gamma(alpha+1) overflows a double above alpha = 170: the shape 300 cases
# check that nothing in the layer forms it.
@pytest.mark.parametrize("alpha,t_max", [(4.5, 25.0), (300.0, 500.0)],
                         ids=["alpha4.5", "alpha300"])
def test_gamma_only_truncation_is_gamma_pdf(alpha, t_max):
    ms = gamma_moment_set(alpha, 0.8, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms, n=0)
    ts = np.linspace(0.01, t_max, 200)
    expect = stats.gamma.pdf(ts, a=alpha + 1, scale=1 / 0.8)
    got = apx.density(ts)
    assert np.allclose(got, expect, rtol=1e-10)
    cdf = stats.gamma.cdf(ts, a=alpha + 1, scale=1 / 0.8)
    assert np.allclose(apx.cdf(ts), cdf, rtol=0, atol=1e-12)


@pytest.mark.parametrize("alpha,t_max", [(2.0, 20 / 1.5), (300.0, 300.0)],
                         ids=["alpha2", "alpha300"])
def test_gamma_fixed_point_selected_order(alpha, t_max):
    ms = gamma_moment_set(alpha, 1.5, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms)
    ts = np.linspace(0.0, t_max, 400)
    expect = stats.gamma.pdf(ts, a=alpha + 1, scale=1 / 1.5)
    assert np.allclose(apx.density(ts), expect, rtol=1e-9, atol=1e-10)
    assert not apx.clip_applied
    cdf = stats.gamma.cdf(ts, a=alpha + 1, scale=1 / 1.5)
    assert np.allclose(apx.cdf(ts), cdf, rtol=0, atol=1e-12)


def test_density_normalization_and_moments(fisheries):
    ms = fpt_moments(fisheries, UP4, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms, n=4)
    total, _ = integrate.quad(lambda t: apx.density(t), 0, 80, limit=300)
    assert abs(total - 1) < 1e-6
    for j in range(1, 5):
        mj, _ = integrate.quad(lambda t: t ** j * raw_density(apx, t),
                               0, 80, limit=300)
        assert rel_err(mj, float(ms.moments[j - 1])) < 1e-6
    raw_total, _ = integrate.quad(lambda t: raw_density(apx, t), 0, 80, limit=300)
    assert abs(raw_total - 1) < 1e-6


def test_correction_mass_negligible_below_unit_cv(fisheries):
    # moderate-dispersion scenarios need no visible correction
    ms = fpt_moments(fisheries, UP4, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms)
    assert apx.negative_mass < 1e-3
    assert abs(apx.renorm_factor - 1.0) < 1e-3


def test_cdf_endpoints(fisheries):
    ms = fpt_moments(fisheries, UP4, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms, n=4)
    assert apx.cdf(0.0) == 0.0
    assert apx.cdf(np.inf) == pytest.approx(1.0, abs=1e-12)
    ts = np.linspace(0, 40, 300)
    cdf = apx.cdf(ts)
    assert np.all(np.diff(cdf) >= -1e-12)


def test_singular_origin_scenario_diagnostics(fisheries):
    # threshold just above the start: cv > 1, matched shape negative
    prob = FptProblem(Direction.UP, 110.0)
    ms = fpt_moments(fisheries, prob, 8)
    with pytest.warns(SingularOriginWarning):
        apx = build_approximant(ms)
    assert apx.gamma.alpha < 0
    assert apx.negative_mass >= 0
    # the machinery reports trouble instead of silently degrading
    assert (not apx.converged) or apx.clip_applied or apx.negative_mass > 0
    if apx.clip_applied:
        ts = np.linspace(0.001, 5, 500)
        assert np.all(apx.density(ts) >= 0)


@pytest.mark.parametrize("x0,direction,threshold", [
    (100.0, Direction.UP, 150.0),        # up_150
    (2.01e7, Direction.UP, 3.91e7),      # up_large
    (6.0e7, Direction.DOWN, 3.91e7),     # down_high
])
def test_negative_mass_matches_quadrature(x0, direction, threshold):
    """The closed-form negative mass of a clipped approximant equals adaptive
    quadrature of the negative raw density between sign changes located on a
    fine grid."""
    ms = fpt_moments(fisheries_at(x0), FptProblem(direction, threshold), 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms)
    assert apx.clip_applied
    raw = functools.partial(raw_density, apx)
    ts = float(ms.moments[0]) * np.geomspace(1e-9, 200.0, 200_001)
    sign = np.sign(raw(ts))
    changes = [optimize.brentq(raw, ts[i], ts[i + 1])
               for i in np.flatnonzero(sign[1:] != sign[:-1])]
    edges = np.concatenate([[0.0], changes, [np.inf]])
    # the raw density keeps one sign between consecutive changes
    parts = [integrate.quad(raw, a, b, limit=400, epsabs=0.0, epsrel=1e-12)[0]
             for a, b in zip(edges[:-1], edges[1:])]
    neg = -sum(p for p in parts if p < 0)
    assert apx.negative_mass == pytest.approx(neg, rel=1e-8)
    assert apx.renorm_factor == 1.0 / (1.0 + apx.negative_mass)


def _toward(threshold, factor=0.9):
    """The threshold at `factor` times its log-distance from x0 = 100."""
    return 100.0 * math.exp(factor * math.log(threshold / 100.0))


@pytest.mark.parametrize("threshold, order", [
    (1e5, 20), (1e4, 24), (_toward(1e4), 20), (_toward(1e4), 30), (_toward(1e5), 20)])
def test_high_orders_find_the_roots_the_degree_drops(threshold, order):
    """Fisheries up to 1e5 at order 20 and up to 1e4 at order 24 (alpha is 59
    and 39), and at 0.9 of the log-distance to 1e4 (orders 20 and 30) and to
    1e5 (order 20): b_k below NEGLIGIBLE_COEFF |b_0| shape p, since
    ||L_k^(alpha)|| reaches 1e9.  Cut from the comrade matrix, they moved its
    roots: the negative mass of the first two came out negative, and a sign
    scan of p that made up for it reported extra roots on the last three,
    1.4e-5 to 1.0e-4 off.  Weighted by the norm, the degree is the full order,
    and the negative mass is the quadrature of the negative raw density to
    1e-6, with no absolute floor, since the masses go down to 3.8e-12."""
    import logifpt.laguerre as laguerre

    ms = fpt_moments(fisheries_at(100.0), FptProblem(Direction.UP, threshold), order)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms, n=order)
    assert laguerre._degree(apx._coeff_arr, apx.gamma.alpha) == order
    assert apx.negative_mass >= 0
    raw = functools.partial(raw_density, apx)
    ts = np.linspace(0.0, 200.0 / apx.gamma.beta, 200_001)[1:]
    sign = np.sign(raw(ts))
    changes = [optimize.brentq(raw, ts[i], ts[i + 1])
               for i in np.flatnonzero(sign[1:] != sign[:-1])]
    edges = np.concatenate([[0.0], changes, [np.inf]])
    parts = [integrate.quad(raw, a, b, limit=400, epsabs=0.0, epsrel=1e-12)[0]
             for a, b in zip(edges[:-1], edges[1:])]
    assert apx.negative_mass == pytest.approx(-sum(p for p in parts if p < 0), rel=1e-6, abs=0)


@given(st.floats(min_value=0.4, max_value=2.0),      # growth rate r
       st.floats(min_value=0.05, max_value=0.5),     # sigma
       st.floats(min_value=0.0, max_value=1.0),      # where x0 lies in its range
       st.floats(min_value=0.0, max_value=1.0))      # where the threshold lies
@example(r=0.71, sigma=0.1, at_x0=0.0, at_threshold=0.75)  # x0 = 100, U = 1e4
# x0 = 100, U = 10^4.5: the raw density dips to -4e-19 (negative mass 6.6e-21,
# below CLIP_THRESHOLD, so the approximant is not clipped)
@example(r=2.0, sigma=0.05, at_x0=0.0, at_threshold=1.0)
@settings(max_examples=15, deadline=None)
def test_approximant_is_a_distribution(r, sigma, at_x0, at_threshold):
    """On fisheries-like upcrossings (rho > 0), build_approximant either raises
    a LogifptError or gives a density and a cdf that are a distribution.

    Shapes alpha reach the thousands here (sigma = 0.1 gives about 165).  The
    corrected density is never negative, even where the approximant is left
    unclipped; the cdf carries double rounding and gets 1e-12 of slack.
    """
    assume(sigma ** 2 < 2 * (r - FISHERIES["q"] * FISHERIES["E"]))  # rho > 0
    d, prob = fisheries_like(r, sigma, True, at_x0, at_threshold)
    try:
        ms = fpt_moments(d, prob, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            apx = build_approximant(ms)
    except LogifptError:
        return
    ts = float(ms.moments[0]) * np.linspace(0.0, 10.0, 1001)[1:]
    dens = apx.density(ts)
    assert np.all(np.isfinite(dens))
    assert dens.min() >= 0
    cdf = apx.cdf(np.concatenate([[0.0], ts, [np.inf]]))
    assert cdf[0] == 0.0 and cdf[-1] == 1.0
    assert np.all(np.diff(cdf) >= -1e-12)
    assert np.all((cdf >= -1e-12) & (cdf <= 1 + 1e-12))
    assert all(map(math.isfinite, apx.coeffs))


def test_noise_coefficients_leave_no_negative_mass():
    """A fully flagged downcrossing set: fisheries K, q and E at sigma 0.577,
    r 6.63, from 4e7 down to 2.5e7.  On the Bell route its b_1..b_3 are
    rounding noise; dividing by that b_3 in the comrade matrix gave a
    negative mass of -1.0."""
    params = {k: FISHERIES[k] for k in ("K", "q", "E")}
    d = derive_params(ModelParams(**params, r=6.63, sigma=0.577, x0=4e7))
    ms = bell_moments(d, FptProblem(Direction.DOWN, 2.5e7), 10)
    assert all(ms.flagged)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms)
    assert apx.order == 3 and 0 < abs(apx.coeffs[3]) < 1e-70
    assert apx.negative_mass == 0.0
    assert not apx.clip_applied


@given(st.integers(min_value=1, max_value=10),
       st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=9, max_size=9),
       st.floats(min_value=0.0, max_value=70.0),      # -log10 |b_n / b_0|
       st.booleans(),                                 # sign of b_n
       st.floats(min_value=-0.9, max_value=50.0))     # alpha
@settings(max_examples=60, deadline=None)
def test_negative_mass_is_finite_and_non_negative(n, middle, decades, negative, alpha):
    """Coefficient vectors whose last entry b_n lies anywhere down to 1e-70 b_0
    give a finite, non-negative negative mass."""
    b_n = (-1.0 if negative else 1.0) * 10.0 ** -decades
    coeffs = (1.0, *middle[:n - 1], b_n)
    apx = LaguerreApproximant(gamma=GammaRef(alpha_mp=mpf(alpha), beta_mp=mpf(1)),
                              coeffs=coeffs, converged=True)
    assert math.isfinite(apx.negative_mass) and apx.negative_mass >= 0


def _same_double(a, b) -> bool:
    return (math.isnan(a) and math.isnan(b)) or float(a).hex() == float(b).hex()


@given(st.integers(min_value=1, max_value=10),
       st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=10, max_size=10),
       st.floats(min_value=-0.9, max_value=50.0))     # alpha
@example(n=3, middle=[0.0, 0.0, 0.5] + [0.0] * 7, alpha=1.0)  # p < 0 on (a, inf)
@example(n=1, middle=[1.0] + [0.0] * 9, alpha=0.0)            # p = 2 - x, root at 2
@settings(max_examples=60, deadline=None)
def test_negative_mass_takes_F_at_inf_as_b0(n, middle, alpha):
    """The constructor sums F(a) - F(b) over the negative intervals with
    F(inf) = b_0 exact: no F is evaluated at inf, and the mass is the double
    that the array route of cdf, _mass_below(inf), gives."""
    import logifpt.laguerre as laguerre

    seen, raw_cdf = [], laguerre._raw_cdf

    def spy(coeffs, alpha, x):
        seen.append(x)
        return raw_cdf(coeffs, alpha, x)

    with mock.patch.object(laguerre, "_raw_cdf", spy):
        apx = LaguerreApproximant(gamma=GammaRef(alpha_mp=mpf(alpha), beta_mp=mpf(1)),
                                  coeffs=(1.0, *middle[:n]), converged=True)
    assert all(np.isfinite(x).all() for x in seen)
    assert len(seen) <= 2 * len(apx._neg)
    if apx._neg:
        assert _same_double(apx.negative_mass, apx._mass_below(np.inf))
    else:
        assert apx.negative_mass == 0.0 and seen == []


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=11),
       st.floats(min_value=-0.99, max_value=4199.0),
       st.floats(min_value=0.0, max_value=1e4))
@example(coeffs=[1.0, 0.0, 0.0, -2e-3, 5e-4], alpha=38.7, x=0.0)
@example(coeffs=[1.0], alpha=-0.99, x=1.0)
@settings(max_examples=200, deadline=None)
def test_scalar_p_is_the_array_sum(coeffs, alpha, x):
    """_coeff_sum at a float gives a Python float, the double that it gives
    as an element of an array, at the origin, at 1 and inside (0, 1e4), from
    a list or an array of coefficients; an array keeps its shape."""
    from logifpt.laguerre import _coeff_sum

    for at in (0.0, 1.0, x):
        grid = _coeff_sum(np.asarray(coeffs), alpha, np.full((2, 3), at))
        assert grid.shape == (2, 3)
        want = grid[1, 2]
        got = _coeff_sum(coeffs, alpha, at)
        assert type(got) is float and _same_double(got, want)
        assert _same_double(_coeff_sum(np.asarray(coeffs), alpha, at), want)


@pytest.mark.parametrize("tail, degree", [(-2e-14, 4), (-2.5e-14, 5)])
def test_select_order_and_roots_agree_on_the_degree(monkeypatch, tail, degree):
    """At alpha = 2, b_5 below NEGLIGIBLE_COEFF |b_0| / ||L_5^(2)||, which is
    1e-13 / sqrt(C(7, 5)) = 2.18e-14, is dropped in both places, and above it
    kept in both: _roots forms its comrade matrix at that degree, and the
    tail rule of select_order reads the sign of that coefficient (b_4 < 0
    fails the rule at degree 4, b_5 < 0 passes it at degree 5)."""
    import logifpt.laguerre as laguerre

    coeffs = [1.0, 0.0, 0.0, 1e-3, -1e-8, tail]  # |b_3| >= 1e-6: order 3 is refused
    sizes, eigvals = [], np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: sizes.append(len(m)) or eigvals(m))
    laguerre._roots(np.asarray(coeffs), 2.0)
    assert sizes == [degree]
    assert select_order(coeffs, 2.0) == (5, degree == 5)


@pytest.mark.parametrize("alpha, degree", [
    (-1.0, 0), (-1 + 1e-15, 1), (0.0, 1), (59.0, 1), (1e15, 1), (1e306, 1), (math.inf, 1)])
def test_degree_is_defined_at_every_alpha(alpha, degree):
    """Neither lgamma's pole at alpha = -1 nor its overflow past 2.5e305
    raises, and b_3 = 1e-300 stays negligible; with b_0 = 0 every nonzero
    b_k counts, except at alpha = -1, where f_alpha vanishes."""
    import logifpt.laguerre as laguerre

    assert laguerre._degree([1.0, 0.5, 0.0, 1e-300], alpha) == degree
    assert laguerre._degree([0.0, 0.5, 0.0, 1e-300], alpha) == (3 if degree else 0)


@given(st.sampled_from([53, 64, 113, 256, 300]),
       st.floats(min_value=-0.99, max_value=4199.0),                   # alpha
       st.floats(min_value=1e-3, max_value=1e3),                       # beta
       st.lists(st.floats(min_value=1e-30, max_value=1e30), min_size=1, max_size=10),
       st.lists(st.booleans(), min_size=10, max_size=10))              # moment signs
@example(precision=256, alpha=0.0, beta=1.0, moments=[1.0, 2.0, 6.0], negative=[False] * 10)
@settings(max_examples=100, deadline=None)
def test_coeffs_round_as_the_mpf_chain(precision, alpha, beta, moments, negative):
    """The c_j formed in ints are the c_j of the mpf chain s_(j+1) = s_j
    (-beta / (alpha + j + 1)), c_j = s_j mu_j, bit for bit, and b_k is their
    exact binomial sum rounded once.  Inputs carry full mantissas (a third of
    a double, at the working precision)."""
    with mp.workprec(precision):
        third = mpf(1) / 3
        mu = tuple((-1 if neg else 1) * mpf(m) * third for m, neg in zip(moments, negative))
        g = GammaRef(alpha_mp=mpf(alpha) * (1 + third), beta_mp=mpf(beta) * third)
        c, scale = [], mpf(1)
        for j, m in enumerate((mpf(1),) + mu):
            c.append(scale * m)
            scale *= -g.beta_mp / (g.alpha_mp + j + 1)
    ms = MomentSet(moments=mu, precision=precision)
    got = laguerre_coeffs(ms, g, len(mu))
    with mp.workprec(8192):  # wide enough to hold every sum exactly
        exact = [mpmath.fsum(math.comb(k, j) * c[j] for j in range(k + 1))
                 for k in range(len(mu) + 1)]
    with mp.workprec(precision):
        assert got == [+b for b in exact]
