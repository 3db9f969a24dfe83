"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy shared artifacts (the 1e5-path benchmark run) come from session
fixtures so they are simulated once.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest
from mpmath import mp, mpf
from scipy import integrate

from logifpt import (Direction, FptProblem, SimConfig, build_approximant,
                     cumulants_from_moments, fpt_cumulants, fpt_moments, kde,
                     laplace_transform, match_gamma, sample_fpt)
from logifpt.cli import main as cli_main
from logifpt.errors import SingularOriginWarning
from logifpt.inference import mc_study
from tests.conftest import FISHERIES
from tests.oracles import (ExpSeries, bell_moments, mean_variance_closed_form,
                           rising_factorial, series_exp, series_log, series_product,
                           series_reciprocal, series_reciprocal_bell, stirling1_unsigned)

UP4 = FptProblem(Direction.UP, 1e4)
UP5 = FptProblem(Direction.UP, 1e5)

TABLE_2L = dict(mean=13.35, var=4.49, k4=7.60, ratios=(2.98, 1.98, 1.79))
TABLE_2R = dict(mean=20.03, var=6.73, k4=11.42, ratios=(2.97, 1.98, 1.78))


def _passed(n, msg):
    print(f"[criterion {n}] PASS: {msg}")


def test_criterion_01_table_reproduction(fisheries):
    for prob, want in ((UP4, TABLE_2L), (UP5, TABLE_2R)):
        t0 = time.monotonic()
        cs = fpt_cumulants(fisheries, prob, 4)
        elapsed = time.monotonic() - t0
        c = cs.cumulants_float
        assert abs(c[0] - want["mean"]) <= 0.01
        assert abs(c[1] - want["var"]) <= 0.01
        assert abs(c[3] - want["k4"]) <= 0.01
        for got, expect in zip(cs.ratios, want["ratios"]):
            assert abs(float(got) - expect) <= 0.01
        assert elapsed < 5.0
    _passed(1, "both threshold scenarios match the published summary table "
               "to +-0.01 in under 5 s each")


def test_criterion_02_caption_consistency(fisheries):
    for prob, (alpha_want, beta_want) in ((UP4, (38.72, 2.98)), (UP5, (58.56, 2.97))):
        ms = fpt_moments(fisheries, prob, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = match_gamma(ms)
        assert abs(g.alpha - alpha_want) <= 0.05
        assert abs(g.beta - beta_want) <= 0.05
    _passed(2, "moment-matched (alpha, beta) equal (38.72, 2.98) and "
               "(58.56, 2.97) within +-0.05")


def test_criterion_03_oracle_equivalence(scenarios, oracle_moments):
    t0 = time.monotonic()
    for name, d, prob in scenarios:
        ms = fpt_moments(d, prob, 4)
        oracle = oracle_moments.moments[name]
        with mp.workprec(300):
            rels = [abs(a / b - 1) for a, b in zip(oracle.moments, ms.moments)]
        if prob.direction is Direction.UP:
            assert all(r < mpf("1e-6") for r in rels), name
        else:
            for r, est in zip(rels, ms.error_estimates):
                assert r <= est, name
    elapsed = oracle_moments.seconds + time.monotonic() - t0
    assert elapsed < 120.0
    _passed(3, f"six-scenario grid agrees with the Cauchy-integral oracle "
               f"(up: <1e-6, down: within reported estimates) in {elapsed:.1f} s")


def test_criterion_04_dual_method_equality(scenarios):
    for name, d, prob in scenarios:
        a = fpt_moments(d, prob, 16)
        b = bell_moments(d, prob, 16)
        with mp.workprec(d.precision):
            for x, y in zip(a.moments, b.moments):
                assert abs(x / y - 1) < mpf("1e-20"), name
    _passed(4, "recursion and Bell-closed-form moments agree to 1e-20 "
               "through order 16 on all six scenarios")


def test_criterion_05_cumulant_duality(scenarios):
    for name, d, prob in scenarios:
        direct = fpt_cumulants(d, prob, 4)
        via = cumulants_from_moments(fpt_moments(d, prob, 4))
        mean, var = mean_variance_closed_form(d, prob)
        with mp.workprec(d.precision):
            for x, y in zip(direct.cumulants, via):
                assert abs(x / y - 1) < mpf("1e-10"), name
            assert abs(mean / direct.cumulants[0] - 1) < mpf("1e-10"), name
            assert abs(var / direct.cumulants[1] - 1) < mpf("1e-10"), name
    _passed(5, "log-polynomial cumulants, moment-converted cumulants, and the "
               "explicit mean/variance sums agree to 1e-10 on all scenarios")


def test_criterion_06_series_property_suite():
    rng = np.random.default_rng(2468)
    cases = 100
    with mp.workprec(256):
        for _ in range(cases):
            order = int(rng.integers(2, 21))
            coeffs = [mpf(float(c)) for c in rng.uniform(-10, 10, order + 1)]
            # exp/log round trip (positive constant term)
            coeffs[0] = mpf(float(rng.uniform(0.1, 10)))
            A = ExpSeries(tuple(coeffs))
            scale = max(1, max(abs(c) for c in A.coeffs))
            lg = series_log(A)
            back = series_exp(ExpSeries((mpf(0),) + lg.coeffs[1:]))
            for x, y in zip(back.coeffs, A.coeffs):
                assert abs(x * A.coeffs[0] - y) < mpf("1e-20") * scale
            # reciprocal identity and recursion-vs-closed-form equality
            rec = series_reciprocal(A)
            rec2 = series_reciprocal_bell(A)
            prod = series_product(A, rec)
            assert abs(prod.coeffs[0] - 1) < mpf("1e-25")
            for c in prod.coeffs[1:]:
                assert abs(c) < mpf("1e-20") * scale
            rscale = max(1, max(abs(c) for c in rec.coeffs))
            for x, y in zip(rec.coeffs, rec2.coeffs):
                assert abs(x - y) < mpf("1e-20") * rscale
        # exact integer identities
        for n in range(31):
            assert sum(stirling1_unsigned(n, j) for j in range(n + 1)) == math.factorial(n)
        from fractions import Fraction
        for _ in range(cases):
            x = Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 20)))
            n = int(rng.integers(0, 20))
            assert rising_factorial(x, n) == sum(
                stirling1_unsigned(n, j) * x ** j for j in range(n + 1))
    _passed(6, f"series-algebra property suite passed for {cases} randomized cases")


def test_criterion_07_monte_carlo_agreement(fisheries, fisheries_mc_sample):
    s = fisheries_mc_sample
    summary = s.summary()
    se = math.sqrt(summary["var"] / s.n)
    assert s.censored == 0
    assert abs(summary["mean"] - 13.35) < 3 * se
    assert abs(summary["var"] - 4.49) / 4.49 < 0.10
    _passed(7, f"1e5-path run: mean {summary['mean']:.4f} within 3 SE "
               f"({3 * se:.4f}) of 13.35; var {summary['var']:.3f} within 10% of 4.49")


def test_criterion_08_density_quality(fisheries, fisheries_mc_sample):
    ms = fpt_moments(fisheries, UP4, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms, n=4)
    total, quad_err = integrate.quad(lambda t: apx.density(t), 0, 80, limit=400)
    assert abs(total - 1.0) < 1e-6
    for j in range(1, 5):
        mj, _ = integrate.quad(lambda t: t ** j * apx.density(t, corrected=False),
                               0, 80, limit=400)
        assert abs(mj / float(ms.moments[j - 1]) - 1) < 1e-6
    grid = np.arange(0.0, 35.0, 0.02)
    kde_vals = kde(fisheries_mc_sample, grid)
    l1 = float(np.trapezoid(np.abs(apx.density(grid) - kde_vals), grid))
    assert l1 < 0.05
    # high-dispersion scenario must surface its instability diagnostics
    prob_cv = FptProblem(Direction.UP, 110.0)
    ms_cv = fpt_moments(fisheries, prob_cv, 16)
    with pytest.warns(SingularOriginWarning):
        apx_cv = build_approximant(ms_cv, n_max=16)
    assert apx_cv.gamma.alpha < 0
    assert (not apx_cv.converged) or apx_cv.clip_applied
    _passed(8, f"order-4 approximant: mass 1+-1e-6, moments reproduced to 1e-6, "
               f"L1 distance to the KDE benchmark {l1:.4f} < 0.05; cv>1 scenario "
               f"reports converged={apx_cv.converged}, clip={apx_cv.clip_applied}")


def test_criterion_09_mle_recovery(fisheries_params):
    t0 = time.monotonic()
    report = mc_study(truth=fisheries_params, problem=UP4, Ns=[500],
                      subsets=[("sigma", "r")], replications=20,
                      master_seed=771, dt=1e-3, horizon=60.0)
    elapsed = time.monotonic() - t0
    errs = {row["parameter"]: row["err_pct"] for row in report.rows}
    assert errs["sigma"] <= 3 * 2.63
    assert errs["r"] <= 3 * 0.57
    assert elapsed < 1800.0
    _passed(9, f"20-replication study at N=500: sigma err {errs['sigma']:.2f}% "
               f"(<= {3 * 2.63:.2f}), r err {errs['r']:.2f}% (<= {3 * 0.57:.2f}) "
               f"in {elapsed / 60:.1f} min")


def test_criterion_10_degenerate_and_regime_guards(fisheries, tmp_path, capsys):
    prob = FptProblem(Direction.UP, FISHERIES["x0"])
    for route in (fpt_moments, bell_moments):
        ms = route(fisheries, prob, 4)
        assert ms.degenerate and all(m == 0 for m in ms.moments)
    for lam in (0.0, 0.03, 0.7):
        assert laplace_transform(fisheries, prob, lam) == 1
    s = sample_fpt(fisheries, SimConfig(problem=prob, paths=20, dt=1e-2,
                                        horizon=2.0, seed=0))
    assert np.all(s.times == 0.0) and s.censored == 0
    bad = tmp_path / "nonpersistent.json"
    bad.write_text(json.dumps({"r": 0.5, "K": 1e3, "q": 0.0, "E": 0.0,
                               "sigma": 1.0, "x0": 100.0}))
    code = cli_main(["derive", str(bad)])
    capsys.readouterr()
    assert code == 2
    _passed(10, "threshold-at-start gives zero moments, unit transform and "
                "zero samples; non-persistent config exits with code 2")
