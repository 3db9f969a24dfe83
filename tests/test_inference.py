import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logifpt import (Direction, FptProblem, ModelParams, SimConfig, build_approximant,
                     derive_params, fpt_moments, log_likelihood, mle_fit, sample_fpt)
from logifpt.errors import EmptySample, InvalidParams, NoConvergence, NoFeasibleStart
from logifpt.inference import DEFAULT_BOUNDS, PENALTY, MleConfig
from logifpt.montecarlo import FptSample
from tests.conftest import FISHERIES

UP4 = FptProblem(Direction.UP, 1e4)
FIXED_ALL = {**FISHERIES, "U": 1e4}


def cfg_for(estimate, init=None, **kw):
    fixed = {k: v for k, v in FIXED_ALL.items() if k not in estimate}
    return MleConfig(estimate=tuple(estimate), fixed=fixed, init=init or {}, **kw)


@pytest.fixture(scope="module")
def sample_1k(fisheries):
    cfg = SimConfig(problem=UP4, paths=1000, dt=1e-3, horizon=60.0, seed=314)
    return sample_fpt(fisheries, cfg)


def test_config_validation():
    with pytest.raises(InvalidParams):
        MleConfig(estimate=("sigma", "bogus"), fixed=FIXED_ALL, init={})
    with pytest.raises(InvalidParams):
        MleConfig(estimate=("sigma",), fixed=FIXED_ALL, init={"sigma": 0.2})
    with pytest.raises(InvalidParams):  # K neither estimated nor fixed
        bad = {k: v for k, v in FIXED_ALL.items() if k != "K"}
        MleConfig(estimate=("sigma",), fixed={k: v for k, v in bad.items() if k != "sigma"},
                  init={"sigma": 0.2})
    with pytest.raises(InvalidParams):  # missing init
        cfg_for(["sigma"])
    for stray in ({"r": 5.0}, {"bogus": 1.0}):  # a value the fit would ignore
        with pytest.raises(InvalidParams, match="not estimated"):
            cfg_for(["sigma"], init={"sigma": 0.2, **stray})
    hi = DEFAULT_BOUNDS["r"][1]  # a start the simplex would clip, after one evaluation
    with pytest.raises(InvalidParams, match="r = 12.0 not in"):
        cfg_for(["sigma", "r"], init={"sigma": 0.2, "r": hi + 2})
    cfg_for(["sigma", "r"], init={"sigma": 0.2, "r": hi})
    fixed = {k: v for k, v in FIXED_ALL.items() if k != "sigma"}
    for value in ("8.05e7", None, True):  # the number rule of ModelParams.from_dict
        with pytest.raises(InvalidParams, match="fixed K"):
            MleConfig(estimate=("sigma",), fixed={**fixed, "K": value}, init={"sigma": 0.2})


@pytest.mark.parametrize("n_max", [1, 0])
def test_config_refuses_an_order_cap_below_two(n_max):
    # the likelihood reads the variance, the second moment
    with pytest.raises(InvalidParams, match="n_max"):
        cfg_for(["sigma"], init={"sigma": 0.2}, n_max=n_max)
    cfg_for(["sigma"], init={"sigma": 0.2}, n_max=2)


def test_config_refuses_an_order_cap_beyond_the_kernel_table():
    from logifpt.kernels import N_MAX_DEFAULT

    with pytest.raises(InvalidParams, match=f"n_max must be in 2..{N_MAX_DEFAULT}"):
        cfg_for(["sigma"], init={"sigma": 0.2}, n_max=N_MAX_DEFAULT + 1)
    cfg_for(["sigma"], init={"sigma": 0.2}, n_max=N_MAX_DEFAULT)


def test_truth_beats_perturbation(sample_1k):
    cfg = cfg_for(["sigma"], init={"sigma": FISHERIES["sigma"]})
    ll_truth = log_likelihood({"sigma": FISHERIES["sigma"]}, sample_1k, cfg)
    ll_pert = log_likelihood({"sigma": FISHERIES["sigma"] * 1.2}, sample_1k, cfg)
    assert ll_truth > ll_pert
    assert ll_truth > PENALTY / 2


def test_penalty_regions(sample_1k):
    cfg = cfg_for(["E"], init={"E": FIXED_ALL["E"]})
    assert log_likelihood({"E": 1e9}, sample_1k, cfg) == PENALTY  # qE >= r
    cfg = cfg_for(["sigma"], init={"sigma": 0.2})
    assert log_likelihood({"sigma": 4.9}, sample_1k, cfg) == PENALTY  # rho < 0
    cfg = cfg_for(["x0"], init={"x0": 100.0})
    assert log_likelihood({"x0": 2e4}, sample_1k, cfg) == PENALTY  # wrong side
    assert log_likelihood({"x0": 1e4}, sample_1k, cfg) == PENALTY  # degenerate


@pytest.fixture(scope="module")
def sample_censored(fisheries):
    """N=500 at horizon 14: about 40% of the paths have not crossed."""
    cfg = SimConfig(problem=UP4, paths=500, dt=1e-3, horizon=14.0, seed=1)
    return sample_fpt(fisheries, cfg)


@given(sigma=st.floats(*DEFAULT_BOUNDS["sigma"]), r=st.floats(*DEFAULT_BOUNDS["r"]),
       censored=st.booleans())
@example(sigma=1e-3, r=10.0, censored=False)  # |u| ~ 1e7: one kernel row spans about 2^226
@example(sigma=1e-3, r=10.0, censored=True)
@settings(max_examples=10, deadline=None)
def test_likelihood_is_finite_or_the_penalty(sample_1k, sample_censored, sigma, r, censored):
    """Anywhere in the (sigma, r) box the simplex searches, a likelihood is
    a finite float or exactly PENALTY, and it never raises, with or without
    censored paths."""
    cfg = cfg_for(["sigma", "r"], init={"sigma": FISHERIES["sigma"], "r": FISHERIES["r"]})
    data = sample_censored if censored else sample_1k
    ll = log_likelihood({"sigma": sigma, "r": r}, data, cfg)
    assert type(ll) is float
    assert ll == PENALTY or math.isfinite(ll)


def test_non_convergent_sums_are_the_penalty():
    """At v*U ~ 132 the upcrossing n-sum is still changing at the table
    bound: the moments raise NoConvergence and the likelihood is PENALTY."""
    far = FptProblem(Direction.UP, 3e8)
    with pytest.raises(NoConvergence):
        fpt_moments(derive_params(ModelParams(**{**FISHERIES, "x0": 2.01e7})), far, 10)
    data = FptSample(times=np.array([1.0, 2.0]), censored=0,
                     config=SimConfig(problem=far, paths=2, dt=1e-3, horizon=60.0, seed=0))
    fixed = {k: v for k, v in FIXED_ALL.items() if k != "sigma"}
    cfg = MleConfig(estimate=("sigma",), fixed={**fixed, "x0": 2.01e7, "U": 3e8},
                    init={"sigma": FISHERIES["sigma"]})
    assert log_likelihood({"sigma": FISHERIES["sigma"]}, data, cfg) == PENALTY


def test_moments_beyond_the_error_bound_are_the_penalty(monkeypatch):
    """Downcrossing from 3.91e7 to 2.8e7: at the truth every moment's
    relative error estimate is below 1e-8, at sigma 0.3, r 1.0 the largest is
    about 2e-6, above MAX_REL_ERROR.  Only the bound makes the second point
    the penalty."""
    from logifpt import inference

    down = FptProblem(Direction.DOWN, 2.8e7)
    data = FptSample(times=np.linspace(2.0, 30.0, 15), censored=0,
                     config=SimConfig(problem=down, paths=15, dt=1e-3, horizon=60.0, seed=0))
    fixed = {k: v for k, v in FIXED_ALL.items() if k not in ("sigma", "r")}
    cfg = MleConfig(estimate=("sigma", "r"), fixed={**fixed, "x0": 3.91e7, "U": 2.8e7},
                    init={"sigma": 0.2, "r": 0.71}, direction=Direction.DOWN)

    def worst_estimate(theta):
        d = derive_params(ModelParams(**{**FISHERIES, "x0": 3.91e7, **theta}))
        return max(fpt_moments(d, down, cfg.n_max).error_estimates)

    truth, off = {"sigma": 0.2, "r": 0.71}, {"sigma": 0.3, "r": 1.0}
    assert worst_estimate(truth) < 1e-8
    assert PENALTY < log_likelihood(truth, data, cfg) < math.inf
    assert inference.MAX_REL_ERROR < worst_estimate(off) < 1e-5
    assert log_likelihood(off, data, cfg) == PENALTY
    monkeypatch.setattr(inference, "MAX_REL_ERROR", 1e-5)
    assert PENALTY < log_likelihood(off, data, cfg) < math.inf


def test_bugs_are_not_turned_into_penalties(sample_1k, monkeypatch):
    import logifpt.inference

    def broken(*args, **kw):
        raise ValueError("a bug, not an infeasible point")

    monkeypatch.setattr(logifpt.inference, "build_approximant", broken)
    cfg = cfg_for(["sigma"], init={"sigma": 0.2})
    with pytest.raises(ValueError, match="a bug"):
        log_likelihood({"sigma": FISHERIES["sigma"]}, sample_1k, cfg)


def test_single_datum_at_mode(fisheries):
    ms = fpt_moments(fisheries, UP4, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(ms, n_max=10)
    ts = np.linspace(5.0, 25.0, 4001)
    dens = apx.density(ts)
    mode = float(ts[np.argmax(dens)])
    data = FptSample(times=np.array([mode]), censored=0,
                     config=SimConfig(problem=UP4, paths=1, dt=1e-3,
                                      horizon=60.0, seed=0))
    cfg = cfg_for(["sigma"], init={"sigma": 0.2})
    ll = log_likelihood({"sigma": FISHERIES["sigma"]}, data, cfg)
    assert ll == pytest.approx(math.log(float(np.max(dens))), rel=1e-9)


def test_empty_estimate_echoes_init(sample_1k):
    cfg = cfg_for([], init={})
    res = mle_fit(sample_1k, cfg)
    assert res.converged
    assert res.estimates == {}
    assert res.n_evals == 1
    assert math.isfinite(res.loglik)


def test_infeasible_start_raises(sample_1k):
    cfg = cfg_for(["sigma"], init={"sigma": 4.9})  # non-persistent regime
    with pytest.raises(NoFeasibleStart):
        mle_fit(sample_1k, cfg)


def test_empty_sample_raises():
    empty = FptSample(times=np.empty(0), censored=3,
                      config=SimConfig(problem=UP4, paths=3, dt=1e-3,
                                       horizon=1.0, seed=0))
    cfg = cfg_for(["sigma"], init={"sigma": 0.2})
    with pytest.raises(EmptySample):
        mle_fit(empty, cfg)
    with pytest.raises(EmptySample):
        log_likelihood({"sigma": 0.2}, empty, cfg)


def test_fit_recovers_sigma(sample_1k, monkeypatch):
    import logifpt.inference

    evaluated = []
    real = logifpt.inference.log_likelihood

    def counting(theta, data, cfg):
        evaluated.append(theta)
        return real(theta, data, cfg)

    monkeypatch.setattr(logifpt.inference, "log_likelihood", counting)
    cfg = cfg_for(["sigma"], init={"sigma": 0.26}, max_iter=60)
    res = mle_fit(sample_1k, cfg, keep_trace=True)
    # the start is evaluated once, and serves the simplex's first vertex too
    assert len(evaluated) == res.n_evals == len(res.trace)
    assert res.trace[0][0] == [0.26]
    assert res.converged
    assert abs(res.estimates["sigma"] - FISHERIES["sigma"]) / FISHERIES["sigma"] < 0.10
    assert res.gamma_seed is not None
    # best-so-far log likelihood never decreases along the trace
    best = [t[2] for t in res.trace]
    assert best == sorted(best)
    lo, hi = DEFAULT_BOUNDS["sigma"]
    assert lo <= res.estimates["sigma"] <= hi


@pytest.mark.parametrize("sigma", [0.1, 0.08, 0.05])
def test_likelihood_finite_at_large_gamma_shape(sample_1k, sigma):
    # small sigma matches Gamma shapes of about 165 to 660, where (beta t)^alpha
    # and Gamma(alpha+1) overflow a double; the likelihood must stay finite
    # and fall off
    cfg = cfg_for(["sigma", "r"], init={"sigma": 0.2, "r": 0.71})
    ll = log_likelihood({"sigma": sigma, "r": 0.71}, sample_1k, cfg)
    assert math.isfinite(ll)
    assert ll < log_likelihood({"sigma": 0.2, "r": 0.71}, sample_1k, cfg)


def test_censored_paths_enter_through_the_survival_function(sample_censored):
    assert sample_censored.censored > 150
    cfg = cfg_for(["sigma", "r"], init={"sigma": 0.23, "r": 0.639})
    res = mle_fit(sample_censored, cfg)
    assert res.converged
    assert abs(res.estimates["sigma"] - FISHERIES["sigma"]) < 0.02


def test_uncensored_likelihood_is_the_density_sum(sample_1k, fisheries):
    assert sample_1k.censored == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        apx = build_approximant(fpt_moments(fisheries, UP4, 10), n_max=10)
    want = float(np.sum(np.log(np.maximum(apx.density(sample_1k.times), 1e-300))))
    cfg = cfg_for(["sigma"], init={"sigma": 0.2})
    assert log_likelihood({"sigma": FISHERIES["sigma"]}, sample_1k, cfg) == want


def test_likelihood_deterministic(sample_1k):
    cfg = cfg_for(["sigma", "r"], init={"sigma": 0.2, "r": 0.71})
    theta = {"sigma": 0.21, "r": 0.69}
    assert log_likelihood(theta, sample_1k, cfg) == log_likelihood(theta, sample_1k, cfg)


def test_mc_study_bit_reproducible(fisheries_params):
    from logifpt.inference import mc_study

    kw = dict(truth=fisheries_params, problem=UP4, Ns=[60], subsets=[("sigma",)],
              replications=2, master_seed=5150, dt=2e-3, horizon=60.0,
              cfg_overrides={"max_iter": 25})
    r1 = mc_study(**kw)
    r2 = mc_study(**kw)
    assert r1.rows == r2.rows


def test_p_without_a_negative_interval_skips_the_cdf_and_the_mpf_series(sample_1k,
                                                                        monkeypatch):
    """An upcrossing evaluation whose p has no negative interval calls
    _raw_cdf no time and forms neither endpoint series nor the cumulants in
    mpf; one with a negative interval integrates it, and never evaluates F
    at inf (it is b_0)."""
    import logifpt.analytics as analytics
    import logifpt.inference as inference
    import logifpt.laguerre as laguerre

    seen, calls = {}, []
    raw_cdf = laguerre._raw_cdf
    fixed_quotient = analytics._fixed_quotient
    fpt_moments = inference.fpt_moments

    def quotient(num, den, q_log=None):
        seen["blocks"] = num, den
        return fixed_quotient(num, den, q_log)

    def moments(*args, **kwargs):
        seen["ms"] = fpt_moments(*args, **kwargs)
        return seen["ms"]

    def approximant(*args, **kwargs):
        seen["apx"] = build_approximant(*args, **kwargs)
        return seen["apx"]

    def counted(*args):
        calls.append(args)
        return raw_cdf(*args)

    monkeypatch.setattr(analytics, "_fixed_quotient", quotient)
    monkeypatch.setattr(inference, "build_approximant", approximant)
    monkeypatch.setattr(laguerre, "_raw_cdf", counted)
    monkeypatch.setattr(inference, "fpt_moments", moments)
    cfg = cfg_for(["sigma", "r"], init={"sigma": 0.2, "r": 0.71})
    assert log_likelihood({"sigma": 0.22, "r": 0.71}, sample_1k, cfg) > PENALTY
    assert seen["apx"].negative_mass == 0.0 and not np.size(seen["apx"]._neg)
    assert calls == []
    b0, b1 = seen["blocks"]
    assert "coeffs" not in vars(b0) and "coeffs" not in vars(b1)
    assert "cumulants" not in vars(seen["ms"])
    # p < 0 on one interval at sigma 0.15, r 0.8: its mass is integrated
    assert log_likelihood({"sigma": 0.15, "r": 0.8}, sample_1k, cfg) > PENALTY
    assert seen["apx"].negative_mass > 0 and len(calls) == 2
    assert not any(np.isinf(x).any() for *_, x in calls)
