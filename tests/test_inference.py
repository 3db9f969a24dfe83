import math
import warnings

import numpy as np
import pytest

from logifpt import (Direction, FptProblem, SimConfig, build_approximant,
                     fpt_moments, log_likelihood, mle_fit, sample_fpt)
from logifpt.errors import EmptySample, InvalidParams, NoFeasibleStart
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


def test_fit_recovers_sigma(sample_1k):
    cfg = cfg_for(["sigma"], init={"sigma": 0.26}, max_iter=60)
    res = mle_fit(sample_1k, cfg, keep_trace=True)
    assert res.converged
    assert abs(res.estimates["sigma"] - FISHERIES["sigma"]) / FISHERIES["sigma"] < 0.10
    assert res.gamma_seed is not None
    # best-so-far log likelihood never decreases along the trace
    best = [t[2] for t in res.trace]
    assert best == sorted(best)
    lo, hi = DEFAULT_BOUNDS["sigma"]
    assert lo <= res.estimates["sigma"] <= hi


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
