import math

import numpy as np
import pytest

from logifpt import (Direction, FptProblem, ModelParams, SimConfig, derive_params,
                     empirical_moments, fpt_moments, kde, lie_trotter_step,
                     read_samples_csv, sample_fpt, stationary_check,
                     step_constants, write_samples_csv)
from logifpt.errors import EmptySample, InvalidParams
from logifpt.montecarlo import silverman_bandwidth
from tests.conftest import FISHERIES, rel_err

UP4 = FptProblem(Direction.UP, 1e4)


def test_step_fixed_point_at_capacity(fisheries):
    K1 = float(fisheries.K1)
    sigma = FISHERIES["sigma"]
    dt = 0.01
    out = lie_trotter_step(K1, 0.0, *step_constants(fisheries, dt))
    assert rel_err(out, K1 * math.exp(-0.5 * sigma ** 2 * dt)) < 1e-14


def test_step_identity_in_zero_drift_zero_noise_limit():
    d = derive_params(ModelParams(r=1e-12, K=1e6, q=0.0, E=0.0, sigma=1e-9, x0=100.0))
    dt = 0.01
    sigma = 1e-9
    z = 0.5 * sigma * math.sqrt(dt)  # cancels the variance correction exactly
    out = lie_trotter_step(100.0, z, *step_constants(d, dt))
    assert rel_err(out, 100.0) < 1e-12


def test_step_worked_example(fisheries):
    out = lie_trotter_step(100.0, 0.0, *step_constants(fisheries, 0.01))
    # drift flow then volatility correction factor exp(-0.0002)
    assert out == pytest.approx(100.34561, abs=2e-5)
    drift_only = 100.36568
    assert out == pytest.approx(drift_only * math.exp(-0.0002), abs=2e-5)


def test_step_positivity_and_vector(fisheries):
    xs = np.array([1e-6, 1.0, 1e8])
    zs = np.array([-8.0, 0.0, 8.0])
    out = lie_trotter_step(xs, zs, *step_constants(fisheries, 1e-3))
    assert out.shape == xs.shape
    assert np.all(out > 0)


def test_sample_determinism_and_seed_sensitivity(fisheries):
    cfg = SimConfig(problem=UP4, paths=300, dt=2e-3, horizon=60.0, seed=99)
    s1 = sample_fpt(fisheries, cfg)
    s2 = sample_fpt(fisheries, cfg)
    assert np.array_equal(s1.times, s2.times)
    assert s1.censored == s2.censored
    s3 = sample_fpt(fisheries, SimConfig(problem=UP4, paths=300, dt=2e-3,
                                         horizon=60.0, seed=100))
    assert not np.array_equal(s1.times, s3.times)


def test_batching_does_not_change_results(fisheries, monkeypatch):
    # per-path streams make the output independent of internal batch layout
    cfg = SimConfig(problem=UP4, paths=60, dt=5e-3, horizon=40.0, seed=123)
    reference = sample_fpt(fisheries, cfg)
    import logifpt.montecarlo as mc

    monkeypatch.setattr(mc, "_BATCH", 7)
    shuffled = sample_fpt(fisheries, cfg)
    assert np.array_equal(reference.times, shuffled.times)
    assert reference.censored == shuffled.censored


def test_degenerate_threshold(fisheries):
    cfg = SimConfig(problem=FptProblem(Direction.UP, FISHERIES["x0"]),
                    paths=50, dt=1e-2, horizon=1.0, seed=1)
    s = sample_fpt(fisheries, cfg)
    assert np.all(s.times == 0.0)
    assert s.censored == 0


def test_small_noise_concentrates_at_deterministic_time():
    p = ModelParams(**{**FISHERIES, "sigma": 1e-4})
    d = derive_params(p)
    prob = FptProblem(Direction.UP, 150.0)
    cfg = SimConfig(problem=prob, paths=64, dt=1e-3, horizon=10.0, seed=5)
    s = sample_fpt(d, cfg)
    # invert the closed-form drift flow for the crossing time
    r1 = float(d.r1)
    K1 = float(d.K1)
    t_star = math.log(150.0 * (K1 - 100.0) / (100.0 * (K1 - 150.0))) / r1
    assert s.censored == 0
    assert np.all(np.abs(s.times - t_star) < 0.02)


def test_sample_matches_analytics_mean(fisheries):
    cfg = SimConfig(problem=UP4, paths=3000, dt=1e-3, horizon=60.0, seed=7)
    s = sample_fpt(fisheries, cfg)
    target = float(fpt_moments(fisheries, UP4, 1).mean)
    se = float(np.std(s.times, ddof=1)) / math.sqrt(s.n)
    assert s.censored == 0
    assert abs(float(np.mean(s.times)) - target) < 3 * se


def test_downcrossing_sampling():
    p = ModelParams(**{**FISHERIES, "x0": 6.0e7})
    d = derive_params(p)
    prob = FptProblem(Direction.DOWN, 3.91e7)
    cfg = SimConfig(problem=prob, paths=800, dt=1e-3, horizon=80.0, seed=11)
    s = sample_fpt(d, cfg)
    target = float(fpt_moments(d, prob, 1).mean)
    observed = float(np.mean(s.times))
    se = float(np.std(s.times, ddof=1)) / math.sqrt(s.n)
    # censoring is rare here but biases slightly low; allow it in the band
    assert s.censored_fraction < 0.01
    assert abs(observed - target) < 4 * se


def test_interpolation_reduces_grid_bias(fisheries):
    base = dict(problem=UP4, paths=1500, dt=5e-3, horizon=60.0, seed=3)
    interp = sample_fpt(fisheries, SimConfig(**base, interpolate_crossing=True))
    grid = sample_fpt(fisheries, SimConfig(**base, interpolate_crossing=False))
    target = float(fpt_moments(fisheries, UP4, 1).mean)
    # grid detection always overshoots by up to one step
    assert np.all(grid.times >= interp.times - 1e-12)
    assert abs(np.mean(interp.times) - target) < abs(np.mean(grid.times) - target)


def test_dt_refinement(fisheries, fisheries_mc_sample):
    # halving the step (2e-3 -> the benchmark's 1e-3) moves the sample mean
    # by less than one standard error at 1e5 paths
    coarse = sample_fpt(fisheries, SimConfig(problem=UP4, paths=100_000, dt=2e-3,
                                             horizon=60.0, seed=20240))
    fine = fisheries_mc_sample
    se = float(np.std(fine.times, ddof=1)) / math.sqrt(fine.n)
    assert abs(float(np.mean(coarse.times)) - float(np.mean(fine.times))) < se


def test_empirical_moments_and_errors(fisheries):
    cfg = SimConfig(problem=UP4, paths=10, dt=1e-2, horizon=60.0, seed=2)
    s = sample_fpt(fisheries, cfg)
    ms = empirical_moments(s, 2)
    assert float(ms.moments[0]) == pytest.approx(float(np.mean(s.times)))
    single = type(s)(times=np.array([4.2]), censored=0, config=cfg)
    m1 = empirical_moments(single, 2)
    assert float(m1.moments[0]) == pytest.approx(4.2)
    assert float(m1.moments[1]) == pytest.approx(4.2 ** 2)  # raw second moment
    empty = type(s)(times=np.empty(0), censored=10, config=cfg)
    with pytest.raises(EmptySample):
        empirical_moments(empty, 1)


def test_kde_integrates_to_one(fisheries):
    cfg = SimConfig(problem=UP4, paths=2000, dt=2e-3, horizon=60.0, seed=13)
    s = sample_fpt(fisheries, cfg)
    grid = np.linspace(0.0, 40.0, 2001)
    dens = kde(s, grid)
    mass = np.trapezoid(dens, grid)
    assert abs(mass - 1.0) < 1e-3
    h = silverman_bandwidth(s.times)
    sd = np.std(s.times, ddof=1)
    iqr = np.subtract(*np.percentile(s.times, [75, 25]))
    assert h == pytest.approx(0.9 * min(sd, iqr / 1.34) * s.n ** -0.2)


def test_stationary_check(fisheries):
    out = stationary_check(fisheries, paths=64, steps=20000, dt=0.01, seed=3)
    assert out["rel_deviation"] < 0.05
    assert rel_err(out["target_mean"], float(fisheries.rho) / float(fisheries.v)) < 1e-12


def test_csv_round_trip(tmp_path, fisheries):
    cfg = SimConfig(problem=UP4, paths=25, dt=1e-2, horizon=60.0, seed=17)
    s = sample_fpt(fisheries, cfg)
    path = tmp_path / "sample.csv"
    write_samples_csv(s, path)
    back = read_samples_csv(path)
    assert np.array_equal(back.times, s.times)
    assert back.censored == s.censored
    assert back.config == s.config
    assert back.model == s.model
    with pytest.raises(InvalidParams):
        read_samples_csv(__file__)
    path.write_text(path.read_text().splitlines()[0] + "\n")
    with pytest.raises(InvalidParams):
        read_samples_csv(path)


@pytest.mark.parametrize("line, value", [(4, "nan"), (4, "-1.5"), (4, "inf"),
                                         (2, "# censored: -1"), (2, "# censored: 999999")])
def test_invalid_sample_file_rejected(tmp_path, fisheries, line, value):
    cfg = SimConfig(problem=UP4, paths=25, dt=1e-2, horizon=60.0, seed=17)
    path = tmp_path / "sample.csv"
    write_samples_csv(sample_fpt(fisheries, cfg), path)
    lines = path.read_text().splitlines()
    lines[line] = value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidParams):
        read_samples_csv(path)


def test_config_validation():
    with pytest.raises(InvalidParams):
        SimConfig(problem=UP4, paths=0, dt=1e-3, horizon=1.0, seed=0)
    with pytest.raises(InvalidParams):
        SimConfig(problem=UP4, paths=1, dt=0.0, horizon=1.0, seed=0)
    with pytest.raises(InvalidParams):
        SimConfig(problem=UP4, paths=1, dt=0.5, horizon=0.5, seed=0)
