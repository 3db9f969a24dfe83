import math
import re
import tracemalloc

import numpy as np
import pytest

from logifpt import (Direction, FptProblem, FptSample, ModelParams, SimConfig, derive_params,
                     empirical_moments, fpt_moments, kde, lie_trotter_step,
                     read_samples_csv, sample_fpt, step_constants,
                     write_samples_csv)
from logifpt.errors import EmptySample, InvalidParams, WrongSide
from logifpt.montecarlo import _drift_flow, _noise_factor, silverman_bandwidth
from tests.conftest import FISHERIES, rel_err
from tests.oracles import reference_sample_fpt, stationary_check

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


@pytest.mark.parametrize("x, z", [
    (100.0, 0.0), (1e-6, -8.0), (1e8, 8.0),
    (np.array([1e-6, 1.0, 1e8]), np.array([-8.0, 0.0, 8.0])),
    (np.geomspace(1e-3, 1e9, 257), np.linspace(-6.0, 6.0, 257)),
], ids=["scalar", "scalar-low", "scalar-high", "extremes", "vector"])
def test_step_is_drift_then_noise(fisheries, x, z):
    """lie_trotter_step is the drift sub-flow times the noise factor, bit for
    bit, whether the helpers allocate or write into the arrays given."""
    K1, grow, gm1, drift_corr, vol = consts = step_constants(fisheries, 1e-3)
    step = lie_trotter_step(x, z, *consts)
    closed_form = K1 * x * grow / (K1 + x * gm1) * np.exp(drift_corr + vol * z)
    assert np.array_equal(step, _drift_flow(x, K1, grow, gm1) * _noise_factor(z, drift_corr, vol))
    assert np.array_equal(step, closed_form)
    if np.ndim(x):
        drift, tmp, noise = np.empty_like(x), np.empty_like(x), z.copy()
        _drift_flow(x, K1, grow, gm1, out=drift, tmp=tmp)
        _noise_factor(noise, drift_corr, vol, out=noise)
        assert np.array_equal(step, drift * noise)


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


@pytest.mark.parametrize("x0, threshold, paths, dt, horizon, batch", [
    (100.0, 1e4, 300, 1e-2, 13.37, None),   # censored paths, chunks of 512, 512, 313
    (6.0e7, 3.91e7, 200, 1e-2, 5.3, None),  # downcrossing, censored, 530 steps
    (100.0, 1e4, 60, 1e-2, 13.37, 7),       # batches of 7, 7, ..., 4
], ids=["up", "down", "batches"])
def test_sample_matches_the_per_chunk_sampler(monkeypatch, x0, threshold, paths, dt,
                                              horizon, batch):
    """The time-major chunk draws, steps and finds crossings as the path-major
    sampler stepping one column at a time did, bit for bit."""
    import logifpt.montecarlo as mc

    if batch:
        monkeypatch.setattr(mc, "_BATCH", batch)
    d = derive_params(ModelParams(**{**FISHERIES, "x0": x0}))
    direction = Direction.UP if threshold > x0 else Direction.DOWN
    cfg = SimConfig(problem=FptProblem(direction, threshold), paths=paths, dt=dt,
                    horizon=horizon, seed=31)
    s, ref = sample_fpt(d, cfg), reference_sample_fpt(d, cfg)
    assert np.array_equal(s.times, ref.times)
    assert s.censored == ref.censored
    assert 0 < s.censored < paths and cfg.steps % mc._CHUNK


@pytest.mark.parametrize("x0, threshold", [(100.0, 101.0), (6.0e7, 5.94e7)],
                         ids=["up", "down"])
def test_crossings_at_chunk_edges(monkeypatch, x0, threshold):
    """Chunks of 5 steps over 12, scanned 2 rows at a time, and 301 paths,
    which no staging block of a power of two divides: paths cross on the
    run's first step, where the state before is x0, on the first step of
    each later chunk, where it is the previous chunk's last row, and on the
    last step before censoring."""
    import logifpt.montecarlo as mc

    monkeypatch.setattr(mc, "_CHUNK", 5)
    monkeypatch.setattr(mc, "_SCAN", 2)
    d = derive_params(ModelParams(**{**FISHERIES, "x0": x0}))
    direction = Direction.UP if threshold > x0 else Direction.DOWN
    cfg = SimConfig(problem=FptProblem(direction, threshold), paths=301, dt=1e-2,
                    horizon=0.12, seed=4)
    s, ref = sample_fpt(d, cfg), reference_sample_fpt(d, cfg)
    assert np.array_equal(s.times, ref.times)
    assert s.censored == ref.censored > 0
    step = np.floor(s.times / cfg.dt - 1e-9).astype(int)  # the step each path crossed on
    assert cfg.steps == 12 and {0, 5, 10, 11} <= set(step.tolist())


def test_sample_holds_one_normal_buffer(fisheries):
    """2048 paths over 4 chunks, all censored: the peak is the one time-major
    buffer of 512 x 2048 doubles (8 MiB), about 1 KB of generator per path
    and the small staging block and mask, below the two buffers that a
    chunk would hold drawing into a new array."""
    cfg = SimConfig(problem=UP4, paths=2048, dt=1e-3, horizon=1.6, seed=1)
    buffer = 2048 * 512 * 8
    tracemalloc.start()
    try:
        s = sample_fpt(fisheries, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s.censored == 2048 and cfg.steps > 3 * 512
    assert peak < 1.5 * buffer


def test_degenerate_threshold(fisheries):
    cfg = SimConfig(problem=FptProblem(Direction.UP, FISHERIES["x0"]),
                    paths=50, dt=1e-2, horizon=1.0, seed=1)
    s = sample_fpt(fisheries, cfg)
    assert np.all(s.times == 0.0)
    assert s.censored == 0


def test_wrong_side_is_rejected(fisheries):
    # x0 = 100 already lies above an upcrossing threshold of 50
    cfg = SimConfig(problem=FptProblem(Direction.UP, 50.0), paths=50, dt=1e-2,
                    horizon=1.0, seed=1)
    with pytest.raises(WrongSide):
        sample_fpt(fisheries, cfg)


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
    assert s.censored / cfg.paths < 0.01
    assert abs(observed - target) < 4 * se


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


def _synthetic_sample(n: int) -> FptSample:
    cfg = SimConfig(problem=UP4, paths=n, dt=1e-2, horizon=60.0, seed=0)
    return FptSample(times=np.random.default_rng(n).gamma(4.0, 2.0, n), censored=0,
                     config=cfg)


@pytest.mark.parametrize("n, block", [(1000, None), (1000, 3000), (1000, 256)],
                         ids=["default", "uneven", "below-n"])
def test_kde_blocks_do_not_change_a_bit(monkeypatch, n, block):
    """The grid in blocks of _KDE_BLOCK // n points, or one point when n
    exceeds the block, gives the one-block evaluation exactly."""
    import logifpt.montecarlo as mc

    s = _synthetic_sample(n)
    grid = np.linspace(-2.0, 38.0, 801)
    if block:
        monkeypatch.setattr(mc, "_KDE_BLOCK", block)
    blocked = kde(s, grid)
    monkeypatch.setattr(mc, "_KDE_BLOCK", len(grid) * n)
    whole = kde(s, grid)
    assert np.array_equal(blocked, whole)
    assert np.all(blocked[grid < 0] == 0) and np.all(blocked[grid > 0] > 0)


def test_kde_memory_is_bounded():
    """1e5 times on 801 points: a block is one grid point, so each temporary
    is one row of 1e5 doubles (0.8 MB) and the peak a few of them."""
    s = _synthetic_sample(100_000)
    grid = np.linspace(0.0, 40.0, 801)
    tracemalloc.start()
    try:
        kde(s, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


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


@pytest.mark.parametrize("edit", [
    lambda good: [], lambda good: None, lambda good: {k: good[k] for k in good if k != "seed"},
    *(lambda good, change=change: {**good, **change} for change in (
        {"paths": None}, {"paths": 5.7}, {"paths": True}, {"seed": 1.5},
        {"threshold": "far"}, {"dt": None}, {"direction": "sideways"},
        {"threshold": "1e4"}, {"horizon": True}, {"dt": 10 ** 400}))])
def test_sim_config_from_dict_refuses_what_to_dict_never_writes(edit):
    good = SimConfig(problem=UP4, paths=25, dt=1e-2, horizon=60.0, seed=17).to_dict()
    assert SimConfig.from_dict(good).to_dict() == good
    with pytest.raises(InvalidParams):
        SimConfig.from_dict(edit(good))


@pytest.mark.parametrize("line, value", [(4, "nan"), (4, "-1.5"), (4, "inf"), (4, "abc"),
                                         (2, "# censored: -1"), (2, "# censored: 999999"),
                                         (2, "# censored: 1.5"), (2, "# censored: x"),
                                         (1, "# config: {bad")])
def test_invalid_sample_file_rejected(tmp_path, fisheries, line, value):
    cfg = SimConfig(problem=UP4, paths=25, dt=1e-2, horizon=60.0, seed=17)
    path = tmp_path / "sample.csv"
    write_samples_csv(sample_fpt(fisheries, cfg), path)
    lines = path.read_text().splitlines()
    lines[line] = value
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidParams, match=re.escape(str(path))):
        read_samples_csv(path)


def test_config_validation():
    with pytest.raises(InvalidParams):
        SimConfig(problem=UP4, paths=0, dt=1e-3, horizon=1.0, seed=0)
    with pytest.raises(InvalidParams):
        SimConfig(problem=UP4, paths=1, dt=0.0, horizon=1.0, seed=0)
    with pytest.raises(InvalidParams):
        SimConfig(problem=UP4, paths=1, dt=0.5, horizon=0.5, seed=0)
    for dt, horizon in ((1e-3, math.inf), (math.inf, 1.0), (math.inf, math.inf)):
        with pytest.raises(InvalidParams, match="finite"):
            SimConfig(problem=UP4, paths=1, dt=dt, horizon=horizon, seed=0)


@pytest.mark.parametrize("horizon, dt, steps", [
    (0.07, 0.01, 7), (2.1, 0.7, 3), (0.3001, 1e-3, 301), (60.0, 1e-3, 60000),
    (20.0, 1e-3, 20000), (13.37, 1e-2, 1337), (0.105, 0.01, 11)])
def test_steps_do_not_run_past_the_horizon(horizon, dt, steps):
    """horizon / dt rounded a few ulps above a whole number adds no step
    (0.07 / 0.01 = 7.000000000000001); a true fraction still rounds up."""
    cfg = SimConfig(problem=UP4, paths=1, dt=dt, horizon=horizon, seed=0)
    assert cfg.steps == steps
    assert cfg.censor_time == steps * dt


def test_steps_are_the_ceiling_of_the_decimal_quotient():
    """On a grid of decimal horizons and steps, steps is the exact ceiling of
    their quotient as decimals."""
    from fractions import Fraction

    for h in (f"{a}.{b:02d}" for a in range(12) for b in range(0, 100, 3)):
        for dt in ("0.001", "0.003", "0.01", "0.07", "0.1", "0.3", "0.7"):
            if float(dt) < float(h):
                cfg = SimConfig(problem=UP4, paths=1, dt=float(dt), horizon=float(h), seed=0)
                assert cfg.steps == math.ceil(Fraction(h) / Fraction(dt)), (h, dt)


def test_sample_file_from_before_the_grid_point_mode_is_read(tmp_path, fisheries):
    """Older files name interpolate_crossing in their config; it is ignored."""
    cfg = SimConfig(problem=UP4, paths=4, dt=1e-2, horizon=60.0, seed=17)
    path = tmp_path / "sample.csv"
    s = sample_fpt(fisheries, cfg)
    write_samples_csv(s, path)
    text = path.read_text()
    assert "interpolate_crossing" not in text
    path.write_text(text.replace('"horizon": 60.0',
                                 '"horizon": 60.0, "interpolate_crossing": true'))
    back = read_samples_csv(path)
    assert back.config == cfg and np.array_equal(back.times, s.times)


def test_sample_file_with_an_infinite_horizon_rejected(tmp_path, fisheries):
    """ceil(horizon / dt) would overflow; the file is refused as input."""
    cfg = SimConfig(problem=UP4, paths=4, dt=1e-2, horizon=60.0, seed=17)
    path = tmp_path / "sample.csv"
    write_samples_csv(sample_fpt(fisheries, cfg), path)
    path.write_text(path.read_text().replace('"horizon": 60.0', '"horizon": Infinity'))
    with pytest.raises(InvalidParams, match="finite"):
        read_samples_csv(path)
