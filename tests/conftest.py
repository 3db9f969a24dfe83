import time
from dataclasses import dataclass

import numpy as np
import pytest

from logifpt import (DerivedParams, Direction, FptProblem, ModelParams, SimConfig,
                     derive_params, sample_fpt)

# base parameter set used throughout: large-scale harvested population
FISHERIES = dict(r=0.71, K=8.05e7, q=3.30e-6, E=104540.0, sigma=0.2, x0=100.0)


def fisheries_at(x0: float) -> DerivedParams:
    return derive_params(ModelParams(**{**FISHERIES, "x0": x0}))


def drift_at(u_value, precision=256, x0=10.0):
    """Derived parameters whose drift index is u_value rounded to precision."""
    sigma = 1.0
    r1 = sigma ** 2 * (1 - 2 * u_value) / 2
    return derive_params(ModelParams(r=r1, K=1000.0, q=0.0, E=0.0, sigma=sigma, x0=x0),
                         precision=precision)


@pytest.fixture(scope="session")
def fisheries_params() -> ModelParams:
    return ModelParams(**FISHERIES)


@pytest.fixture(scope="session")
def fisheries(fisheries_params) -> DerivedParams:
    return derive_params(fisheries_params)


def fisheries_like(r, sigma, up, at_x0, at_threshold):
    """(derived, problem) at a fisheries-like point.

    derive_params raises NonPersistentRegime where rho <= 0, which needs
    sigma^2 >= 2 (r - qE), qE = 0.345.
    """
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


def scenario_grid():
    """Six golden scenarios: three up, three down, spanning v*y from ~1e-3 to ~26."""
    return [
        ("up_1e4", fisheries_at(100.0), FptProblem(Direction.UP, 1e4)),
        ("up_1e5", fisheries_at(100.0), FptProblem(Direction.UP, 1e5)),
        ("up_large", fisheries_at(2.01e7), FptProblem(Direction.UP, 3.91e7)),
        ("down_deep", fisheries_at(3.91e7), FptProblem(Direction.DOWN, 2.01e7)),
        ("down_mid", fisheries_at(3.91e7), FptProblem(Direction.DOWN, 2.8e7)),
        ("down_high", fisheries_at(6.0e7), FptProblem(Direction.DOWN, 3.91e7)),
    ]


@pytest.fixture(scope="session")
def scenarios():
    return scenario_grid()


@dataclass(frozen=True)
class OracleRun:
    moments: dict    # golden scenario name -> its Cauchy-integral MomentSet, orders 1-10
    seconds: float   # wall time to compute all six


@pytest.fixture(scope="session")
def oracle_moments(scenarios) -> OracleRun:
    """The oracle moments of the golden scenarios, computed once per session."""
    from tests.oracles import cauchy_moments

    t0 = time.monotonic()
    sets = {name: cauchy_moments(d, prob, 10) for name, d, prob in scenarios}
    return OracleRun(sets, time.monotonic() - t0)


@pytest.fixture(scope="session")
def fisheries_mc_sample(fisheries):
    """The big benchmark run shared by the Monte Carlo and density criteria."""
    cfg = SimConfig(problem=FptProblem(Direction.UP, 1e4), paths=100_000,
                    dt=1e-3, horizon=60.0, seed=20240)
    return sample_fpt(fisheries, cfg)


def rel_err(a, b) -> float:
    """|a-b| / |b| with a guard for b = 0."""
    a = float(a)
    b = float(b)
    if b == 0:
        return abs(a)
    return abs(a - b) / abs(b)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
