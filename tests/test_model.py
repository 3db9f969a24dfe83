import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from logifpt import (Direction, FptProblem, ModelParams, derive_params,
                     validate_problem)
from logifpt.errors import (InvalidHarvest, InvalidParams, NonPersistentRegime,
                            WrongSide)
from tests.conftest import FISHERIES, rel_err


def test_fisheries_derived_values(fisheries):
    f = fisheries.floats()
    assert rel_err(f["r1"], 0.3650180) < 1e-6
    assert rel_err(f["K1"], 4.13858e7) < 1e-5
    assert rel_err(f["u"], -8.625450) < 1e-6
    assert rel_err(f["v"], 4.41024e-7) < 1e-4
    assert rel_err(f["a"], 0.672057) < 1e-5
    assert rel_err(f["rho"], 17.25090) < 1e-6


def test_no_harvest_collapses_to_plain_logistic():
    p = ModelParams(r=0.8, K=500.0, q=0.0, E=0.0, sigma=0.3, x0=50.0)
    d = derive_params(p)
    assert float(d.r1) == 0.8
    assert float(d.K1) == 500.0
    assert rel_err(d.rho, 2 * 0.8 / 0.09 - 1) < 1e-15
    # stationary rate reduces to 2r/(K sigma^2)
    assert rel_err(d.v, 2 * 0.8 / (500.0 * 0.09)) < 1e-15


def test_persistence_boundary_rejected():
    with pytest.raises(NonPersistentRegime):
        derive_params(ModelParams(r=0.5, K=1000.0, q=0.0, E=0.0, sigma=1.0, x0=100.0))


@pytest.mark.parametrize("precision", [52, 0, -1])
def test_precision_below_double_is_refused(fisheries_params, precision):
    # every output is written as a double, so 53 bits is the least precision
    with pytest.raises(InvalidParams, match="precision"):
        derive_params(fisheries_params, precision=precision)
    assert derive_params(fisheries_params, precision=53).precision == 53


def test_invalid_harvest():
    with pytest.raises(InvalidHarvest):
        ModelParams(r=0.5, K=1000.0, q=0.1, E=10.0, sigma=0.2, x0=100.0)


@pytest.mark.parametrize("field,value", [
    ("r", 0.0), ("K", -1.0), ("sigma", 0.0), ("x0", -5.0), ("q", -0.1), ("E", -2.0),
])
def test_invalid_fields(field, value):
    with pytest.raises(InvalidParams):
        ModelParams(**{**FISHERIES, field: value})


@pytest.mark.parametrize("build", [
    pytest.param(lambda: ModelParams(**{**FISHERIES, "q": math.nan}), id="q=nan"),
    pytest.param(lambda: ModelParams(**{**FISHERIES, "E": math.nan}), id="E=nan"),
    pytest.param(lambda: ModelParams(**{**FISHERIES, "r": math.inf}), id="r=inf"),
    pytest.param(lambda: ModelParams(**{**FISHERIES, "K": math.inf}), id="K=inf"),
    pytest.param(lambda: FptProblem(Direction.UP, math.inf), id="threshold=inf"),
])
def test_nonfinite_inputs_rejected(build):
    with pytest.raises(InvalidParams):
        build()


def test_nan_persistence_index_rejected():
    # a NaN reaching derive_params must not pass the rho > 0 guard
    p = ModelParams(**FISHERIES)
    object.__setattr__(p, "sigma", math.nan)
    with pytest.raises(NonPersistentRegime):
        derive_params(p)


def test_from_dict_missing_key():
    bad = dict(FISHERIES)
    del bad["sigma"]
    with pytest.raises(InvalidParams):
        ModelParams.from_dict(bad)


@pytest.mark.parametrize("value", ["8.05e7", True, None, [8.05e7], 10 ** 400])
def test_from_dict_takes_numbers_only(value):
    """The rule of every JSON input: a quoted number, a boolean, null, a list
    or an integer beyond the range of a float is an input error."""
    with pytest.raises(InvalidParams, match="parameter K"):
        ModelParams.from_dict({**FISHERIES, "K": value})


def test_from_dict_keeps_numpy_numbers():
    """The likelihood assembles its candidates from numpy floats; other numpy
    numbers pass too."""
    got = ModelParams.from_dict({**{k: np.float64(v) for k, v in FISHERIES.items()},
                                 "x0": np.int64(FISHERIES["x0"])})
    assert got == ModelParams(**FISHERIES)
    assert all(type(v) is float for v in got.to_dict().values())


@given(st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.05, max_value=0.6),
       st.floats(min_value=10.0, max_value=1e6))
@settings(max_examples=100, deadline=None)
def test_rho_is_minus_two_u(r, sigma, K):
    if 2 * r / sigma ** 2 <= 1:
        return
    d = derive_params(ModelParams(r=r, K=K, q=0.0, E=0.0, sigma=sigma, x0=K / 2))
    with mp.workprec(300):
        assert abs(d.rho + 2 * d.u) < mpf("1e-70") * abs(d.rho)
    assert d.a > 0 and d.v > 0 and d.K1 > 0


def test_derive_is_pure(fisheries_params):
    d1 = derive_params(fisheries_params)
    d2 = derive_params(fisheries_params)
    for k in ("r1", "K1", "u", "v", "a", "rho"):
        assert getattr(d1, k) == getattr(d2, k)


def test_validate_problem_cases(fisheries):
    assert validate_problem(fisheries, FptProblem(Direction.UP, 150.0)) is False
    assert validate_problem(fisheries, FptProblem(Direction.UP, 100.0)) is True
    with pytest.raises(WrongSide):
        validate_problem(fisheries, FptProblem(Direction.UP, 50.0))
    with pytest.raises(WrongSide):
        validate_problem(fisheries, FptProblem(Direction.DOWN, 150.0))
    assert validate_problem(fisheries, FptProblem(Direction.DOWN, 50.0)) is False
    with pytest.raises(InvalidParams):
        FptProblem(Direction.UP, -3.0)
