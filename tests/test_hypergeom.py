import mpmath
import pytest
from mpmath import mp, mpc, mpf

from logifpt import (Direction, FptProblem, ModelParams, derive_params, fpt_moments,
                     laplace_transform)
from logifpt.errors import TransformFailure
from tests.conftest import FISHERIES, fisheries_at, scenario_grid
from tests.oracles import cauchy_moments, singularity_distance

UP4 = FptProblem(Direction.UP, 1e4)

# orders 1-4 of the downcrossing golden scenarios, as an earlier oracle gave
# them when it integrated Tricomi's function by a 350-bit quadrature of its own
DOWN_ORACLE = {
    "down_deep": ("90.04395424634922496302023968385803231324686787",
                  "15855.61362883547646531767770120367817896582166",
                  "4186670.810561705060054583524953824201810579008",
                  "1473981366.278063226604046639959726041328833273"),
    "down_mid": ("10.44336747991835635475856188499601040537400525",
                 "224.4635076168956971272759100245547900889298154",
                 "7335.957972681289158234402677100122835461715947",
                 "320344.2468530838967984549612776756787974487181"),
    "down_high": ("3.416377806537418769000866118132999732815661713",
                  "17.93967390556833698482123063914144366229070327",
                  "133.2959804165885077270731431723124673002934392",
                  "1302.161098794703906683503780984942375001336245"),
}


def golden(direction):
    return [pytest.param(name, d, prob, id=name) for name, d, prob in scenario_grid()
            if prob.direction is direction]


def assert_within(got, want, tol):
    with mp.workprec(512):
        rels = [abs(a / mpf(b) - 1) for a, b in zip(got, want)]
    assert max(rels) < mpf(tol), [mpmath.nstr(r, 3) for r in rels]


@pytest.mark.parametrize("name, d, prob", golden(Direction.UP))
def test_upcrossing_oracle_matches_the_series(oracle_moments, name, d, prob):
    assert_within(oracle_moments.moments[name].moments[:4], fpt_moments(d, prob, 4).moments,
                  "1e-30")


@pytest.mark.parametrize("name, d, prob", golden(Direction.DOWN))
def test_downcrossing_oracle_is_pinned(oracle_moments, name, d, prob):
    assert_within(oracle_moments.moments[name].moments[:4], DOWN_ORACLE[name], "1e-30")


@pytest.mark.parametrize("name, d, prob", golden(Direction.UP) + golden(Direction.DOWN))
def test_oracle_checks_every_order(oracle_moments, name, d, prob):
    """Orders 1-10.  Upcrossing, the gap is the series' own truncation error
    at L_SERIES_TOL (worst 8.5e-33, on up_large); downcrossing, the series'
    true error (at most 6.1e-9, on down_deep) lies within its estimate."""
    ms = fpt_moments(d, prob, 10)
    with mp.workprec(512):
        rels = [abs(a / b - 1) for a, b in zip(oracle_moments.moments[name].moments, ms.moments)]
    if prob.direction is Direction.UP:
        assert max(rels) < mpf("1e-31"), [mpmath.nstr(r, 3) for r in rels]
    else:
        assert all(r <= e for r, e in zip(rels, ms.error_estimates)), (
            [mpmath.nstr(r, 3) for r in rels], [mpmath.nstr(e, 3) for e in ms.error_estimates])


def test_oracle_finds_a_near_pole():
    """Fisheries K, q and E with sigma 0.577 and r 6.63, from 4e7 down to
    2.5e7: the transform's pole lies near lam = -1.5e-6, far inside the
    branch point, and the scan stops one halving short of it."""
    params = ModelParams(**{**FISHERIES, "sigma": 0.577, "r": 6.63, "x0": 4e7})
    ms = cauchy_moments(derive_params(params), FptProblem(Direction.DOWN, 2.5e7), 2)
    assert_within(ms.moments, ("6.503e5", "8.457e11"), "1e-3")


def test_transform_at_zero_and_degenerate(fisheries):
    assert laplace_transform(fisheries, UP4, 0.0) == 1
    degenerate = FptProblem(Direction.UP, FISHERIES["x0"])
    for lam in (0.0, 0.05, 1.0):
        assert laplace_transform(fisheries, degenerate, lam) == 1


def test_transform_bounds_monotone_logconvex(fisheries):
    lams = [0.02 * k for k in range(11)]
    vals = [laplace_transform(fisheries, UP4, lam) for lam in lams]
    assert all(0 < v <= 1 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))  # strictly decreasing
    with mp.workprec(300):
        logs = [mpmath.log(v) for v in vals]
        # midpoint convexity of log g on the uniform grid
        for i in range(1, len(logs) - 1):
            assert logs[i] <= (logs[i - 1] + logs[i + 1]) / 2 + mpf("1e-30")


def test_transform_down_direction():
    d = fisheries_at(3.91e7)
    prob = FptProblem(Direction.DOWN, 2.8e7)
    vals = [laplace_transform(d, prob, lam) for lam in (0.0, 0.01, 0.05)]
    assert vals[0] == 1
    assert all(0 < v <= 1 for v in vals)
    assert vals[1] > vals[2]


def test_transform_outside_analyticity_region(fisheries):
    for lam in (-10.0, -1.5, mpc(-1.5, 0)):  # fisheries: -1/a = -1.488
        with pytest.raises(TransformFailure, match="needs lam > -1/a"):
            laplace_transform(fisheries, UP4, lam)


@pytest.mark.parametrize("x0, prob", [(100.0, UP4), (3.91e7, FptProblem(Direction.DOWN, 2.8e7))],
                         ids=["up_1e4", "down_mid"])
def test_transform_at_complex_lam(x0, prob):
    """On the oracle's circle |lam| = R/16 the transform is real on the real
    axis, so phi(conj lam) = conj phi(lam); a real lam given as a complex
    number takes the real path."""
    d = fisheries_at(x0)
    radius = singularity_distance(d, prob) / 16
    with mp.workprec(512):
        for turn in ("1/8", "3/8", "7/8"):
            lam = radius * mpmath.expjpi(mpf(turn))
            value = laplace_transform(d, prob, lam)
            assert abs(value.imag) > 0
            mirrored = laplace_transform(d, prob, mpmath.conj(lam))
            assert abs(mirrored - mpmath.conj(value)) <= mpf("1e-150") * abs(value)
        for lam in (radius, -radius):
            assert laplace_transform(d, prob, mpc(lam, 0)) == laplace_transform(d, prob, lam)


@pytest.mark.parametrize("lam", [-0.1, -0.25])
def test_transform_refuses_values_past_the_pole(lam):
    """Fisheries from 3.91e7 down to 2.8e7: the ratio of U functions has a
    pole between lam = -0.05 and -0.1, and beyond it gives -10.1 at -0.1 and
    -0.40 at -0.25, which no E[exp(-lam T)] can be."""
    prob = FptProblem(Direction.DOWN, 2.8e7)
    with pytest.raises(TransformFailure, match="not E"):
        laplace_transform(fisheries_at(3.91e7), prob, lam)


def test_series_matches_direct_evaluation(fisheries):
    # transform reconstructed from 16 moments agrees with the direct value
    ms = fpt_moments(fisheries, UP4, 16)
    lam = mpf("0.05")
    with mp.workprec(300):
        acc = mpf(1)
        for k in range(1, 17):
            acc += (-1) ** k * ms.moments[k - 1] * lam ** k / mpmath.factorial(k)
        direct = laplace_transform(fisheries, UP4, lam)
        assert abs(acc / direct - 1) < mpf("1e-8")


def test_cauchy_moments_degenerate(fisheries):
    prob = FptProblem(Direction.UP, FISHERIES["x0"])
    ms = cauchy_moments(fisheries, prob, 4)
    assert ms.moments == (0,) * 4


def test_cauchy_moments_fisheries_mean(fisheries):
    ms = cauchy_moments(fisheries, UP4, 4)
    assert abs(float(ms.moments[0]) - 13.35) < 1e-4 + 0.0017  # table value is rounded
    series = fpt_moments(fisheries, UP4, 4)
    with mp.workprec(300):
        for a, b in zip(ms.moments, series.moments):
            assert abs(a / b - 1) < mpf("1e-6")
