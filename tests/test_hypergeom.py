import mpmath
import pytest
from mpmath import mp, mpf

from logifpt import Direction, FptProblem, fpt_moments, laplace_transform
from logifpt.errors import StencilFailure
from tests.conftest import FISHERIES, fisheries_at, scenario_grid
from tests.oracles import fd_moments

UP4 = FptProblem(Direction.UP, 1e4)

# fd_moments of the downcrossing golden scenarios, as the oracle gave them
# when it integrated Tricomi's function by a 350-bit quadrature of its own
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
def test_upcrossing_oracle_matches_the_series(name, d, prob):
    assert_within(fd_moments(d, prob, 4).moments, fpt_moments(d, prob, 4).moments, "1e-30")


@pytest.mark.parametrize("name, d, prob", golden(Direction.DOWN))
def test_downcrossing_oracle_is_pinned(name, d, prob):
    assert_within(fd_moments(d, prob, 4).moments, DOWN_ORACLE[name], "1e-30")


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
    with pytest.raises(StencilFailure):
        laplace_transform(fisheries, UP4, -10.0)


@pytest.mark.parametrize("lam", [-0.1, -0.25])
def test_transform_refuses_values_past_the_pole(lam):
    """Fisheries from 3.91e7 down to 2.8e7: the ratio of U functions has a
    pole between lam = -0.05 and -0.1, and beyond it gives -10.1 at -0.1 and
    -0.40 at -0.25, which no E[exp(-lam T)] can be."""
    prob = FptProblem(Direction.DOWN, 2.8e7)
    with pytest.raises(StencilFailure, match="not E"):
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


def test_fd_moments_degenerate(fisheries):
    prob = FptProblem(Direction.UP, FISHERIES["x0"])
    ms = fd_moments(fisheries, prob, 4)
    assert ms.degenerate and all(m == 0 for m in ms.moments)


def test_fd_moments_fisheries_mean(fisheries):
    ms = fd_moments(fisheries, UP4, 4)
    assert abs(float(ms.moments[0]) - 13.35) < 1e-4 + 0.0017  # table value is rounded
    series = fpt_moments(fisheries, UP4, 4)
    with mp.workprec(300):
        for a, b in zip(ms.moments, series.moments):
            assert abs(a / b - 1) < mpf("1e-6")


def test_fd_moments_order_validation():
    with pytest.raises(ValueError):
        fd_moments(fisheries_at(100.0), UP4, order=7)
