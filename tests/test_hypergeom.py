import mpmath
import pytest
from mpmath import mp, mpf

from logifpt import (Direction, FptProblem, fd_moments, fpt_moments, kummer_phi,
                     laplace_transform, tricomi_psi)
from logifpt.errors import BadParameterB, QuadratureFailure, StencilFailure
from logifpt.hypergeom import _psi_any
from tests.conftest import FISHERIES, fisheries_at

UP4 = FptProblem(Direction.UP, 1e4)


def test_kummer_basics():
    with mp.workprec(256):
        assert kummer_phi(1.7, 2.3, 0.0) == 1
        z = mpf("0.7")
        assert abs(kummer_phi(1.0, 1.0, z, tol=1e-70) - mpmath.e ** z) < mpf("1e-60")
        # (e^z - 1)/z identity at z = 1
        assert abs(kummer_phi(1.0, 2.0, 1.0, tol=1e-70) - (mpmath.e - 1)) < mpf("1e-60")
        assert float(kummer_phi(1.0, 2.0, 1.0)) == pytest.approx(1.718281828, abs=1e-9)


def test_kummer_against_reference():
    with mp.workprec(256):
        for (a, b, z) in [(-8.6, 18.25, 4.41), (0.3, 1.7, -2.5), (2.0, 5.5, 17.2)]:
            mine = kummer_phi(a, b, z)
            ref = mpmath.hyp1f1(mpf(a), mpf(b), mpf(z))
            assert abs(mine / ref - 1) < mpf("1e-35")


def test_kummer_bad_b():
    with pytest.raises(BadParameterB):
        kummer_phi(1.0, 0.0, 2.0)
    with pytest.raises(BadParameterB):
        kummer_phi(1.0, -3.0, 2.0)


def test_tricomi_identities():
    with mp.workprec(256):
        # psi(a, a+1, z) = z^-a
        for (a, z) in [(0.5, 2.0), (1.25, 8.87)]:
            got = tricomi_psi(a, a + 1, z)
            assert abs(got - mpf(z) ** (-a)) < mpf("1e-35") * abs(got)
        assert tricomi_psi(0.0, 5.0, 3.0) == 1
        # e * E1(1)
        got = tricomi_psi(1.0, 1.0, 1.0)
        assert float(got) == pytest.approx(0.5963473623, abs=1e-9)


def test_tricomi_against_reference_and_recurrence():
    with mp.workprec(300):
        for (a, b, z) in [(1e-6, 18.25, 8.87), (0.3, 2.5, 4.41), (2.2, -3.5, 17.2)]:
            mine = tricomi_psi(a, b, z)
            ref = mpmath.hyperu(mpf(a), mpf(b), mpf(z))
            assert abs(mine / ref - 1) < mpf("1e-35")
        for (a, b, z) in [(-0.01, 18.3, 8.87), (-0.4, 2.5, 4.41)]:
            mine = _psi_any(a, b, z)
            ref = mpmath.hyperu(mpf(a), mpf(b), mpf(z))
            assert abs(mine / ref - 1) < mpf("1e-30")


def test_tricomi_domain_errors():
    with pytest.raises(QuadratureFailure):
        tricomi_psi(0.5, 1.0, -1.0)
    with pytest.raises(QuadratureFailure):
        tricomi_psi(-0.5, 1.0, 1.0)
    with pytest.raises(QuadratureFailure):
        _psi_any(-1.5, 1.0, 1.0)


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
