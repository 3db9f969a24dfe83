import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from logifpt.errors import NonPositiveConstantTerm, ZeroConstantTerm
from logifpt.series import (ExpSeries, binomial_series, log_polynomials, series_exp,
                            series_product, series_ratio)
from tests.oracles import (bell_partial, bell_partial_table, falling_factorial, identity,
                           rising_factorial, series_log, series_reciprocal,
                           series_reciprocal_bell, stirling1_unsigned)

PREC = 256


def close(a, b, rtol=mpf("1e-20"), atol=mpf("1e-25")):
    a, b = mpf(a), mpf(b)
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def set_partitions(items):
    """All set partitions, for the brute-force Bell oracle."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def bell_brute(n, k, b):
    """B_{n,k} by enumerating partitions of {1..n} into k blocks."""
    total = 0
    for part in set_partitions(list(range(n))):
        if len(part) == k:
            prod = 1
            for block in part:
                prod *= b[len(block) - 1]
            total += prod
    return total


# ---------------------------------------------------------------- stirling

def test_stirling_examples():
    assert stirling1_unsigned(0, 0) == 1
    for n in range(1, 8):
        assert stirling1_unsigned(n, n) == 1
    assert stirling1_unsigned(3, 1) == 2
    assert stirling1_unsigned(4, 2) == 11  # from the recurrence: 3*3 + 2


def test_stirling_row_sums_are_factorials():
    for n in range(31):
        assert sum(stirling1_unsigned(n, j) for j in range(n + 1)) == math.factorial(n)


def test_stirling_out_of_range():
    with pytest.raises(IndexError):
        stirling1_unsigned(3, 4)
    with pytest.raises(IndexError):
        stirling1_unsigned(-1, 0)
    with pytest.raises(IndexError):
        stirling1_unsigned(600, 2)


@given(st.fractions(min_value=-50, max_value=50), st.integers(min_value=0, max_value=25))
@settings(max_examples=100, deadline=None)
def test_rising_factorial_stirling_identity(x, n):
    # <x>_n = sum_j s(n, j) x^j, exactly in rational arithmetic
    direct = rising_factorial(x, n)
    bysum = sum(stirling1_unsigned(n, j) * x ** j for j in range(n + 1))
    assert direct == bysum


def test_factorial_examples():
    assert falling_factorial(Fraction(1, 2), 1) == Fraction(1, 2)
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert rising_factorial(0, 0) == 1
    for n in range(1, 5):
        assert rising_factorial(0, n) == 0
    assert falling_factorial(5, 0) == 1


# ---------------------------------------------------------------- bell

def test_bell_identity_rows():
    b = [3, 5, 7, 11, 13]
    for n in range(1, 6):
        assert bell_partial(n, 1, b) == b[n - 1]
        assert bell_partial(n, n, b) == b[0] ** n


def test_bell_4_2_closed_form():
    b = [2, 3, 5]
    assert bell_partial(4, 2, b) == 4 * b[0] * b[2] + 3 * b[1] ** 2


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=8, max_size=8))
@settings(max_examples=60, deadline=None)
def test_bell_matches_partition_enumeration(b):
    table = bell_partial_table(b, 8)
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert table[n][k] == bell_brute(n, k, b)


def log_polynomials_bell(a):
    """L_n = sum_k (-1)^(k-1) (k-1)! B_{n,k}(a_1/a_0, ...), the Bell form."""
    n = len(a) - 1
    B = bell_partial_table([c / a[0] for c in a[1:]], n)
    return [sum((-1) ** (k - 1) * math.factorial(k - 1) * B[m][k] for k in range(1, m + 1))
            for m in range(1, n + 1)]


def exp_bell(a):
    """Coefficients of exp(A), a_0 = 0: the complete Bell polynomials of (a_1, ...)."""
    n = len(a) - 1
    B = bell_partial_table(list(a[1:]), n)
    return [1] + [sum(B[m][k] for k in range(1, m + 1)) for m in range(1, n + 1)]


FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@given(st.fractions(min_value=Fraction(1, 7), max_value=5, max_denominator=7),
       st.lists(FRACTIONS, max_size=12))
@settings(max_examples=40, deadline=None)
def test_log_polynomials_equal_bell_form_exactly(a0, tail):
    a = [a0, *tail]
    assert log_polynomials(a) == log_polynomials_bell(a)


@given(st.lists(FRACTIONS, max_size=12))
@settings(max_examples=40, deadline=None)
def test_series_exp_equals_complete_bell_exactly(tail):
    a = (Fraction(0), *tail)
    assert series_exp(ExpSeries(a)).coeffs == tuple(exp_bell(a))


@given(st.fractions(min_value=-3, max_value=3, max_denominator=5),
       st.fractions(min_value=-3, max_value=3, max_denominator=5))
@settings(max_examples=40, deadline=None)
def test_binomial_series_exactly(p, a):
    order = 12
    c = binomial_series(p, a, order).coeffs
    assert c == tuple(falling_factorial(p, k) * a ** k for k in range(order + 1))
    # (1 + a t)^p (1 + a t)^(1 - p) = 1 + a t
    prod = series_product(ExpSeries(c), binomial_series(1 - p, a, order))
    assert prod.coeffs == (1, a) + (0,) * (order - 1)


def test_bell_index_errors():
    with pytest.raises(IndexError):
        bell_partial(3, 0, [1, 2, 3])
    with pytest.raises(IndexError):
        bell_partial(3, 2, [1])


# ---------------------------------------------------------------- series ops

def mpf_series(values):
    return ExpSeries(tuple(mpf(v) for v in values))


def test_product_identity_and_exponentials():
    with mp.workprec(PREC):
        A = mpf_series([2.0, -1.5, 0.25, 3.0])
        assert series_product(A, identity(3, mpf(1))).coeffs == A.coeffs
        # e^t * e^{-t} = 1, coefficientwise
        n = 10
        e_plus = ExpSeries((mpf(1),) * (n + 1))
        e_minus = ExpSeries(tuple(mpf((-1) ** k) for k in range(n + 1)))
        prod = series_product(e_plus, e_minus)
        assert prod.coeffs[0] == 1
        assert all(c == 0 for c in prod.coeffs[1:])
        # t * t = t^2 = 2 t^2/2!
        t = ExpSeries((mpf(0), mpf(1), mpf(0), mpf(0)))
        sq = series_product(t, t)
        assert tuple(float(c) for c in sq.coeffs) == (0.0, 0.0, 2.0, 0.0)


def test_reciprocal_trivials():
    with mp.workprec(PREC):
        ident = identity(6, mpf(1))
        assert series_reciprocal(ident).coeffs == ident.coeffs
        # 1/e^t = e^{-t}
        e_plus = ExpSeries((mpf(1),) * 9)
        rec = series_reciprocal(e_plus)
        for k, c in enumerate(rec.coeffs):
            assert close(c, (-1) ** k)
    with pytest.raises(ZeroConstantTerm):
        series_reciprocal(ExpSeries((mpf(0), mpf(1))))


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=21),
       st.floats(min_value=0.2, max_value=10))
@settings(max_examples=100, deadline=None)
def test_reciprocal_identity_and_closed_form(tail, a0):
    with mp.workprec(PREC):
        A = mpf_series([a0] + tail[1:])
        rec = series_reciprocal(A)
        rec_bell = series_reciprocal_bell(A)
        prod = series_product(A, rec)
        assert close(prod.coeffs[0], 1)
        for c in prod.coeffs[1:]:
            assert abs(c) < mpf("1e-20") * max(1, max(abs(x) for x in A.coeffs))
        for x, y in zip(rec.coeffs, rec_bell.coeffs):
            assert close(x, y)


def test_ratio_trivials():
    with mp.workprec(PREC):
        A = mpf_series([2.0, 1.0, -3.0, 0.5])
        ident = identity(3, mpf(1))
        self_ratio = series_ratio(A, A)
        assert close(self_ratio.coeffs[0], 1)
        assert all(abs(c) < mpf("1e-30") for c in self_ratio.coeffs[1:])
        assert series_ratio(A, ident).coeffs == A.coeffs
    with pytest.raises(ZeroConstantTerm):
        series_ratio(A, ExpSeries((mpf(0), mpf(1), mpf(1), mpf(1))))


@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=15),
       st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=15),
       st.floats(min_value=0.5, max_value=5))
@settings(max_examples=100, deadline=None)
def test_ratio_equals_product_with_reciprocal(anum, bden, b0):
    with mp.workprec(PREC):
        A = mpf_series(anum)
        B = mpf_series([b0] + bden[1:])
        n = min(A.order, B.order)
        lhs = series_ratio(A, B)
        rhs = series_product(A, series_reciprocal(B))
        scale = max(1, max(abs(c) for c in lhs.coeffs))
        for k in range(n + 1):
            assert abs(lhs.coeffs[k] - rhs.coeffs[k]) < mpf("1e-20") * scale


def test_log_trivials_and_low_orders():
    with mp.workprec(PREC):
        ident = identity(4, mpf(1))
        lg = series_log(ident)
        assert all(c == 0 for c in lg.coeffs)
        A = mpf_series([2.0, 0.75, -1.25, 0.5])
        lg = series_log(A)
        a0, a1, a2 = A.coeffs[0], A.coeffs[1], A.coeffs[2]
        assert close(lg.coeffs[0], mpmath.log(a0))
        assert close(lg.coeffs[1], a1 / a0)
        assert close(lg.coeffs[2], a2 / a0 - (a1 / a0) ** 2)
    with pytest.raises(NonPositiveConstantTerm):
        series_log(ExpSeries((mpf(-1), mpf(1))))
    with pytest.raises(NonPositiveConstantTerm):
        series_exp(ExpSeries((mpf(1), mpf(1))))


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=21),
       st.floats(min_value=0.1, max_value=10))
@settings(max_examples=100, deadline=None)
def test_exp_log_round_trip(tail, a0):
    with mp.workprec(PREC):
        A = mpf_series([a0] + tail[1:])
        # log then exp (constant term restored by scaling)
        lg = series_log(A)
        ex = series_exp(ExpSeries((mpf(0),) + lg.coeffs[1:]))
        restored = tuple(c * A.coeffs[0] for c in ex.coeffs)
        scale = max(1, max(abs(c) for c in A.coeffs))
        for x, y in zip(restored, A.coeffs):
            assert abs(mpf(x) - y) < mpf("1e-20") * scale
        # exp then log on a zero-constant series
        W = ExpSeries((mpf(0),) + A.coeffs[1:])
        lg2 = series_log(series_exp(W))
        scale2 = max(1, max(abs(c) for c in W.coeffs))
        for x, y in zip(lg2.coeffs, W.coeffs):
            assert abs(x - y) < mpf("1e-20") * scale2


def test_truncation_to_smaller_order():
    with mp.workprec(PREC):
        A = mpf_series([1.0, 2.0, 3.0])
        B = mpf_series([1.0, -1.0])
        assert series_product(A, B).order == 1
        assert series_ratio(A, B).order == 1
