"""Independent references the test suite compares the library against.

Nothing in ``logifpt``'s commands runs this code.  Each function states a
rule or formula that the library computes another way:

- exact combinatorics and series operations (Stirling numbers, factorial
  powers, partial Bell polynomials, the reciprocal and logarithm series),
  against :mod:`logifpt.series`;
- the two truncation rules on ``mpf`` terms and the ``mpf`` view of a
  kernel row, against the fixed-point sums and rows of
  :mod:`logifpt.kernels`;
- the closed-form mean and variance and the Gamma-consistency ratios,
  against :mod:`logifpt.analytics`;
- the Laguerre polynomials one at a time, against the coefficient sums of
  :mod:`logifpt.laguerre`;
- the long-run simulated mean, against the stationary Gamma law;
- moments by finite differences of the hypergeometric transform, against
  the series moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath import mp, mpf

from logifpt.analytics import CumulantSet, MomentMethod, MomentSet
from logifpt.errors import NonPositiveConstantTerm, NoConvergence, QuadratureFailure, StencilFailure
from logifpt.hypergeom import HypEvalConfig, laplace_transform
from logifpt.kernels import (_GROWTH_STOP, _STAGNATION_RUN, L_SERIES_TOL, N_MAX_DEFAULT,
                             KernelTable, _to_mpf, ensure_table)
from logifpt.laguerre import _coeff_sum
from logifpt.model import DerivedParams, Direction, FptProblem, validate_problem
from logifpt.montecarlo import _MASK64, lie_trotter_step, step_constants
from logifpt.series import ExpSeries, bell_partial_table, log_polynomials, series_ratio

# ---------------------------------------------------------------- series

STIRLING_N_MAX = 512

# triangular table, row n holds s(n, 0..n); grown on demand, never shrunk
_stirling_rows = [[1]]


def stirling1_unsigned(n: int, j: int, n_max: int = STIRLING_N_MAX) -> int:
    """Unsigned Stirling number of the first kind s(n, j), exact.

    Built once by the recurrence s(n+1, j) = n s(n, j) + s(n, j-1) and
    memoized module-wide.  Raises for indices outside 0 <= j <= n <= n_max.
    """
    if n < 0 or j < 0 or j > n:
        raise IndexError(f"need 0 <= j <= n, got (n, j) = ({n}, {j})")
    if n > n_max:
        raise IndexError(f"n = {n} exceeds table bound n_max = {n_max}")
    while len(_stirling_rows) <= n:
        prev = _stirling_rows[-1]
        m = len(_stirling_rows) - 1  # previous row index
        row = [0] * (m + 2)
        for i in range(m + 1):
            row[i] += m * prev[i]
            row[i + 1] += prev[i]
        _stirling_rows.append(row)
    return _stirling_rows[n][j]


def falling_factorial(x, m: int):
    """x (x-1) ... (x-m+1); empty product is 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    out = 1
    for i in range(m):
        out = out * (x - i)
    return out


def rising_factorial(x, n: int):
    """x (x+1) ... (x+n-1); empty product is 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = 1
    for i in range(n):
        out = out * (x + i)
    return out


def bell_partial(n: int, k: int, b):
    """Partial exponential Bell polynomial B_{n,k}(b_1, ..., b_{n-k+1})."""
    if not 1 <= k <= n:
        raise IndexError(f"need 1 <= k <= n, got (n, k) = ({n}, {k})")
    if len(b) < n - k + 1:
        raise IndexError(f"need at least {n - k + 1} arguments, got {len(b)}")
    return bell_partial_table(b, n)[n][k]


def identity(order: int, one=1) -> ExpSeries:
    """The multiplicative identity 1 + 0 t + ... up to the given order."""
    return ExpSeries((one,) + (one * 0,) * order)


def series_reciprocal(A: ExpSeries) -> ExpSeries:
    """Reciprocal series, the :func:`series_ratio` of the identity by A.

    r_0 = 1/a_0,  r_n = (0 - sum_{j>=1} C(n,j) a_j r_{n-j}) / a_0.
    """
    return series_ratio(identity(A.order), A)


def series_log(A: ExpSeries) -> ExpSeries:
    """Logarithm of a series with positive constant term."""
    a0 = A.coeffs[0]
    if not a0 > 0:
        raise NonPositiveConstantTerm("log needs a positive constant term")
    c0 = mpmath.log(a0)
    return ExpSeries((c0, *log_polynomials(A.coeffs)))


# ---------------------------------------------------------------- kernels

def mpf_row(table: KernelTable, family: str, n: int) -> ExpSeries:
    """Row n of family "m" or "mbar" of a kernel table as ``mpf``, each
    entry of ``table.fixed_row`` rounded once to the table's precision."""
    mans, exp = table.fixed_row(family, n)
    return ExpSeries(tuple(_to_mpf(x, exp, table.precision) for x in mans))


def convergent_sum(term_fn, tol, n_max: int):
    """Sum term_fn(n) for n >= 1 until the stagnation rule fires.

    The sum is cut once _STAGNATION_RUN consecutive terms fall below tol
    times the running partial sum; raises NoConvergence when n_max is hit
    first.  Returns (value, last_included_n).
    """
    partial = mpf(0)
    run = 0
    n = 0
    while True:
        n += 1
        if n > n_max:
            raise NoConvergence(f"sum still changing at n_max = {n_max}")
        term = term_fn(n)
        partial += term
        scale = abs(partial) if partial != 0 else abs(term)
        if abs(term) <= tol * scale:
            run += 1
            if run >= _STAGNATION_RUN:
                return partial, n
        else:
            run = 0


def asymptotic_sum(term_fn, n_start: int, n_max: int):
    """Optimal truncation of the (generally divergent) sum of term_fn(n).

    Terms are generated from n_start until their magnitude envelope has
    clearly turned upward (or n_max is reached).  The cut n* minimizes the
    envelope max(|T_n|, |T_{n+1}|), which is robust to isolated exact zeros
    in the term sequence; ties resolve to the smaller n.  Returns
    (value, first_omitted_magnitude, last_included_n).
    """
    terms = []
    min_env = mpmath.inf
    n = n_start - 1
    while n < n_max:
        n += 1
        terms.append(term_fn(n))
        if len(terms) >= 2:
            env = max(abs(terms[-1]), abs(terms[-2]))
            if env < min_env:
                min_env = env
            elif env > _GROWTH_STOP * min_env and abs(terms[-1]) > abs(terms[-2]):
                break
    if len(terms) == 1:
        return terms[0], abs(terms[0]), n_start
    best = min(range(len(terms) - 1),
               key=lambda i: max(abs(terms[i]), abs(terms[i + 1])))
    value = sum(terms[: best + 1], mpf(0))
    return value, abs(terms[best + 1]), n_start + best


# ---------------------------------------------------------------- analytics

def mean_variance_closed_form(d: DerivedParams, prob: FptProblem):
    """Crossing-time mean and variance from the explicit coefficient sums.

    These are the order-1 and order-2 formulas written directly in terms of
    entries 1 and 2 of the kernel-table rows; they serve as an independent cross-check of
    :func:`fpt_cumulants` at orders one and two and use the same truncation
    rules as the kernel sums (stagnation rule upcrossing, optimal truncation
    downcrossing).
    """
    degenerate = validate_problem(d, prob)
    if degenerate:
        return mpf(0), mpf(0)
    table = ensure_table(d, 2)
    x0 = d.params.x0
    s = prob.threshold

    def entry(family, n, m_):
        # entry m_ of row n as mpf_row would give it, converting only that entry
        mans, exp = table.fixed_row(family, n)
        return mpf((mans[m_], exp))

    with mp.workprec(d.precision):
        vx0 = d.v * mpf(x0)
        vs = d.v * mpf(s)
        if prob.direction is Direction.UP:
            def csum(m_, vy):
                val, _ = convergent_sum(
                    lambda n: entry("m", n, m_) * vy ** n / mpmath.factorial(n),
                    mpf(L_SERIES_TOL), N_MAX_DEFAULT)
                return val

            logr = mpmath.log(mpf(x0) / mpf(s))
            s1_x0 = csum(1, vx0)
            s1_s = csum(1, vs)
            mean = logr * d.a * d.u / 2 + d.a * (s1_s - s1_x0)
            var = (logr * d.a ** 2 * d.u / 4
                   + d.a ** 2 * (csum(2, vx0) - csum(2, vs) + s1_s ** 2 - s1_x0 ** 2))
        else:
            def asum(m_, vy):
                def term(n):
                    sign = -1 if n % 2 else 1
                    return sign * entry("mbar", n, m_) / (vy ** n * mpmath.factorial(n))

                val, _, _ = asymptotic_sum(term, m_, N_MAX_DEFAULT)
                return val

            s1_x0 = asum(1, vx0)
            s1_s = asum(1, vs)
            mean = d.a * (s1_s - s1_x0)
            var = d.a ** 2 * (asum(2, vx0) - asum(2, vs) + s1_s ** 2 - s1_x0 ** 2)
    return mean, var


@dataclass(frozen=True)
class GammaDiagnostics:
    """Cumulant-ratio consistency with a Gamma reference law."""

    ratios: tuple          # (c1/c2, 2 c2/c3, 3 c3/c4)
    implied_beta: tuple    # k c_k / c_{k+1}, the rate implied by each pair
    flatness: float        # max relative spread of the implied rates


def gamma_consistency(cs: CumulantSet) -> GammaDiagnostics:
    """The three adjacent cumulant ratios and their spread.

    For a Gamma law every entry equals the rate parameter, so a small
    flatness score supports the Gamma-referenced density expansion.
    """
    if cs.order < 4:
        raise ValueError("gamma_consistency needs cumulants up to order 4")
    ratios = cs.ratios
    betas = tuple(float(b) for b in ratios)
    mean_b = sum(betas) / 3
    flat = max(abs(b - mean_b) for b in betas) / abs(mean_b) if mean_b else float("inf")
    return GammaDiagnostics(ratios=ratios, implied_beta=betas, flatness=flat)


# ---------------------------------------------------------------- laguerre

def laguerre_poly(k: int, alpha: float, x):
    """Generalized Laguerre polynomial L_k^(alpha) by the three-term recurrence:
    the library's coefficient sum at the k-th unit vector.

    Accepts scalars or numpy arrays; the tests check it against the explicit
    binomial sum at small k.
    """
    out = _coeff_sum(np.eye(k + 1)[k], alpha, x)
    return out if out.shape else float(out)


# ---------------------------------------------------------------- montecarlo

_STATIONARY_STREAM = _MASK64  # path ids are always < paths << 2^64 - 1


def stationary_check(d: DerivedParams, paths: int = 128, steps: int = 40000,
                     dt: float = 0.01, seed: int = 0) -> dict:
    """Compare the long-run empirical mean to the stationary Gamma mean.

    The first quarter of the steps is burn-in and is left out of the mean.

    The stationary law of the effective process is taken as Gamma with
    shape rho and rate v, giving mean rho/v (for zero harvesting this is
    the classical shape rho, rate 2r/(K sigma^2) law; the harvested rate is
    the corresponding quantity of the effective parameters).
    """
    target = float(d.rho) / float(d.v)
    consts = step_constants(d, dt)
    gen = np.random.Generator(np.random.Philox(
        key=np.array([seed & _MASK64, _STATIONARY_STREAM], dtype=np.uint64)))
    x = np.full(paths, target)
    burn = int(steps * 0.25)
    acc = 0.0
    count = 0
    for j in range(steps):
        z = gen.standard_normal(paths)
        x = lie_trotter_step(x, z, *consts)
        if j >= burn:
            acc += float(x.sum())
            count += paths
    emp = acc / count
    return {
        "empirical_mean": emp,
        "target_mean": target,
        "rel_deviation": abs(emp - target) / target,
        "paths": paths,
        "steps": steps,
        "dt": dt,
    }


# ---------------------------------------------------------------- hypergeom

# central-difference stencils of second-order accuracy, offsets in units of h
_STENCILS = {
    1: ((-1, 1), ("-1/2", "1/2")),
    2: ((-1, 0, 1), ("1", "-2", "1")),
    3: ((-2, -1, 1, 2), ("-1/2", "1", "-1", "1/2")),
    4: ((-2, -1, 0, 1, 2), ("1", "-4", "6", "-4", "1")),
}
# first difference step, in units of 1/a (the natural scale of the Laplace variable)
FD_STEP = 1e-6
# depth of the Richardson table
FD_LEVELS = 4


def fd_moments(d: DerivedParams, prob: FptProblem, order: int = 4) -> MomentSet:
    """Moments extracted from derivatives of the transform at the origin.

    The k-th moment is (-1)^k times the k-th derivative, estimated with
    second-order central stencils refined through a Richardson table of
    FD_LEVELS levels.  Negative-lam evaluations stay inside the
    analyticity region; on evaluation failure the step is halved a few
    times before StencilFailure is raised.
    """
    if not 1 <= order <= 4:
        raise ValueError("finite-difference oracle supports orders 1..4")
    degenerate = validate_problem(d, prob)
    if degenerate:
        return MomentSet(problem=prob, order=order, moments=(mpf(0),) * order,
                         method=MomentMethod.FINITE_DIFFERENCE,
                         precision=HypEvalConfig.precision, degenerate=True)
    with mp.workprec(HypEvalConfig.precision):
        base_h = mpf(FD_STEP) / d.a
        for attempt in range(6):
            h = base_h / 2 ** attempt
            cache = {}

            def g(x):
                if x not in cache:
                    cache[x] = laplace_transform(d, prob, x)
                return cache[x]

            try:
                moments = []
                for k in range(1, order + 1):
                    offs, coefs = _STENCILS[k]
                    coefs = [mpf(c) for c in coefs]
                    rows = []
                    for lev in range(FD_LEVELS):
                        hh = h / 2 ** lev
                        val = sum(c * g(o * hh) for o, c in zip(offs, coefs)) / hh ** k
                        rows.append([val])
                    for i in range(1, FD_LEVELS):
                        for lev in range(i, FD_LEVELS):
                            rows[lev].append(
                                (4 ** i * rows[lev][i - 1] - rows[lev - 1][i - 1])
                                / (4 ** i - 1))
                    moments.append((-1) ** k * rows[-1][-1])
                return MomentSet(problem=prob, order=order, moments=tuple(moments),
                                 method=MomentMethod.FINITE_DIFFERENCE,
                                 precision=HypEvalConfig.precision)
            except (StencilFailure, QuadratureFailure):
                continue
    raise StencilFailure("transform could not be evaluated on any usable stencil")
