"""Independent references the test suite compares the library against.

Nothing in ``logifpt``'s commands runs this code.  Each function states a
rule or formula that the library computes another way:

- exact combinatorics and the series algebra in ``mpf`` or ``Fraction``
  (Stirling numbers, factorial powers, partial Bell polynomials; the
  :class:`ExpSeries` product, exp, binomial, ratio, reciprocal and
  logarithm series), against :func:`logifpt.series.log_polynomials` and
  the fixed-point rows and quotient of :mod:`logifpt.kernels`, and the
  q-series as the exp of its ``mpf`` exponent, against
  :func:`logifpt.kernels.q_series`;
- the two truncation rules on ``mpf`` terms and the ``mpf`` views of a
  kernel row and of an endpoint sum, against the fixed-point sums and rows
  of :mod:`logifpt.kernels`;
- the moments by the Bell-polynomial closed form of the reciprocal
  series, the closed-form mean and variance and the Gamma-consistency
  ratios, against :mod:`logifpt.analytics`, and the first-order error
  bound on the downcrossing moments as an ``mpf`` recursion, against the
  one :func:`logifpt.kernels._fixed_quotient` runs on its ints;
- the Laguerre polynomials one at a time, against the coefficient sums of
  :mod:`logifpt.laguerre`;
- the Laguerre approximant's raw density, before the clip, against the
  moments the approximant matches;
- the splitting step as its closed form, against the in-place row step of
  :mod:`logifpt.montecarlo`; with it the long-run simulated mean, against
  the stationary Gamma law, and the simulator that allocates a fresh normal
  array per chunk, against the one buffer
  :func:`logifpt.montecarlo.sample_fpt` reuses;
- moments of any order by Cauchy integrals of the hypergeometric
  transform (the trapezoidal rule on a circle), against the series moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np
from mpmath import mp, mpf

from logifpt.analytics import MomentSet, fpt_moments
from logifpt.errors import NoConvergence, TransformFailure
from logifpt.hypergeom import PRECISION, laplace_transform
from logifpt.kernels import (_GROWTH_STOP, _STAGNATION_RUN, L_SERIES_TOL, N_MAX_DEFAULT,
                             KernelTable, SumSeries, _to_mpf, ensure_table, l_series,
                             lbar_series)
from logifpt.laguerre import LaguerreApproximant, _coeff_sum, _gamma_pdf
from logifpt.model import DerivedParams, Direction, FptProblem, validate_problem
from logifpt import montecarlo
from logifpt.montecarlo import (_MASK64, FptSample, SimConfig, _path_generators,
                                step_constants)
from logifpt.series import log_polynomials

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


def bell_partial_table(b, n: int):
    """Table B[m][k] of partial exponential Bell polynomials for m, k <= n.

    b is the sequence (b_1, b_2, ...); entries beyond len(b) are treated as
    absent (only b_1..b_{m-k+1} enter B_{m,k}).  Uses the recurrence

        B_{m,k} = sum_i C(m-1, i-1) b_i B_{m-i, k-1},

    which avoids enumerating partitions.
    """
    B = [[0] * (n + 1) for _ in range(n + 1)]
    B[0][0] = 1
    for m_ in range(1, n + 1):
        for k in range(1, m_ + 1):
            tot = 0
            for i in range(1, m_ - k + 2):
                if i <= len(b):
                    tot += math.comb(m_ - 1, i - 1) * b[i - 1] * B[m_ - i][k - 1]
            B[m_][k] = tot
    return B


def bell_partial(n: int, k: int, b):
    """Partial exponential Bell polynomial B_{n,k}(b_1, ..., b_{n-k+1})."""
    if not 1 <= k <= n:
        raise IndexError(f"need 1 <= k <= n, got (n, k) = ({n}, {k})")
    if len(b) < n - k + 1:
        raise IndexError(f"need at least {n - k + 1} arguments, got {len(b)}")
    return bell_partial_table(b, n)[n][k]


class ZeroConstantTerm(ZeroDivisionError):
    """Series reciprocal/ratio requested for a series with zero constant term."""


class NonPositiveConstantTerm(ValueError):
    """Series exp or logarithm requested outside its constant-term domain."""


@dataclass(frozen=True)
class ExpSeries:
    """Truncated power series A(t) = sum_k c_k t^k / k! (exponential
    convention) of order len(coeffs) - 1.  Coefficients may be ``mpf``,
    float or ``Fraction``: the operations below need only +, * and /, and
    each is one O(n^2) coefficient recursion (Knuth, TAOCP vol. 2, sec. 4.7);
    binary operations return a series of the smaller input order."""

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]


def series_product(A: ExpSeries, B: ExpSeries) -> ExpSeries:
    """Cauchy product in exponential convention: c_n = sum C(n,k) a_k b_{n-k}."""
    n = min(A.order, B.order)
    out = []
    for m_ in range(n + 1):
        tot = 0
        for k in range(m_ + 1):
            tot += math.comb(m_, k) * A.coeffs[k] * B.coeffs[m_ - k]
        out.append(tot)
    return ExpSeries(tuple(out))


def series_exp(A: ExpSeries) -> ExpSeries:
    """Exponential of a series with zero constant term (result has c_0 = 1).

    c_n = sum_{k=1}^n C(n-1, k-1) a_k c_{n-k}, the exp-convention form of
    (e^A)' = A' e^A; c_n is the complete Bell polynomial of (a_1, ..., a_n).
    """
    a = A.coeffs
    if a[0] != 0:
        raise NonPositiveConstantTerm("exp is restricted to zero constant term")
    c = [a[0] + 1]  # promotes to the coefficient type
    for n in range(1, A.order + 1):
        tot = 0
        for k in range(1, n + 1):
            tot += math.comb(n - 1, k - 1) * a[k] * c[n - k]
        c.append(tot)
    return ExpSeries(tuple(c))


def binomial_series(p, a, order: int) -> ExpSeries:
    """(1 + a t)^p to the given order: c_k = p (p-1) ... (p-k+1) a^k.

    Each coefficient is the one before times (p - k + 1) a, a running
    product in the type of p (so c_0 = p^0).
    """
    c = [p ** 0]
    for k in range(order):
        c.append(c[-1] * (p - k) * a)
    return ExpSeries(tuple(c))


def identity(order: int, one=1) -> ExpSeries:
    """The multiplicative identity 1 + 0 t + ... up to the given order."""
    return ExpSeries((one,) + (one * 0,) * order)


def series_ratio(A: ExpSeries, B: ExpSeries) -> ExpSeries:
    """Quotient series A/B by the direct recursion.

    q_0 = a_0/b_0,  q_n = (a_n - sum C(n,k) b_k q_{n-k}) / b_0.
    """
    if B.coeffs[0] == 0:
        raise ZeroConstantTerm("ratio needs a nonzero denominator constant term")
    n = min(A.order, B.order)
    q = [A.coeffs[0] / B.coeffs[0]]
    for m_ in range(1, n + 1):
        tot = A.coeffs[m_]
        for k in range(1, m_ + 1):
            tot -= math.comb(m_, k) * B.coeffs[k] * q[m_ - k]
        q.append(tot / B.coeffs[0])
    return ExpSeries(tuple(q))


def series_reciprocal(A: ExpSeries) -> ExpSeries:
    """Reciprocal series, the :func:`series_ratio` of the identity by A.

    r_0 = 1/a_0,  r_n = (0 - sum_{j>=1} C(n,j) a_j r_{n-j}) / a_0.
    """
    return series_ratio(identity(A.order), A)


def series_reciprocal_bell(A: ExpSeries) -> ExpSeries:
    """Reciprocal series by the Bell-polynomial closed form.

    r_n = (1/a_0) sum_k (-1)^k k! B_{n,k}(a_1/a_0, ...).  Agrees with
    :func:`series_ratio` of the identity by A to working precision.
    """
    a0 = A.coeffs[0]
    if a0 == 0:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    n = A.order
    scaled = [c / a0 for c in A.coeffs[1:]]
    B = bell_partial_table(scaled, n)
    out = []
    for m_ in range(n + 1):
        tot = 0
        sign = 1
        fact = 1
        for k in range(m_ + 1):
            tot += sign * fact * B[m_][k]
            sign = -sign
            fact *= k + 1
        out.append(tot / a0)
    return ExpSeries(tuple(out))


def series_log(A: ExpSeries) -> ExpSeries:
    """Logarithm of a series with positive constant term."""
    a0 = A.coeffs[0]
    if not a0 > 0:
        raise NonPositiveConstantTerm("log needs a positive constant term")
    c0 = mpmath.log(a0)
    return ExpSeries((c0, *log_polynomials(A.coeffs)))


# ---------------------------------------------------------------- kernels

def _times_apow(s: SumSeries, first, ints) -> list:
    """[first, a^k ints[k] 2^exps[k] for k = 1..order] in ``mpf``: each int
    rounded to the precision, then times a^k, a running product."""
    d = s.d
    with mp.workprec(d.precision):
        out, apow = [first], mpf(1)
        for man, exp in zip(ints[1:], s.exps[1:]):
            apow *= d.a
            out.append(apow * _to_mpf(man, exp, d.precision))
    return out


def sum_coeffs(s: SumSeries) -> ExpSeries:
    """The ``mpf`` series of an endpoint sum of :func:`logifpt.kernels.l_series`
    or :func:`~logifpt.kernels.lbar_series`, rounded twice per coefficient
    (the int, then its product with a^k), where the library's quotient
    rounds each result once."""
    return ExpSeries(tuple(_times_apow(s, mpf(1), s.mans)))


def sum_error_estimate(s: SumSeries) -> list:
    """Per order, a^k times the first omitted term of an endpoint sum, in
    ``mpf`` as :func:`sum_coeffs`; zeros for a convergent sum ("not
    estimated", not "exact")."""
    if s.omitted is None:
        return [mpf(0)] * (s.order + 1)
    return _times_apow(s, mpf(0), s.omitted)


def reference_q_series(y, order: int, d: DerivedParams) -> ExpSeries:
    """q(y) = y^(u (1 - s)), s = sqrt(1 + a z), as the ``mpf`` exp of its
    exponent -u log(y) (1/2)_k a^k, against :func:`logifpt.kernels.q_series`."""
    with mp.workprec(d.precision):
        ulogy = d.u * mpmath.log(mpf(y))
        s = binomial_series(mpf(1) / 2, d.a, order)
        return series_exp(ExpSeries((mpf(0),) + tuple(-ulogy * c for c in s.coeffs[1:])))


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

def bell_moments(d: DerivedParams, prob: FptProblem, order: int) -> MomentSet:
    """Moments by the Bell-polynomial closed form, against :func:`fpt_moments`.

    The endpoint series are those ``fpt_moments(d, prob, order)`` reads,
    from :func:`l_series` (:func:`lbar_series` going down) at x0 and at the
    threshold, read as ``mpf`` by :func:`sum_coeffs`; the quotient is formed
    in ``mpf`` with :func:`series_reciprocal_bell` and
    :func:`reference_q_series` instead of the fixed-point recursion:
    q(x0/U) l(x0) / l(U) upcrossing, with x0/U at working precision, and
    lbar(x0) / lbar(L) downcrossing.  The relative error estimates, and with
    them the flags, are recomputed from this quotient by
    :func:`reference_error_bound`, on the summed estimates of the
    recursion's set; the diagnostics and cumulants are those of the
    recursion's set.  A degenerate set comes back unchanged.
    """
    ms = fpt_moments(d, prob, order)
    if validate_problem(d, prob):
        return ms
    block = l_series if prob.direction is Direction.UP else lbar_series
    b0, b1 = (sum_coeffs(block(y, order, d)) for y in (d.params.x0, prob.threshold))
    e = ms.diagnostics["error_estimate"]
    with mp.workprec(d.precision):
        s0 = b0
        if prob.direction is Direction.UP:  # q(x0) l(x0) / (q(U) l(U))
            y = mpf(d.params.x0) / mpf(prob.threshold)
            s0 = series_product(reference_q_series(y, order, d), b0)
        g = series_product(s0, series_reciprocal_bell(b1)).coeffs
        moments = tuple((-1) ** k * g[k] for k in range(1, order + 1))
        rel = (mpf(0),) * order
        if any(e):
            dg = reference_error_bound(b1, e, g, order)
            rel = tuple(dg[k] / abs(m) if m else (mpf("inf") if dg[k] else mpf(0))
                        for k, m in enumerate(moments, 1))
    return replace(ms, moments=moments, error_estimates=rel)


def reference_error_bound(den, e, g, order):
    """First-order error bound dg on the quotient g = num / den, given the
    summed error estimates e of the two building-block series (e_0 = 0,
    den_0 = 1), as the direct ``mpf`` recursion

        dg_m = e_m + sum_{k=1..m} C(m, k) (e_k |g_{m-k}| + |den_k| dg_{m-k}),

    the coefficients of e (1 + |g|) / (1 - |den|+), with |den|+ the series
    |den| without its constant term.  The library runs it on its ints.
    """
    dg = [mpf(0)]
    for m_ in range(1, order + 1):
        tot = e[m_]
        for k in range(1, m_ + 1):
            tot += math.comb(m_, k) * (e[k] * abs(g[m_ - k]) + abs(den.coeffs[k]) * dg[m_ - k])
        dg.append(tot)
    return dg


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


def gamma_consistency(c: tuple) -> GammaDiagnostics:
    """The three adjacent ratios of the cumulants c_1..c_n and their spread.

    For a Gamma law every entry equals the rate parameter, so a small
    flatness score supports the Gamma-referenced density expansion.
    """
    if len(c) < 4:
        raise ValueError("gamma_consistency needs cumulants up to order 4")
    ratios = (c[0] / c[1], 2 * c[1] / c[2], 3 * c[2] / c[3])
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


def raw_density(apx: LaguerreApproximant, t):
    """The approximant's expansion beta f_alpha(beta t) p(beta t) at t, before
    the clip at 0 and the renormalization of its density; 0 for t < 0."""
    t = np.asarray(t, dtype=float)
    alpha, beta = apx.gamma.alpha, apx.gamma.beta
    x = beta * np.maximum(t, 0.0)
    vals = np.where(t < 0, 0.0, beta * _gamma_pdf(alpha, x) * _coeff_sum(apx.coeffs, alpha, x))
    return float(vals) if t.ndim == 0 else vals


# ---------------------------------------------------------------- montecarlo

_STATIONARY_STREAM = _MASK64  # path ids are always < paths << 2^64 - 1


def reference_step(x, z, K1, grow, gm1, drift_corr, vol):
    """One splitting step from state x with standard-normal draw z, written
    out: the drift sub-flow K1 x e^(r1 dt) / (K1 + x (e^(r1 dt) - 1)) times
    the noise factor exp(-sigma^2 dt / 2 + sigma sqrt(dt) z), with the
    constants of :func:`logifpt.montecarlo.step_constants`.  Elementwise on
    numpy arrays; allocates its result."""
    return K1 * x * grow / (K1 + x * gm1) * np.exp(drift_corr + vol * z)


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
        x = reference_step(x, z, *consts)
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


def reference_sample_fpt(d: DerivedParams, cfg: SimConfig) -> FptSample:
    """:func:`logifpt.montecarlo.sample_fpt` path-major and step by step:
    each chunk draws into a new array of (surviving paths) x (chunk steps),
    steps along its columns with :func:`reference_step` and tracks the
    first crossing at every step, where the library steps a time-major
    buffer row by row and scans for crossings once per chunk.  Batches and
    chunks follow the module's ``_BATCH`` and ``_CHUNK``."""
    if validate_problem(d, cfg.problem):
        return FptSample(times=np.zeros(cfg.paths), censored=0, config=cfg, model=d.params)
    threshold = cfg.problem.threshold
    up = cfg.problem.direction is Direction.UP
    dt, consts, max_steps = cfg.dt, step_constants(d, cfg.dt), cfg.steps
    all_times, censored = [], 0
    for start in range(0, cfg.paths, montecarlo._BATCH):
        gens = _path_generators(cfg.seed, range(start, min(start + montecarlo._BATCH,
                                                           cfg.paths)))
        x = np.full(len(gens), float(d.params.x0))
        base = 0
        while len(x) and base < max_steps:
            span = min(montecarlo._CHUNK, max_steps - base)
            z = np.empty((len(x), span))
            for g, row in zip(gens, z):
                g.standard_normal(out=row)
            crossed_at = np.full(len(x), -1, dtype=np.int64)
            x_before, x_after = np.empty(len(x)), np.empty(len(x))
            cur = x
            for j in range(span):
                nxt = reference_step(cur, z[:, j], *consts)
                newly = (crossed_at < 0) & (nxt > threshold if up else nxt < threshold)
                crossed_at[newly] = j
                x_before[newly] = cur[newly]
                x_after[newly] = nxt[newly]
                cur = nxt
            done = crossed_at >= 0
            frac = (threshold - x_before[done]) / (x_after[done] - x_before[done])
            all_times.append((base + crossed_at[done].astype(float)) * dt + dt * frac)
            x = cur[~done]
            gens = [g for g, k in zip(gens, ~done) if k]
            base += span
        censored += len(x)
    times = np.sort(np.concatenate(all_times)) if all_times else np.empty(0)
    return FptSample(times=times, censored=censored, config=cfg, model=d.params)


# ---------------------------------------------------------------- hypergeom

# trapezoidal nodes on the circle |lam| = rho, and rho as a fraction of the
# distance R from 0 to the transform's nearest singularity
CAUCHY_NODES = 48
CAUCHY_RADIUS = 1 / 16


def singularity_distance(d: DerivedParams, prob: FptProblem):
    """R, the distance from 0 to the transform's nearest singularity, to a factor 2.

    Scans lam = -(1/a) 2^-j, j = 40, ..., 0, up to the first lam that
    ``laplace_transform`` refuses or whose value does not exceed the last
    one: short of the branch point -1/a and the first pole, E[exp(-lam T)]
    grows as lam falls.  Raises TransformFailure when the first lam is refused.
    """
    accepted, previous = None, None
    with mp.workprec(PRECISION):
        for j in range(40, -1, -1):
            lam = -mpf(2) ** -j / d.a
            try:
                value = laplace_transform(d, prob, lam)
            except TransformFailure:
                break
            if previous is not None and not value > previous:
                break
            accepted, previous = lam, value
    if accepted is None:
        raise TransformFailure(f"the transform has no valid value even at lam = {float(lam)}")
    return -accepted


def cauchy_moments(d: DerivedParams, prob: FptProblem, order: int = 4) -> MomentSet:
    """Moments from the Taylor coefficients of the transform phi at 0, by the
    trapezoidal rule on the circle |lam| = rho (Bornemann 2011):

        m_k = (-1)^k k! (1/N) sum_j phi(rho w^j) w^(-jk) rho^(-k),   w = e^(2 pi i / N),

    with N = CAUCHY_NODES and rho = CAUCHY_RADIUS :func:`singularity_distance`.
    The error falls as (rho/R)^N.  phi is real on the real axis, so
    phi(conj lam) = conj phi(lam) and N/2 + 1 samples suffice.
    """
    if validate_problem(d, prob):
        return MomentSet(moments=(mpf(0),) * order, precision=PRECISION)
    rho = singularity_distance(d, prob) * CAUCHY_RADIUS
    half = CAUCHY_NODES // 2
    with mp.workprec(PRECISION):
        phi = [laplace_transform(d, prob, rho * mpmath.expjpi(mpf(2 * j) / CAUCHY_NODES))
               for j in range(half + 1)]
        moments = []
        for k in range(1, order + 1):
            total = phi[0] + (-1) ** k * phi[half] + 2 * mpmath.fsum(
                mpmath.re(phi[j] * mpmath.expjpi(mpf(-2 * j * k) / CAUCHY_NODES))
                for j in range(1, half))
            moments.append((-1) ** k * mpmath.factorial(k) * total / (CAUCHY_NODES * rho ** k))
    return MomentSet(moments=tuple(moments), precision=PRECISION)
