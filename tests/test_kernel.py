import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polystar.kernel import (_GL_ORDERS, BASIS_LOG_FIRST, BASIS_POWER_FIRST, _design_matrix,
                             BudgetExceededError, DomainError, NonConvergenceError,
                             PairingUnavailableError, SingularFitError, _window_limit,
                             adaptive_quadrature, best_extrapolant, binom_ratio_sum,
                             binomial, to_float)


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(4, 6) == 0


def test_binomial_symmetry_and_pascal():
    for n in range(0, 61):
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n, n - k)
    for n in range(1, 61):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


def test_binomial_negative_rejected():
    with pytest.raises(DomainError):
        binomial(-1, 0)


def test_binom_ratio_sum_examples():
    assert binom_ratio_sum(2, 4) == Fraction(2, 3)
    assert binom_ratio_sum(1, 1) == 1
    assert binom_ratio_sum(3, 3) == 3


def test_binom_ratio_sum_closed_form_grid():
    for n in range(1, 61):
        for m in range(1, n + 1):
            assert binom_ratio_sum(m, n) * (n + 1 - m) == m


def test_binom_ratio_sum_domain():
    with pytest.raises(DomainError):
        binom_ratio_sum(3, 2)
    with pytest.raises(DomainError):
        binom_ratio_sum(0, 5)


# ---------------------------------------------------------------------------
# exact rational scalar: canonical and algebraically well-behaved
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)


@given(rationals, rationals, rationals)
@settings(max_examples=200, derandomize=True)
def test_rational_algebra(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(rationals, rationals)
@settings(max_examples=200, derandomize=True)
def test_rational_canonical(a, b):
    for value in (a + b, a * b, a - b):
        assert math.gcd(value.numerator, value.denominator) == 1
        assert value.denominator >= 1


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _cubic_quotient(t):
    # ((1+A)^3 - 1)/A as written: no Gauss-Legendre node is at 0
    return ((1 + t) ** 3 - 1) / t


def test_quadrature_constant():
    q = adaptive_quadrature(lambda t: np.ones_like(t), 0, 1, 1e-12)
    assert abs(float(q) - 1) < 1e-12


def test_quadrature_linear():
    q = adaptive_quadrature(lambda t: t, 0, 2, 1e-12)
    assert abs(float(q) - 2) < 1e-12


def test_quadrature_cubic_difference_quotient():
    # integral over [0,1] of ((1+A)^3 - 1)/A equals 1 + 3/2 + 7/3 = 29/6
    q = adaptive_quadrature(_cubic_quotient, 0, 1, 1e-10)
    assert abs(float(q) - float(Fraction(29, 6))) < 1e-10


def _geometric(K):
    """Breaks 2^-k for k = K..1, graded toward 0."""
    return [2.0 ** -k for k in range(K, 0, -1)]


def test_quadrature_float_mode_layer():
    # thin smooth boundary layer: a mesh graded toward it must resolve it
    eps = 1e-6
    q = adaptive_quadrature(lambda t: 1.0 / (t + eps), 0.0, 1.0, 1e-8, breaks=_geometric(26))
    assert abs(float(q) - math.log((1 + eps) / eps)) < 1e-7


def _depth_first_quadrature(f, lo, hi, tol, budget=2 ** 20, breaks=None):
    """The Gauss-pair rule as a depth-first stack walk with a scalar
    integrand, right half refined first, from the same initial mesh with
    the same width-proportional shares of the tolerance: each panel is
    accepted with its 12-point value when the 6-point value agrees to its
    share, else bisected.  The reference for the breadth-first scheme.
    Returns the integral and the depth of every panel visited (0 for the
    initial panels)."""
    rules = [np.polynomial.legendre.leggauss(n) for n in _GL_ORDERS]
    lo_, hi_, total = float(lo), float(hi), 0.0

    def panel(a, b, rule):
        h, c = (b - a) / 2, (a + b) / 2
        acc = 0
        for x, w in zip(*rule):
            acc += w * f(c + h * x)
        return acc * h

    if breaks is None:
        c = (lo_ + hi_) / 2
        mesh = [lo_, (lo_ + c) / 2, c, (c + hi_) / 2, hi_]
    else:
        mesh = [lo_, *breaks, hi_]
    depths = []
    stack = [(a, b, tol * ((b - a) / (hi_ - lo_)), 0) for a, b in zip(mesh, mesh[1:])]
    while stack:
        a, b, budget_here, depth = stack.pop()
        depths.append(depth)
        if len(depths) > budget:
            raise NonConvergenceError("budget")
        g12, g6 = (panel(a, b, rule) for rule in rules)
        if abs(g12 - g6) <= budget_here:
            total += g12
        else:
            c = (a + b) / 2
            stack.append((a, c, budget_here / 2, depth + 1))
            stack.append((c, b, budget_here / 2, depth + 1))
    return total, depths


# (integrand, lo, hi, tol, breaks)
FLOAT_INTEGRANDS = (
    (lambda t: 1.0 / (t + 1e-6), 0.0, 1.0, 1e-8, _geometric(26)),
    (lambda t: np.exp(-40.0 * t) * np.cos(25.0 * t), 0.0, 1.0, 1e-11, None),
    (lambda t: np.sqrt(t) * (1.0 - t) ** 3, 0.0, 1.0, 1e-10,
     _geometric(12) + [1.0 - 2.0 ** -k for k in range(2, 7)]),
    (_cubic_quotient, 0.0, 1.0, 1e-10, None),
    (lambda t: np.exp(-t * t), -1.0, 2.0, 1e-14, None),
    (lambda t: 1.0 / (t + 1e-4), 0.0, 1.0, 1e-12, []),
)


@pytest.mark.parametrize("case", range(len(FLOAT_INTEGRANDS)))
def test_quadrature_breadth_first_matches_depth_first_float(case):
    f, lo, hi, tol, breaks = FLOAT_INTEGRANDS[case]
    got = adaptive_quadrature(f, lo, hi, tol, breaks=breaks)
    want, _ = _depth_first_quadrature(f, lo, hi, tol, breaks=breaks)
    assert float(got).hex() == float(want).hex()


def test_quadrature_budget_exhausted():
    f, lo, hi, tol, breaks = FLOAT_INTEGRANDS[0]
    _, depths = _depth_first_quadrature(f, lo, hi, tol, breaks=breaks)
    # the exact panel count passes; one fewer raises, like the stack walk
    adaptive_quadrature(f, lo, hi, tol, breaks=breaks, budget=len(depths))
    for budget in (len(depths) - 1, 5):
        with pytest.raises(NonConvergenceError):
            adaptive_quadrature(f, lo, hi, tol, breaks=breaks, budget=budget)
        with pytest.raises(NonConvergenceError):
            _depth_first_quadrature(f, lo, hi, tol, breaks=breaks, budget=budget)


def _recording(f, calls):
    def g(t):
        calls.append(t)
        return f(t)
    return g


def test_quadrature_float_calls_once_per_round():
    calls = []
    adaptive_quadrature(_recording(lambda t: np.ones_like(t), calls), 0.0, 1.0, 1e-12)
    # the quarter mesh, 18 nodes a panel, all accepted in the first round
    assert [len(t) for t in calls] == [4 * 18]
    f, lo, hi, tol, breaks = FLOAT_INTEGRANDS[0]
    calls.clear()
    adaptive_quadrature(_recording(f, calls), lo, hi, tol, breaks=breaks)
    _, depths = _depth_first_quadrature(f, lo, hi, tol, breaks=breaks)
    assert all(isinstance(t, np.ndarray) and t.ndim == 1 and t.dtype == np.float64
               for t in calls)
    # one call per depth of visited panels, the initial mesh's included
    assert len(calls) == len(set(depths))
    assert sum(len(t) for t in calls) == sum(_GL_ORDERS) * len(depths)


def test_quadrature_polynomial_of_degree_11_takes_one_round():
    # G6 is exact to degree 11, so G12 and G6 agree to rounding and every
    # initial panel is accepted without a bisection
    calls = []
    q = adaptive_quadrature(_recording(lambda t: 3 * t ** 11 - 2 * t ** 4 + t, calls),
                            0.0, 1.0, 1e-13, breaks=[0.1, 0.7])
    assert [len(t) for t in calls] == [3 * 18]
    assert abs(q - (0.25 - 0.4 + 0.5)) <= 1e-15


def test_quadrature_bisects_a_panel_whose_check_fails():
    # t^12 is beyond G6's degree: on one panel |G12 - G6| is about 9e-8, so
    # the panel is bisected and each half is checked at half the share
    x, w = np.polynomial.legendre.leggauss(6)
    g6 = float(np.dot(w, ((x + 1) / 2) ** 12) / 2)
    assert abs(g6 - 1 / 13) > 1e-8
    calls = []
    q = adaptive_quadrature(_recording(lambda t: t ** 12, calls), 0.0, 1.0, 1e-8, breaks=[])
    assert [len(t) for t in calls] == [18, 36]
    left, right = calls[1][:18], calls[1][18:]
    assert left.max() < 0.5 < right.min()
    assert abs(q - 1 / 13) <= 1e-15


def test_quadrature_rejects_bad_breaks():
    for lo, hi, breaks in ((0.0, 1.0, [0.5, 1.0]), (0.0, 1.0, [0.0, 0.5]),
                           (0.0, 1.0, [1.5]), (0.0, 1.0, [-0.5]),
                           (0.0, 1.0, [0.5, 0.25]), (0.0, 1.0, [0.5, 0.5]),
                           (0.0, 1.0, [math.nan]), (1.0, 0.0, [0.25, 0.5])):
        with pytest.raises(DomainError):
            adaptive_quadrature(lambda t: t, lo, hi, 1e-10, breaks=breaks)
    # lo > hi (as in AUX1 at a < 0) takes breaks that fall from lo to hi
    q = adaptive_quadrature(lambda t: t, 1.0, 0.0, 1e-12, breaks=[0.75, 0.5, 0.25])
    assert abs(q + 0.5) < 1e-12


def test_quadrature_compares_exact_endpoints():
    # equal ones give 0.0; one past float64's range, or an interval that
    # rounds to a point, is in the domain but cannot be integrated in float64
    third = Fraction(1, 3)
    assert adaptive_quadrature(lambda t: 1 / t, third, third, 1e-10) == 0.0
    with pytest.raises(NonConvergenceError, match=r"^float64 rounding collapses the "
                       r"interval \[1/3, 0\.333\d+\]: its endpoints differ by 1\.85e-17"):
        adaptive_quadrature(lambda t: t, third, float(third), 1e-10)
    with pytest.raises(NonConvergenceError, match="beyond float64's range"):
        adaptive_quadrature(lambda t: t, 0, Fraction(10 ** 400), 1e-10)


def test_to_float_is_the_one_rounding_rule():
    assert to_float(Fraction(1, 2)) == 0.5 and to_float(10 ** 30) == 1e30
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="non-finite"):
            to_float(bad, NonConvergenceError)
    # named by its magnitude: Python prints no int of over 4,300 digits
    with pytest.raises(DomainError, match="^a value of about 1e5000 is beyond float64's range$"):
        to_float(Fraction(-10 ** 5000))
    with pytest.raises(NonConvergenceError,
                       match="^the rhs of about 1e400 is beyond float64's range$"):
        to_float(Fraction(10 ** 400), NonConvergenceError, what="the rhs")
    # distinct values of one float64: refused; equal ones are not
    assert to_float(1.0, apart_from=1) == 1.0
    with pytest.raises(NonConvergenceError, match="^float64 rounding collapses x and 1 "
                       "differ by 1e-20 but both round to 1.0$"):
        to_float(1 + Fraction(1, 10 ** 20), apart_from=1, what="x and 1")


def test_quadrature_rejects_bad_tol():
    with pytest.raises(DomainError):
        adaptive_quadrature(lambda t: t, 0, 1, 0)


# ---------------------------------------------------------------------------
# window fit
# ---------------------------------------------------------------------------

def _exact_intercept(levels, values, basis):
    """Intercept of the square fit, by Gauss-Jordan elimination over the
    exact rationals of the float64 design matrix and data."""
    rows = [[Fraction(1)] + [Fraction(fn(N)) for fn in basis] + [Fraction(v)]
            for N, v in zip(levels, values)]
    n = len(rows)
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return rows[0][-1] / rows[0][0]


@pytest.mark.parametrize("limit", [1.2020569031595942, 1e6])
@pytest.mark.parametrize("basis", [BASIS_LOG_FIRST, BASIS_POWER_FIRST],
                         ids=["log_first_9", "power_first_8"])
def test_window_fit_matches_exact_solve(basis, limit):
    # at 1e6 the bound is below one ulp: the constant must not pass through
    # the solve, or the intercept picks up its rounding
    coeffs = (-2.0, 3.0, 0.5, -1.5, 4.0, -0.75, 2.5, 1.25)[:len(basis)]
    levels = [64 * 2 ** j for j in range(len(basis) + 1)]
    values = [limit + sum(c * fn(N) for c, fn in zip(coeffs, basis))
              for N in levels]
    exact = _exact_intercept(levels, values, basis)
    got = _window_limit(levels, values, len(basis), basis)
    assert isinstance(got, float)
    assert abs(got - float(exact)) <= 1e-13
    assert abs(float(exact) - limit) <= 1e-9 * limit


# Richardson-style extrapolation: the window fit eliminates the tail terms
# of the model, and best_extrapolant picks among the model orderings.

def test_richardson_zeta2_partial_sums():
    def partial(n):
        return float(sum(Fraction(1, k * k) for k in range(1, n + 1)))

    levels = [100, 200, 400, 800]
    value, _ = best_extrapolant(levels, [partial(n) for n in levels])
    assert abs(value - math.pi ** 2 / 6) < 1e-6


def test_richardson_constant_sequence():
    value, err = best_extrapolant([10, 20, 40, 80], [3.25] * 4)
    assert value == 3.25
    assert err < 1e-20


def test_richardson_pure_inverse_tail():
    # one 1/N tail term is eliminated from two samples
    value = _window_limit([100, 200], [1 + 1 / 100, 1 + 1 / 200], 1, BASIS_POWER_FIRST)
    assert abs(value - 1) < 1e-9


def test_richardson_needs_two_samples():
    with pytest.raises(SingularFitError):
        _window_limit([10], [1.0], 1, BASIS_POWER_FIRST)
    # best_extrapolant compares two window fits, so it needs four samples
    assert best_extrapolant([10, 20, 40], [1.0, 1.0, 1.0]) is None


def test_richardson_log_tail():
    # tail c1/N + c2 log(N)/N is recovered once enough samples arrive
    def v(n):
        return 5.0 - 2.0 / n + 3.0 * math.log(n) / n

    levels = [64 * 2 ** j for j in range(6)]
    value, _ = best_extrapolant(levels, [v(n) for n in levels])
    assert abs(value - 5.0) < 1e-9
    assert best_extrapolant(levels[:3], [v(n) for n in levels[:3]]) is None


def test_singular_window_fit():
    levels = [64, 128, 128, 256, 512]
    values = [1 + 1 / N for N in levels]
    with pytest.raises(SingularFitError):
        _window_limit(levels, values, 4, BASIS_POWER_FIRST)
    assert issubclass(SingularFitError, ZeroDivisionError)
    assert best_extrapolant(levels, values) is None


def test_every_refusal_belongs_to_one_of_two_families():
    # input outside the domain, or an in-domain side float64 cannot resolve
    assert issubclass(PairingUnavailableError, DomainError)
    assert issubclass(BudgetExceededError, NonConvergenceError)
    assert issubclass(SingularFitError, NonConvergenceError)
    assert not issubclass(NonConvergenceError, DomainError)
    assert not issubclass(DomainError, NonConvergenceError)


LADDER_LEVELS = [64 * 2 ** j for j in range(12)]  # 64 .. POLY_MAX_N


def test_window_matrix_is_cached_and_read_only():
    A = _design_matrix(tuple(LADDER_LEVELS[:4]), 3, BASIS_POWER_FIRST)
    assert _design_matrix(tuple(LADDER_LEVELS[:4]), 3, BASIS_POWER_FIRST) is A
    assert not A.flags.writeable
    with pytest.raises(ValueError):
        A[0, 1] = 2.0


@pytest.mark.parametrize("basis", [BASIS_LOG_FIRST, BASIS_POWER_FIRST],
                         ids=["log_first", "power_first"])
def test_window_fit_is_bit_identical_to_a_fresh_matrix(basis):
    values = [1.2 + 0.7 / N - 3.1 * math.log(N) / N + math.sin(N) / N ** 2
              for N in LADDER_LEVELS]
    for n_terms in range(1, len(basis) + 1):
        for end in range(n_terms + 1, len(LADDER_LEVELS) + 1):
            levels, v = LADDER_LEVELS[end - n_terms - 1:end], values[end - n_terms - 1:end]
            A = np.array([[1.0] + [fn(N) for fn in basis[:n_terms]] for N in levels])
            want = float(np.linalg.solve(A, np.array(v) - v[-1])[0]) + v[-1]
            got = _window_limit(LADDER_LEVELS[:end], values[:end], n_terms, basis)
            assert got.hex() == want.hex(), (n_terms, end)


def test_window_matrices_of_a_full_ladder_number_38():
    # per basis, two trailing windows at each of the nine levels from the
    # fourth on and one at the third: the bound the cache's docstring states
    _design_matrix.cache_clear()
    for end in range(1, len(LADDER_LEVELS) + 1):
        best_extrapolant(LADDER_LEVELS[:end], [1.0 + 1.0 / N for N in LADDER_LEVELS[:end]])
    assert _design_matrix.cache_info().currsize == 38
