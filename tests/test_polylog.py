import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polystar import chains, kernel, polylog
from polystar.chains import FactorSpec, PairingUnavailableError, dp_chain_partials
from polystar.compositions import Composition, ShapeBlocks, transform_bases
from polystar.kernel import DomainError, NonConvergenceError

F = Fraction
ZETA3 = 1.2020569031595942854


def test_zeta_closed_forms():
    # zeta(2k) = |B_2k| (2 pi)^2k / (2 (2k)!), a rational multiple of pi^2k
    for k, q in ((1, 6), (2, 90), (3, 945), (4, 9450)):
        value = math.pi ** (2 * k) / q
        assert abs(float(polylog.zeta(2 * k)) - value) <= 2e-15 * value
    # each mpmath value is rounded to the working precision
    for value in (polylog.zeta(3), polylog.zeta_star_closed("TWO_D_ONE", 1)):
        with mpmath.workprec(polylog.PRECISION):
            assert +value == value


def test_zeta_domain():
    with pytest.raises(DomainError):
        polylog.zeta(1)


def test_li_examples():
    assert abs(float(polylog.li(1, 0.5).value) - math.log(2)) < 1e-14
    assert abs(float(polylog.li(2, 1).value) - math.pi ** 2 / 6) < 1e-14
    assert float(polylog.li(3, 0.0).value) == 0
    assert abs(float(polylog.li(2, -1).value) + math.pi ** 2 / 12) < 1e-14
    assert abs(float(polylog.li(2, 0.5).value) -
               (math.pi ** 2 / 12 - math.log(2) ** 2 / 2)) < 1e-12


def test_li_closed_forms():
    ln2 = math.log(2)
    # alternating values: Li_s(-1) = -(1 - 2^(1-s)) zeta(s)
    for s in (2, 3, 4, 5):
        value = -(1 - 2.0 ** (1 - s)) * float(polylog.zeta(s))
        assert abs(polylog.li(s, -1).value - value) <= 4e-16
    assert abs(polylog.li(2, 0.5).value - (math.pi ** 2 / 12 - ln2 ** 2 / 2)) <= 4e-16
    assert abs(polylog.li(3, 0.5).value
               - (7 * ZETA3 / 8 - math.pi ** 2 * ln2 / 12 + ln2 ** 3 / 6)) <= 4e-16
    # reflection next to x = 1, where the power series converges slowest;
    # 1 - x is exact in float64 here
    x = 0.9999999
    y = 1 - x
    value = math.pi ** 2 / 6 - math.log(x) * math.log(y)
    assert abs(polylog.li(2, x).value + polylog.li(2, y).value - value) <= 1e-15


def test_li_domain():
    with pytest.raises(DomainError):
        polylog.li(1, 1)
    with pytest.raises(DomainError):
        polylog.li(2, 1.5)
    # no slack past the unit circle
    with pytest.raises(DomainError):
        polylog.li(2, math.nextafter(1, 2))
    with pytest.raises(DomainError):
        polylog.li(0, 0.5)


def test_li_rejects_nan():
    # mpmath never returns for a NaN argument; depth-one star sums go
    # through the same call
    with pytest.raises(DomainError):
        polylog.li(2, math.nan)
    with pytest.raises(DomainError):
        polylog.li_star((2,), (math.nan,))
    with pytest.raises(DomainError):
        polylog.li_star_diff((2,), (), math.nan, 0.5, 1e-9)


@pytest.mark.parametrize("call", (
    lambda: polylog.li_star((2,), (math.nan,)),
    lambda: polylog.li_star((2, 1), (math.nan, 0.5)),
    lambda: polylog.li_star_diff((1, 1), (math.nan,), 0.5, 0.25, 1e-8),
    lambda: polylog.li_star_diff((1, 1), (0.5,), math.nan, 0.25, 1e-8),
    lambda: polylog.li_star_diff((1, 1), (0.5,), 0.5, math.nan, 1e-8),
    lambda: polylog.mean_average_infinite((2,), math.nan, 1e-6),
    lambda: polylog.li_star((1, 1), (0.0, math.inf)),
    lambda: polylog.li_star_diff((1, 1), (0.5,), math.inf, math.inf, 1e-8),
    lambda: polylog.li_star((2, 1), (math.inf, 0.5)),
    lambda: polylog.mean_average_infinite((2,), math.inf, 1e-6),
), ids=("li_star-depth1", "li_star", "li_star_diff-xs", "li_star_diff-x_hi",
        "li_star_diff-x_lo", "mean_average_infinite", "li_star-inf-zero",
        "li_star_diff-inf-equal", "li_star-inf", "mean_average_infinite-inf"))
def test_nan_arguments_raise_domain_error_before_any_ladder(monkeypatch, call):
    # a NaN or infinite prefix product would otherwise be refused as a
    # pairing failure, and an infinite argument beside a zero one, or as
    # both ends of a difference, would take an exact-zero shortcut
    def ladder(*args, **kwargs):
        raise AssertionError("a ladder ran on a non-finite argument")

    for name in ("_star_ladder", "_node_rows", "adaptive_sum"):
        monkeypatch.setattr(polylog, name, ladder)
    with pytest.raises(DomainError):
        call()


class _LadderReached(Exception):
    pass


@pytest.mark.parametrize("call, outcome", (
    (lambda: polylog.li_star((1, 1), (1 - 1e-13, 0.5)), NonConvergenceError),
    (lambda: polylog.li_star_diff((1, 2), (1.0,), 1.0, 0.5, 1e-8), DomainError),
    (lambda: polylog.li_star((1, 1), (-1.0, 0.5)), _LadderReached),
    (lambda: polylog.li_star((1, 1), (1 - 1e-11, 0.9)), NonConvergenceError),
    (lambda: polylog.li_star((2, 1), (1.0, 1.0)), _LadderReached),
), ids=("s1=1-x1-marginal", "diff-s1=1-x1=1", "x1=-1", "x1-below-margin", "s1=2-x1=1"))
def test_divergence_criterion_at_its_margins(monkeypatch, call, outcome):
    # an exact (s_1, x_1) = (1, 1) diverges, and s_1 = 1 with x_1^POLY_MAX_N
    # above the tolerance needs more terms than the ladder has: both are
    # refused before any ladder level runs; every other paired spec reaches
    # the ladder
    def ladder(*args, **kwargs):
        raise _LadderReached

    monkeypatch.setattr(polylog, "adaptive_sum", ladder)
    with pytest.raises(outcome):
        call()


@pytest.mark.parametrize("tol", (math.nan, math.inf), ids=("nan", "inf"))
@pytest.mark.parametrize("side", (
    lambda tol: polylog.li_star_diff((1, 1), (0.5,), 0.9, 0.4, tol),
    lambda tol: polylog.mean_kernel_infinite((2,), tol),
    lambda tol: polylog.mean_average_infinite((2,), 0.5, tol),
    lambda tol: polylog.li_identity_sides("INTRO_SERIES", 2, 0.5, 0.5, tol),
), ids=("li_star_diff", "mean_kernel_infinite", "mean_average_infinite",
        "li_identity_sides"))
def test_ladders_reject_non_finite_tolerance(side, tol):
    # a NaN tolerance never stops a ladder, and an infinite one stops it
    # at once
    with pytest.raises(DomainError):
        side(tol)


def test_li_star_examples():
    r = polylog.li_star((2,), (1.0,), 1e-10)
    assert abs(float(r.value) - math.pi ** 2 / 6) < 1e-10
    r = polylog.li_star((1, 1), (0.7, 0.0))
    assert float(r.value) == 0 and r.terms_used == 0
    r = polylog.li_star((1, 1), (0.5, 1.0), 1e-9)
    assert abs(float(r.value) - math.pi ** 2 / 12) < 1e-9


def test_li_star_pairing_rejection():
    with pytest.raises(PairingUnavailableError):
        polylog.li_star((1, 1), (2.0, 0.9))
    # the gamma run alone leaves the unit disc, and the message names its
    # prefix products
    with pytest.raises(PairingUnavailableError, match=re.escape(str([0.9, 0.9 * 1.2]))):
        polylog.li_star_diff((1, 1), (0.9,), 0.5, 1.2, 1e-9)


def test_li_star_divergence_rejection():
    with pytest.raises(DomainError):
        polylog.li_star((1, 1), (1.0, 0.5))  # leading unit-weight direction
    with pytest.raises(DomainError):
        polylog.li_star((1, 2), (1.0, 1.0))
    with pytest.raises(DomainError):
        polylog.li_star_diff((1, 2), (1.0,), 1.0, 0.5, 1e-9)


def test_li_star_diff_matches_separate():
    comp = Composition((1, 1, 1, 1))
    xs = (0.5, 2.0, 0.5)
    d = polylog.li_star_diff(comp, xs, 2.0, 1.0, 1e-9)
    a = polylog.li_star(comp, xs + (2.0,), 1e-10)
    b = polylog.li_star(comp, xs + (1.0,), 1e-10)
    assert abs(float(d.value) - (float(a.value) - float(b.value))) < 5e-9
    assert d.converged


def test_li_star_diff_degenerate():
    d = polylog.li_star_diff(Composition((2, 1)), (1.0,), 0.5, 0.5, 1e-9)
    assert float(d.value) == 0 and d.terms_used == 0


@pytest.mark.parametrize("s, xs", (((2, 1), (F(1, 2),)), ((2,), ())), ids=("ladder", "depth1"))
def test_li_star_diff_compares_its_last_arguments_before_rounding(s, xs):
    # equal exact arguments give the exact zero; distinct ones that round
    # to one float64 would read as that zero, so they raise
    third = F(1, 3)
    zero = polylog.li_star_diff(s, xs, third, third, 1e-9)
    assert (zero.value, zero.error_estimate, zero.terms_used) == (0.0, 0.0, 0)
    with pytest.raises(NonConvergenceError, match=r"^float64 rounding collapses the rhs "
                       r"difference: its last arguments differ by 1\.85e-17 but both "
                       r"round to 0\.3333333333333333$"):
        polylog.li_star_diff(s, xs, third, float(third), 1e-9)


def test_reduced_identity_builds_one_minus_one_over_p_exactly():
    # at p = 3/4 the second argument 1 - 1/p is -1/3: an exact a = -1/3
    # gives the exact zero, and its float64 rounding collapses the difference
    _, rhs = polylog.li_identity_sides("INTRO_RED_R", 2, F(-1, 3), 0.75, 1e-8)
    assert (rhs.value, rhs.error_estimate, rhs.terms_used) == (0.0, 0.0, 0)
    with pytest.raises(NonConvergenceError, match="^float64 rounding collapses"):
        polylog.li_identity_sides("INTRO_RED_R", 2, -1 / 3, 0.75, 1e-8)


def test_a_sum_longer_than_its_ladder_names_the_terms_it_needs():
    # x_1^N > tol up to N = ln(tol) / ln(x_1) = 2.07e10, far past POLY_MAX_N
    with pytest.raises(NonConvergenceError, match=r"needs about 2\.07e\+10 terms"):
        polylog.li_star((1, 1), (0.999999999, 0.9), 1e-9)
    # an x_1 that rounds to 1 is within 2^-53 of it: 2^53 ln(1/tol) terms
    with pytest.raises(NonConvergenceError, match=r"needs about 1\.87e\+17 terms"):
        polylog.li_star((1, 1), (1 - F(1, 10 ** 30), 0.5), 1e-9)
    # an exact unit x_1 diverges, as an int, a Fraction or a float
    for one in (1, F(1), 1.0):
        with pytest.raises(DomainError, match="diverges"):
            polylog.li_star((1, 1), (one, 0.5))


LADDER_CASES = [
    lambda: polylog.li_star((2, 1), (0.5, 0.9), 1e-10),       # geometric
    lambda: polylog.li_star((1, 2), (-1.0, 0.7), 1e-10),      # alternating
    lambda: polylog.li_star((2, 1), (1.0, 1.0), 1e-8),        # zeta*(2,1)
    lambda: polylog.li_star_diff((2, 1), (0.6,), 0.9, -0.5, 1e-10),
    lambda: polylog.li_star_diff((2, 1, 1), (1.0, 1.0), 1.0, 0.5, 1e-8),
]


@pytest.mark.parametrize("case", range(len(LADDER_CASES)))
def test_star_ladder_matches_fresh_per_level_dp(monkeypatch, case):
    # the resumed ladder gives exactly the result of a fresh DP at every
    # level, and returns only the columns it computes: N x L in all
    calls = []

    def recording(evaluator, schedule, **kwargs):
        calls.append((schedule, kwargs))
        return chains.adaptive_sum(evaluator, schedule, **kwargs)

    specs = []
    real = polylog.GapState.of_spec

    def of_spec(spec):
        specs.append(spec)
        return real(spec)

    monkeypatch.setattr(polylog, "adaptive_sum", recording)
    monkeypatch.setattr(polylog.GapState, "of_spec", staticmethod(of_spec))
    got = LADDER_CASES[case]()
    (schedule, kwargs), = calls
    spec, = specs
    want = chains.adaptive_sum(lambda N: (float(dp_chain_partials(spec, N)[N]), N * spec.length),
                               schedule, **kwargs)
    assert (got.value, got.error_estimate, got.truncation_level, got.converged) == \
        (want.value, want.error_estimate, want.truncation_level, want.converged)
    assert got.truncation_level >= 4 * chains.LADDER_START
    assert got.terms_used == got.truncation_level * spec.length


def _gap_column_calls(monkeypatch):
    """The truncation of every ``_gap_columns`` call from now on."""
    calls = []
    real = chains._gap_columns

    def recording(B, last, powers, lo, hi, carry):
        calls.append(hi)
        return real(B, last, powers, lo, hi, carry)

    monkeypatch.setattr(chains, "_gap_columns", recording)
    return calls


@pytest.mark.parametrize("ladder, stop", [
    (lambda: polylog.zeta_star((2, 1), 1e-8), 4096),                # polynomial
    (lambda: polylog.li_star((2, 1), (0.5, 0.9), 1e-10), 256),      # geometric
])
def test_star_ladder_computes_up_to_its_first_stop_in_one_pass(monkeypatch, ladder, stop):
    # the ladder cannot stop before its first stop level, so it extends its
    # state once, to that level, and reads the levels below from the columns
    calls = _gap_column_calls(monkeypatch)
    got = ladder()
    assert (got.truncation_level, got.converged) == (stop, True)
    assert calls == [stop]
    assert got.terms_used == stop * 2


def test_star_ladder_first_stop_is_clamped_to_the_last_level(monkeypatch):
    # nine marginal directions ask for 13 samples, one more level than
    # POLY_MAX_N allows: the first pass stops at POLY_MAX_N, the ladder ends
    # unconverged there, and the result is bit for bit the one of a fresh
    # DP per level
    calls = _gap_column_calls(monkeypatch)
    got = polylog.zeta_star((2,) + (1,) * 8, 1e-6)
    assert calls == [polylog.POLY_MAX_N]
    assert got == kernel.EvalResult(float.fromhex("0x1.1ff0ac988724fp+3"),
                                    float.fromhex("0x1.1ee35da1a0000p-7"),
                                    131072 * 9, 131072, False)


def test_zeta_star_values():
    r = polylog.zeta_star((2,), 1e-10)
    assert abs(float(r.value) - math.pi ** 2 / 6) < 1e-10
    r = polylog.zeta_star((2, 2), 1e-8)
    assert abs(float(r.value) - 7 * math.pi ** 4 / 360) < 1e-8
    r = polylog.zeta_star((2, 1), 1e-8)
    assert abs(float(r.value) - 2 * ZETA3) < 1e-8


def test_zeta_star_requires_leading_two():
    with pytest.raises(DomainError):
        polylog.zeta_star((1, 2))


def test_zeta_star_closed_forms():
    assert abs(float(polylog.zeta_star_closed("TWO_D", 1)) - math.pi ** 2 / 6) < 1e-15
    assert abs(float(polylog.zeta_star_closed("TWO_D", 2)) - 7 * math.pi ** 4 / 360) < 1e-15
    assert abs(float(polylog.zeta_star_closed("TWO_D_ONE", 1)) - 2 * ZETA3) < 1e-13
    with pytest.raises(DomainError):
        polylog.zeta_star_closed("OTHER", 1)


def test_closed_form_consistency_ladder():
    for d in (1, 2, 3):
        r = polylog.zeta_star((2,) * d, 1e-8)
        assert abs(float(r.value) - float(polylog.zeta_star_closed("TWO_D", d))) < 1e-8


def test_identity_sides_a1_depth1():
    sh = ShapeBlocks("A", (0,), ())
    lhs, rhs = polylog.li_identity_sides("LI1_A1", sh, 1, 0.5, 1e-8)
    assert abs(float(lhs.value) - math.pi ** 2 / 6) < 1e-8
    assert abs(float(lhs.value) - float(rhs.value)) < 1e-8


def test_identity_sides_li2_example():
    lhs, rhs = polylog.li_example_sides("B", 1, 0.5, 1e-8)
    assert abs(float(lhs.value) - 2 * ZETA3) < 1e-12
    assert abs(float(lhs.value) - float(rhs.value)) < 1e-8


def test_identity_sides_red1_depth1():
    sh = ShapeBlocks("A", (0,), ())
    lhs, rhs = polylog.li_identity_sides("LI1_RED1", sh, 1, 0.5, 1e-8)
    assert abs(float(lhs.value) - math.pi ** 2 / 12) < 1e-8
    assert abs(float(lhs.value) - float(rhs.value)) < 1e-8


def test_identity_sides_domain_gate():
    with pytest.raises(DomainError):
        polylog.li_identity_sides("INTRO_SERIES", 2, 1.0, 2.5, 1e-8)
    # bypass evaluates anyway
    lhs, rhs = polylog.li_identity_sides("INTRO_SERIES", 2, 1.0, 1.2, 1e-8,
                                         check_domain=False)
    assert abs(float(lhs.value) - float(rhs.value)) < 1e-8


def test_identity_sides_unknown():
    with pytest.raises(DomainError):
        polylog.li_identity_sides("NOPE", 2, 1, 0.5, 1e-8)


def test_mean_inf_identity_sides():
    lhs, rhs = polylog.li_identity_sides("MEAN_INF_1", (2,), 1, None, 1e-6)
    assert lhs.converged and rhs.converged
    assert abs(float(lhs.value) - float(rhs.value)) < 1e-6
    lhs, rhs = polylog.li_identity_sides("MEAN_INF_A", (2,), -1, None, 1e-6)
    assert abs(float(lhs.value) - float(rhs.value)) < 1e-6
    assert abs(float(lhs.value) + math.pi ** 2 / 12) < 1e-6


def test_mean_kernel_terms_count_q_dp_cells(monkeypatch):
    # the ladder runs one sweep at Q_MAX_N and reads every level from it;
    # its terms are that sweep's cell updates, charged to the levels whose
    # steps made them
    sweeps = []

    def counted(kernel, N):
        sweeps.append(N)
        return chains.dp_q_contributions(kernel, N)

    monkeypatch.setattr(polylog, "dp_q_contributions", counted)
    monkeypatch.setattr(polylog, "Q_MAX_N", 256)
    s = Composition((2, 1))
    res = polylog.mean_kernel_infinite(s, 1e-6)
    assert res.truncation_level == 256  # the ladder read 64, 128, 256
    assert sweeps == [256]
    _, _, cells = chains.dp_q_contributions(chains.QKernelSpec(s, "MEAN_INF", 1.0), 256)
    assert res.terms_used == sum(cells)
    # (2,) at N = 64: c(m) read at each step m, one accumulator over [m, 64]
    monkeypatch.setattr(polylog, "Q_MAX_N", 64)
    assert polylog.mean_kernel_infinite(Composition((2,)), 1e-6).terms_used == 64 + 64 * 65 // 2


@pytest.mark.parametrize("parts, closed", (((2,), lambda: polylog.zeta(2)),
                                           ((3,), lambda: polylog.zeta(3)),
                                           ((2, 2), lambda: 7 * polylog.zeta(4) / 4)),
                         ids=("2", "3", "2,2"))
def test_mean_kernel_ladder_levels_match_the_dp(monkeypatch, parts, closed):
    # each level read from the one sweep is the truncated DP at that level
    levels = {}

    def recorded(evaluator, schedule, **kwargs):
        def evaluate(N):
            levels[N], work = evaluator(N)
            return levels[N], work

        return chains.adaptive_sum(evaluate, schedule, **kwargs)

    monkeypatch.setattr(polylog, "adaptive_sum", recorded)
    s = Composition(parts)
    res = polylog.mean_kernel_infinite(s, 1e-6)
    assert sorted(levels) == [64 * 2 ** k for k in range(7)]
    kernel = chains.QKernelSpec(s, "MEAN_INF", 1.0)
    for N, value in levels.items():
        want = chains.dp_q_coupled(kernel, N)
        assert abs(value - want) <= 1e-13 * want
    assert res.converged and abs(res.value - float(closed())) <= 1e-6


def _scalar_transform_value(s, a, N, p):
    """One node of the MEAN_INF_A integrand, one spec per call."""
    spec = FactorSpec(transform_bases(s, p), (1,) * s.weight,
                      tail=(1.0 - p + a * p, 1.0 - p))
    return float(dp_chain_partials(spec, N)[N])


def _fresh_values(s, a, N, p):
    """The MEAN_INF_A integrand at truncation N from fresh node rows."""
    state = polylog._node_rows(s, a, p)
    state.extend(N)
    return state.values()


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("N", (1, 64, 4096))
@pytest.mark.parametrize("a", (-1.0, 0.5, 1.0))
def test_transform_values_match_scalar_integrand(N, a):
    # the nodes nearest p = 1 go through the same batched DP as the rest
    p = np.array([0.0, 0.2, 0.5, 0.9, 1 - 1e-7, 1 - 2e-13, 1 - 5e-14, 0.6])
    for parts in ((2,), (2, 1), (1, 3)):
        s = Composition(parts)
        got = _fresh_values(s, a, N, p)
        want = [_scalar_transform_value(s, a, N, x) for x in p]
        assert _hex(got) == _hex(want)
    assert _fresh_values(Composition((2,)), a, N, np.array([])).shape == (0,)


def _check_resumed_ladder(monkeypatch, s, a, tol):
    """Check :func:`polylog.mean_average_infinite` against the same ladder
    with fresh rows in every round, and its ``terms_used`` against the
    row-columns that ``_gap_columns`` computed.  Returns the result, its
    levels and its quadrature rounds as (N, nodes)."""
    levels, rounds, computed = [], [], [0]
    real_columns = chains._gap_columns

    def ladder(evaluator, schedule, **kwargs):
        def evaluate(N):
            levels.append(N)
            return evaluator(N)

        return chains.adaptive_sum(evaluate, schedule, **kwargs)

    def recorded(f, lo, hi, tol_, **kwargs):
        def integrand(p):
            rounds.append((levels[-1], p.copy()))
            return f(p)

        return kernel.adaptive_quadrature(integrand, lo, hi, tol_, **kwargs)

    def columns(B, last, powers, lo, hi, carry):
        computed[0] += len(last) * (hi - lo) * len(powers)
        return real_columns(B, last, powers, lo, hi, carry)

    monkeypatch.setattr(polylog, "adaptive_sum", ladder)
    monkeypatch.setattr(polylog, "adaptive_quadrature", recorded)
    monkeypatch.setattr(chains, "_gap_columns", columns)
    got = polylog.mean_average_infinite(s, a, tol)
    got_levels = levels.copy()
    monkeypatch.setattr(chains, "_gap_columns", real_columns)

    def fresh(f, lo, hi, tol_, **kwargs):
        N = levels[-1]

        def integrand(p):
            f(p)  # the ladder's own rows still run, so its store stays whole
            return _fresh_values(s, a, N, p)

        return kernel.adaptive_quadrature(integrand, lo, hi, tol_, **kwargs)

    monkeypatch.setattr(polylog, "adaptive_quadrature", fresh)
    want = polylog.mean_average_infinite(s, a, tol)
    # bit-identical to fresh rows in every round
    assert _hex((got.value, got.error_estimate)) == _hex((want.value, want.error_estimate))
    assert (got.truncation_level, got.converged) == (want.truncation_level, want.converged)
    # the ladder counts the columns the gap DP computed, and they are those
    # of a store that keeps only the last level's nodes: a node that level
    # visited resumes from its truncation, every other node starts afresh
    expected, kept, previous = 0, set(), 0
    for N in got_levels:
        visited = [x for n, p in rounds if n == N for x in p.tolist()]
        expected += sum(N - previous if x in kept else N for x in visited) * s.weight
        kept, previous = set(visited), N
    assert got.terms_used == computed[0] == expected
    assert got.terms_used < sum(N * s.weight * len(p) for N, p in rounds)
    return got, got_levels, rounds


def test_mean_average_resumes_node_rows(monkeypatch):
    # a short ladder (64..512) at a loose tolerance, one quadrature round a
    # level
    monkeypatch.setattr(polylog, "MEAN_INTEGRAL_MAX_N", 512)
    s = Composition((2, 1))
    got, levels, _ = _check_resumed_ladder(monkeypatch, s, 0.5, 1e-2)
    assert got.truncation_level == levels[-1] == 512


def test_mean_average_resumes_node_rows_across_rounds(monkeypatch):
    # at tolerance 1e-9 every level bisects: its later rounds take rows of
    # the previous level and start new nodes, and the level's rounds are
    # stacked into the store the next level resumes from
    monkeypatch.setattr(polylog, "MEAN_INTEGRAL_MAX_N", 1024)
    s = Composition((2, 1))
    got, levels, rounds = _check_resumed_ladder(monkeypatch, s, 0.5, 1e-9)
    assert all(sum(n == N for n, _ in rounds) >= 2 for N in levels)
    assert got.truncation_level == levels[-1] == 1024


def test_node_store_keeps_only_the_last_level(monkeypatch):
    # scripted rounds over the levels 64, 128 and 256: a level that visits
    # fewer nodes than the one before, a level of two rounds, and a node
    # (0.4) that skips a level and so starts afresh; the edge node (5e-14
    # below p = 1) is kept like any other
    s, a, edge = Composition((2, 1)), -1.0, 1 - 5e-14
    script = iter([(64, [[0.1, 0.4, 0.7, edge]]),
                   (128, [[0.7, edge], [0.1, 0.25]]),
                   (256, [[0.4, 0.25, 0.1]])])

    def quadrature(f, lo, hi, tol, breaks):
        N, level = next(script)
        for p in map(np.array, level):
            assert _hex(f(p)) == _hex(_fresh_values(s, a, N, p))
        return 0.0

    monkeypatch.setattr(polylog, "adaptive_quadrature", quadrature)
    monkeypatch.setattr(polylog, "MEAN_INTEGRAL_MAX_N", 256)
    res = polylog.mean_average_infinite(s, a, 1e-6)
    assert res.truncation_level == 256
    # each column over the weight-3 chain: four fresh rows to 64; at 128
    # three rows resume from 64 and 0.25 starts afresh; at 256 0.25 and 0.1
    # resume from 128 and 0.4 starts afresh
    assert res.terms_used == 3 * (4 * 64 + (3 * 64 + 128) + (256 + 2 * 128))


@pytest.mark.parametrize("edge", (5e-14, 1e-14, 1.0 - math.nextafter(1.0, 0.0)))
@pytest.mark.parametrize("N", (1, 64, 4096))
@pytest.mark.parametrize("a", (-1.0, 0.5, 1.0))
def test_transform_values_near_p_one_match_the_collapsed_spec(a, N, edge):
    # as p -> 1 only the zero-gap chains survive: the transform tends to the
    # chain sum with bases (1, ..., 1, a) and powers s, within O(1 - p)
    p = np.array([1.0 - edge])
    for parts in ((2,), (2, 1), (1, 3), (3,), (2, 2)):
        s = Composition(parts)
        collapsed = FactorSpec((1.0,) * (s.depth - 1) + (a,), s.parts)
        want = float(dp_chain_partials(collapsed, N)[N])
        got = _fresh_values(s, a, N, p)[0]
        assert abs(got - want) <= 4 * edge * (1 + abs(want)) + 1e-15
    with pytest.raises(DomainError):
        _fresh_values(Composition((2, 1)), a, N, np.array([0.5, 1.0]))


def test_mean_lhs_converges_predicate():
    assert polylog.mean_lhs_converges((2,), 1)
    assert polylog.mean_lhs_converges((2, 1), -1)
    assert polylog.mean_lhs_converges((1,), 0.5)
    assert not polylog.mean_lhs_converges((1,), 1)
    assert not polylog.mean_lhs_converges((1, 1), 0.5)
    assert not polylog.mean_lhs_converges((2,), 1.5)
    # on the exact a: either side of 1, though both round to it
    assert polylog.mean_lhs_converges((1,), 1 - Fraction(1, 10 ** 20))
    assert not polylog.mean_lhs_converges((2,), 1 + Fraction(1, 10 ** 20))


def test_li_tests_the_exact_argument_before_rounding_it():
    tiny = Fraction(1, 10 ** 20)
    with pytest.raises(DomainError, match=r"^\|x\| <= 1 required"):
        polylog.li(2, 1 + tiny)
    with pytest.raises(DomainError, match=r"^\|x\| <= 1 required"):
        polylog.li_star((2,), (1 + tiny,))
    with pytest.raises(NonConvergenceError, match="^float64 rounding collapses Li_1"):
        polylog.li(1, 1 - tiny)
    # below s = 1 the rounding is harmless: Li_2 is continuous at 1
    assert polylog.li(2, 1 - tiny).value == polylog.li(2, 1).value
    # the depth-one difference hands li its exact arguments too
    with pytest.raises(NonConvergenceError, match="^float64 rounding collapses Li_1"):
        polylog.li_star_diff((1,), (), 1 - tiny, Fraction(1, 2), 1e-9)


def test_p_independence_of_unit_argument_difference():
    # the same zeta-star value emerges for every p; rhs values agree pairwise
    sh = ShapeBlocks("A", (0, 0), (0,))
    values = []
    for p in (0.3, 0.5, 0.7):
        _, rhs = polylog.li_identity_sides("LI1_A1", sh, 1, p, 1e-8)
        values.append(float(rhs.value))
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            assert abs(values[i] - values[j]) <= 2e-8
