import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polystar import chains, polylog
from polystar.chains import FactorSpec, PairingUnavailableError, dp_chain_partials
from polystar.compositions import Composition, ShapeBlocks, transform_bases
from polystar.kernel import DomainError

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
    # level, and counts only the columns it computes: N x L in all
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
    kwargs.pop("cost_per_level")
    want = chains.adaptive_sum(lambda N: float(dp_chain_partials(spec, N)[N]), schedule,
                               cost_per_level=lambda N: N * spec.length, **kwargs)
    assert (got.value, got.error_estimate, got.truncation_level, got.converged) == \
        (want.value, want.error_estimate, want.truncation_level, want.converged)
    assert got.truncation_level >= 4 * schedule.start
    assert got.terms_used == got.truncation_level * spec.length


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

    def counted(kernel, N, exact=None):
        sweeps.append(N)
        return chains.dp_q_contributions(kernel, N, exact)

    monkeypatch.setattr(polylog, "dp_q_contributions", counted)
    monkeypatch.setattr(polylog, "Q_MAX_N", 256)
    s = Composition((2, 1))
    res = polylog.mean_kernel_infinite(s, 1e-6)
    assert res.truncation_level == 256  # the ladder read 64, 128, 256
    assert sweeps == [256]
    _, _, cells = chains.dp_q_contributions(chains.QKernelSpec(s, "MEAN_INF"), 256, False)
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
        return chains.adaptive_sum(lambda N: levels.setdefault(N, evaluator(N)),
                                   schedule, **kwargs)

    monkeypatch.setattr(polylog, "adaptive_sum", recorded)
    s = Composition(parts)
    res = polylog.mean_kernel_infinite(s, 1e-6)
    assert sorted(levels) == [64 * 2 ** k for k in range(7)]
    kernel = chains.QKernelSpec(s, "MEAN_INF")
    for N, value in levels.items():
        want = chains.dp_q_coupled(kernel, N, exact=False)
        assert abs(value - want) <= 1e-13 * want
    assert res.converged and abs(res.value - float(closed())) <= 1e-6


def _scalar_transform_value(s, a, N, p):
    """One node of the MEAN_INF_A integrand, one spec per call."""
    spec = FactorSpec(transform_bases(s, p), (1,) * s.weight,
                      tail=(1.0 - p + a * p, 1.0 - p))
    return float(dp_chain_partials(spec, N)[N])


@pytest.mark.parametrize("N", (1, 64, 4096))
@pytest.mark.parametrize("a", (-1.0, 0.5, 1.0))
def test_transform_values_match_scalar_integrand(N, a):
    # the nodes nearest p = 1 go through the same batched DP as the rest
    p = np.array([0.0, 0.2, 0.5, 0.9, 1 - 1e-7, 1 - 2e-13, 1 - 5e-14, 0.6])
    for parts in ((2,), (2, 1), (1, 3)):
        s = Composition(parts)
        got = polylog._transform_values(s, a, N, p, polylog._NodeStates())
        want = [_scalar_transform_value(s, a, N, x) for x in p]
        assert [float(v).hex() for v in got] == [v.hex() for v in want]
    assert polylog._transform_values(Composition((2,)), a, N, np.array([]),
                                     polylog._NodeStates()).shape == (0,)


def test_mean_average_resumes_node_rows(monkeypatch):
    # a short ladder (64..512) at a loose tolerance: the resumed run gives
    # exactly the result of a fresh DP per node and level, counts the
    # columns that the gap DP really computes, and keeps only the nodes of
    # the last level
    monkeypatch.setattr(polylog, "MEAN_INTEGRAL_MAX_N", 512)
    s, a, tol = Composition((2, 1)), 0.5, 1e-2
    real_transform, real_columns = polylog._transform_values, chains._gap_columns
    calls, computed = [], [0]

    def transform(s_, a_, N, p, nodes):
        calls.append((N, p.copy(), nodes))
        return real_transform(s_, a_, N, p, nodes)

    def columns(B, last, powers, lo, hi, carry):
        computed[0] += len(last) * (hi - lo) * len(powers)
        return real_columns(B, last, powers, lo, hi, carry)

    monkeypatch.setattr(polylog, "_transform_values", transform)
    monkeypatch.setattr(chains, "_gap_columns", columns)
    got = polylog.mean_average_infinite(s, a, tol)
    assert got.terms_used == computed[0]
    fresh_terms = sum(N * s.weight * len(p) for N, p, _ in calls)
    assert got.terms_used < fresh_terms
    nodes = calls[-1][2]
    last = calls[-1][0]
    visited = {x for N, p, _ in calls if N == last for x in p.tolist()}
    assert set(nodes.rows) == visited
    assert all(state.n_done == last for state, _ in nodes.rows.values())

    def fresh_transform(s_, a_, N, p, nodes):
        return real_transform(s_, a_, N, p, polylog._NodeStates())

    monkeypatch.setattr(polylog, "_transform_values", fresh_transform)
    want = polylog.mean_average_infinite(s, a, tol)
    assert [float(x).hex() for x in (got.value, got.error_estimate)] == \
        [float(x).hex() for x in (want.value, want.error_estimate)]
    assert (got.truncation_level, got.converged) == (want.truncation_level, want.converged)
    assert got.truncation_level == last == 512


def test_node_store_keeps_only_the_last_level():
    # a level that visits fewer nodes than the one before: its rows resume,
    # the edge node (5e-14 below p = 1) is stored like any other, and
    # keep() drops the node the level did not visit
    s, a = Composition((2, 1)), -1.0
    p = np.array([0.1, 0.4, 0.7, 1 - 5e-14])
    nodes = polylog._NodeStates()
    polylog._transform_values(s, a, 64, p, nodes)
    assert set(nodes.rows) == set(p.tolist())
    got = polylog._transform_values(s, a, 128, p[[2, 3, 0]], nodes)
    want = polylog._transform_values(s, a, 128, p[[2, 3, 0]], polylog._NodeStates())
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    # four fresh rows to 64, then three resumed rows from 64 to 128, each
    # column over the weight-3 chain
    assert nodes.terms == 4 * 64 * 3 + 3 * (128 - 64) * 3
    nodes.keep(128)
    assert set(nodes.rows) == {0.1, 0.7, 1 - 5e-14}


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
        got = polylog._transform_values(s, a, N, p, polylog._NodeStates())[0]
        assert abs(got - want) <= 4 * edge * (1 + abs(want)) + 1e-15
    with pytest.raises(DomainError):
        polylog._transform_values(Composition((2, 1)), a, N, np.array([0.5, 1.0]),
                                  polylog._NodeStates())


def test_mean_lhs_converges_predicate():
    assert polylog.mean_lhs_converges((2,), 1)
    assert polylog.mean_lhs_converges((2, 1), -1)
    assert polylog.mean_lhs_converges((1,), 0.5)
    assert not polylog.mean_lhs_converges((1,), 1)
    assert not polylog.mean_lhs_converges((1, 1), 0.5)
    assert not polylog.mean_lhs_converges((2,), 1.5)


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
