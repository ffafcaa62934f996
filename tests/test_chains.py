import math
import random
from fractions import Fraction

import pytest

from polystar import exact
from polystar.chains import (FactorSpec, PairingUnavailableError, QKernelSpec,
                             TruncationSchedule, adaptive_sum, dp_chain_partials,
                             dp_chain_sum, dp_q_coupled, dp_q_naive,
                             naive_chain_sum)
from polystar.compositions import Composition
from polystar.kernel import BudgetExceededError, DomainError

F = Fraction


def test_naive_examples():
    assert naive_chain_sum(FactorSpec((F(1),), (1,)), 3) == F(11, 6)
    assert naive_chain_sum(FactorSpec((F(1), F(1)), (2, 1)), 2) == F(11, 8)
    assert naive_chain_sum(FactorSpec((F(1), F(0)), (1, 1)), 6) == 0


def test_naive_budget():
    with pytest.raises(BudgetExceededError):
        naive_chain_sum(FactorSpec((F(1),) * 5, (1,) * 5), 500, budget=1000)


def test_factor_spec_validation():
    with pytest.raises(DomainError):
        FactorSpec((), ())
    with pytest.raises(DomainError):
        FactorSpec((F(1),), (1, 2))
    with pytest.raises(DomainError):
        FactorSpec((F(1),), (-1,))


def test_dp_equals_naive_seeded():
    rng = random.Random(99)
    for _ in range(60):
        L = rng.randint(1, 5)
        N = rng.randint(1, 18)
        bases = tuple(F(rng.randint(-24, 24), 12) for _ in range(L))
        powers = tuple(rng.randint(0, 3) for _ in range(L))
        tail = None
        if rng.random() < 0.4:
            tail = (F(rng.randint(-12, 12), 12), F(rng.randint(-12, 12), 12))
        spec = FactorSpec(bases, powers, tail)
        assert dp_chain_sum(spec, N) == naive_chain_sum(spec, N)


def test_dp_float_pairing_matches_exact():
    # interior base 2 paired against the leading 1/2: stable to N = 200
    exact_spec = FactorSpec((F(1, 2), F(2)), (1, 1))
    float_spec = FactorSpec((0.5, 2.0), (1, 1))
    v25 = float(dp_chain_sum(exact_spec, 25))
    assert abs(dp_chain_sum(float_spec, 25) - v25) < 1e-12
    v200 = dp_chain_sum(float_spec, 200)
    assert math.isfinite(v200)
    assert v200 > v25  # positive summands extend monotonically


def test_dp_float_harmonic_square_tail():
    v = dp_chain_sum(FactorSpec((1.0,), (2,)), 10 ** 4)
    assert abs(v - math.pi ** 2 / 6) < 1.1e-4


def test_dp_float_unpaired_scaled_fallback():
    # unpaired growing base: finite truncation still evaluable, matches exact
    spec_f = FactorSpec((3.0, 0.5), (1, 1))
    spec_e = FactorSpec((F(3), F(1, 2)), (1, 1))
    for N in (5, 15, 25):
        got = dp_chain_sum(spec_f, N)
        want = float(dp_chain_sum(spec_e, N))
        assert abs(got - want) <= 1e-10 * abs(want)


def test_dp_partials_are_prefixes():
    spec = FactorSpec((0.5, 1.0), (1, 2))
    part = dp_chain_partials(spec, 64)
    assert abs(part[32] - dp_chain_sum(spec, 32)) < 1e-15
    assert abs(part[64] - dp_chain_sum(spec, 64)) < 1e-15


def test_monotone_convergence_nonnegative():
    spec = FactorSpec((F(1, 2), F(1)), (1, 2))
    values = [dp_chain_sum(spec, N) for N in (2, 4, 8, 16)]
    assert all(values[i] <= values[i + 1] for i in range(3))


# ---------------------------------------------------------------------------
# Q-coupled kernels
# ---------------------------------------------------------------------------

def test_q_coupled_examples():
    assert dp_q_coupled(QKernelSpec(Composition((1,)), "MEAN_FULL", F(1)), 3) == F(13, 12)
    # chains (1,1),(2,1),(2,2): 1/2 + 1/12 + 1/6
    assert dp_q_coupled(QKernelSpec(Composition((2,)), "MEAN_INF"), 2) == F(3, 4)


# (1, 2, 1) has a leading and an interior 0 sign, (4,) a block of size >= 3
Q_COMPOSITIONS = ((2,), (2, 2), (3, 2), (1, 1), (1, 2, 1), (4,))


def test_q_coupled_matches_enumeration():
    for parts in Q_COMPOSITIONS:
        s = Composition(parts)
        for kind in ("MEAN_FULL", "MEAN_INF"):
            for a in (F(1), F(-1), F(1, 2)):
                if kind == "MEAN_INF" and a != 1:
                    continue
                k = QKernelSpec(s, kind, a)
                for N in (1, 4, 9):
                    value = dp_q_coupled(k, N)
                    assert type(value) is F
                    assert value == dp_q_naive(k, N)


def test_q_coupled_float_matches_exact():
    for parts in Q_COMPOSITIONS:
        for kind, a, sizes in (("MEAN_INF", F(1), (5, 17)),
                               ("MEAN_FULL", F(1, 2), (4, 9)),
                               ("MEAN_FULL", F(-1), (9,))):
            k = QKernelSpec(Composition(parts), kind, a)
            for N in sizes:
                value = dp_q_coupled(k, N, float_mode=True)
                assert type(value) is float
                assert abs(value - float(dp_q_coupled(k, N))) < 1e-12
    # a float weight selects the float table by default
    k = QKernelSpec(Composition((2, 1)), "MEAN_FULL", 0.5)
    assert type(dp_q_coupled(k, 4)) is float


def test_q_coupled_mean_rhs_consistency():
    k = QKernelSpec(Composition((2, 1)), "MEAN_FULL", F(1, 2))
    assert dp_q_coupled(k, 6) == exact.mean_rhs(6, (2, 1), F(1, 2))


def test_q_coupled_state_budget():
    with pytest.raises(BudgetExceededError):
        dp_q_coupled(QKernelSpec(Composition((2, 2)), "MEAN_INF"), 10 ** 5)


# ---------------------------------------------------------------------------
# adaptive truncation
# ---------------------------------------------------------------------------

def test_adaptive_sum_geometric_log2():
    spec = FactorSpec((0.5,), (1,))
    sched = TruncationSchedule(tolerance=1e-10)
    res = adaptive_sum(lambda N: dp_chain_sum(spec, N), sched)
    assert res.converged
    assert float(res.error_estimate) <= sched.tolerance
    assert abs(float(res.value) - math.log(2)) < 1e-10


def test_adaptive_sum_zero_spec():
    spec = FactorSpec((0.0, 0.5), (1, 1))
    sched = TruncationSchedule(tolerance=1e-10)
    res = adaptive_sum(lambda N: dp_chain_sum(spec, N), sched)
    assert res.converged
    assert float(res.value) == 0


def test_adaptive_sum_mean_kernel_polynomial():
    k = QKernelSpec(Composition((2,)), "MEAN_INF")
    sched = TruncationSchedule(max_n=4096, tolerance=1e-6, extrapolate=True)
    res = adaptive_sum(lambda N: dp_q_coupled(k, N, float_mode=True), sched,
                       tail="polynomial")
    assert res.converged
    assert abs(float(res.value) - math.pi ** 2 / 6) < 1e-6


def test_adaptive_sum_not_converged_flag():
    # harmonic-like decay cannot satisfy a geometric test within a tiny budget
    spec = FactorSpec((1.0,), (2,))
    sched = TruncationSchedule(start=4, max_n=64, tolerance=1e-12)
    res = adaptive_sum(lambda N: dp_chain_sum(spec, N), sched)
    assert not res.converged


def test_adaptive_sum_determinism():
    k = QKernelSpec(Composition((2,)), "MEAN_INF")
    sched = TruncationSchedule(max_n=2048, tolerance=1e-6, extrapolate=True)
    r1 = adaptive_sum(lambda N: dp_q_coupled(k, N, float_mode=True), sched)
    r2 = adaptive_sum(lambda N: dp_q_coupled(k, N, float_mode=True), sched)
    assert float(r1.value) == float(r2.value)
    assert r1.terms_used == r2.terms_used


def test_schedule_validation():
    with pytest.raises(DomainError):
        TruncationSchedule(growth=1)
    with pytest.raises(DomainError):
        TruncationSchedule(tolerance=0)
