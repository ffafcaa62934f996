import functools
import itertools
import math
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

from polystar import chains, exact
from polystar.catalog import _all_compositions
from polystar.chains import (FactorSpec, GapState, PairingUnavailableError, QKernelSpec,
                             TruncationSchedule, _block_powers, _gap_columns,
                             _walk_chains, adaptive_sum, dp_chain_partials, dp_chain_sum,
                             dp_q_contributions, dp_q_coupled, dp_q_naive,
                             naive_chain_sum)
from polystar.compositions import Composition, chain_q_signs, transform_bases
from polystar.kernel import BudgetExceededError, DomainError

F = Fraction


def test_naive_examples():
    assert naive_chain_sum(FactorSpec((F(1),), (1,)), 3) == F(11, 6)
    assert naive_chain_sum(FactorSpec((F(1), F(1)), (2, 1)), 2) == F(11, 8)
    assert naive_chain_sum(FactorSpec((F(1), F(0)), (1, 1)), 6) == 0


def test_naive_budget():
    with pytest.raises(BudgetExceededError):
        naive_chain_sum(FactorSpec((F(1),) * 5, (1,) * 5), 500, budget=1000)


def test_walker_visits_each_chain_once_in_order():
    for L in range(1, 5):
        for N in range(0, 9):
            seen = []

            def step(prefix, i, n):
                chain = prefix + (n,)
                if i < L - 1:
                    return chain
                seen.append(chain)
                return 1

            count = _walk_chains(N, L, (), step)
            want = sorted(c[::-1] for c in
                          itertools.combinations_with_replacement(range(1, N + 1), L))
            assert seen == want, (L, N)
            assert count == len(want)


def test_every_oracle_refuses_past_the_budget():
    # each oracle stops at the walker's single check, before enumerating
    with pytest.raises(BudgetExceededError, match="exceed budget 1000"):
        dp_q_naive(QKernelSpec(Composition((2, 1)), "MEAN_FULL", F(1)), 30, budget=1000)
    with pytest.raises(BudgetExceededError, match="exceed budget 1000"):
        dp_q_naive(QKernelSpec(Composition((2,)), "MEAN_INF"), 50, budget=1000)
    with pytest.raises(BudgetExceededError, match="exceed budget"):
        exact.mhsv_naive(10 ** 4, (1, 2, 1), F(1, 2))
    with pytest.raises(BudgetExceededError, match="exceed budget"):
        exact.main_rhs_literal(10 ** 4, (2, 1), F(1, 2), F(1, 3))
    # at the budget itself the enumeration runs: C(3 + 2 - 1, 2) = 6 chains
    k = QKernelSpec(Composition((2,)), "MEAN_INF")
    assert dp_q_naive(k, 3, budget=6) == dp_q_coupled(k, 3)
    with pytest.raises(BudgetExceededError):
        dp_q_naive(k, 3, budget=5)


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


def _fraction_columns(spec, N):
    """The exact factor columns in Fractions, one Fraction per entry: the
    reference the integer-numerator columns must match."""
    columns = []
    for base, power in zip(spec.bases, spec.powers):
        acc, col = F(1), []
        for j in range(1, N + 1):
            acc *= F(base)
            col.append(acc / j ** power)
        columns.append(col)
    if spec.tail is not None:
        alpha, gamma = F(spec.tail[0]), F(spec.tail[1])
        columns[-1] = [f * (alpha ** j - gamma ** j)
                       for j, f in enumerate(columns[-1], 1)]
    return columns


def _fraction_partials(columns):
    """The prefix-sum recurrence run in Fractions at every truncation."""
    L = len(columns)
    acc = [F(0)] * L
    out = [F(0)]
    for j in range(len(columns[0])):
        acc[L - 1] += columns[L - 1][j]
        for i in range(L - 2, -1, -1):
            acc[i] += columns[i][j] * acc[i + 1]
        out.append(acc[0])
    return out


# rationals with zero, negative and |b| > 1 values, some with equal
# denominators (shared tail denominators) and some without
exact_scalars = st.one_of(st.sampled_from((0, 1, -1, 2, F(1, 2), F(-3, 2))),
                          st.fractions(min_value=-3, max_value=3, max_denominator=7))


@st.composite
def exact_specs(draw):
    L = draw(st.integers(1, 4))
    bases = tuple(draw(st.lists(exact_scalars, min_size=L, max_size=L)))
    powers = tuple(draw(st.lists(st.integers(0, 3), min_size=L, max_size=L)))
    kind = draw(st.sampled_from(("none", "free", "equal", "alpha0", "gamma0")))
    alpha, gamma = draw(exact_scalars), draw(exact_scalars)
    tail = {"none": None, "free": (alpha, gamma), "equal": (alpha, alpha),
            "alpha0": (0, gamma), "gamma0": (alpha, 0)}[kind]
    return FactorSpec(bases, powers, tail)


def _lowest_terms(x):
    return type(x) is F and math.gcd(x.numerator, x.denominator) == 1


@given(exact_specs(), st.integers(0, 14))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_integer_dp_matches_fraction_dp(spec, N):
    want = _fraction_partials(_fraction_columns(spec, N))
    for n in range(N + 1):
        got = dp_chain_sum(spec, n)
        assert _lowest_terms(got)
        assert got == want[n]
    assert want[N] == naive_chain_sum(spec, N)


@given(st.lists(st.integers(1, 3), min_size=1, max_size=4), exact_scalars,
       st.integers(0, 14))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mhsv_all_matches_fraction_dp(parts, a, N):
    spec = FactorSpec((1,) * (len(parts) - 1) + (a,), parts)
    got = exact.mhsv_all(N, Composition(tuple(parts)), a)
    assert got == _fraction_partials(_fraction_columns(spec, N))
    assert all(_lowest_terms(x) for x in got)
    assert got[N] == naive_chain_sum(spec, N)


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


def test_dp_float_unpaired_is_rejected():
    # unpaired growing base: the float DP refuses it, the exact DP does not
    spec_f = FactorSpec((3.0, 0.5), (1, 1))
    spec_e = FactorSpec((F(3), F(1, 2)), (1, 1))
    for N in (5, 15, 25):
        with pytest.raises(PairingUnavailableError):
            dp_chain_sum(spec_f, N)
        with pytest.raises(PairingUnavailableError):
            dp_chain_partials(spec_f, N)
        with pytest.raises(PairingUnavailableError):
            _row_values(np.array([spec_f.bases]), spec_f.powers, N)
        assert dp_chain_sum(spec_e, N) == naive_chain_sum(spec_e, N)
    with pytest.raises(PairingUnavailableError):
        GapState.of_spec(spec_f)


def test_dp_partials_are_prefixes():
    spec = FactorSpec((0.5, 1.0), (1, 2))
    part = dp_chain_partials(spec, 64)
    assert abs(part[32] - dp_chain_sum(spec, 32)) < 1e-15
    assert abs(part[64] - dp_chain_sum(spec, 64)) < 1e-15


def _one_spec_gap_terms(B, powers, N, low=None):
    """Outer-layer gap-form terms of one spec with a full-length B_L^j, less
    a tail's full-length low^j, each power by the DP's blocked rule
    (``_block_powers``, whose accuracy ``test_block_powers_are_within_two_ulp``
    pins), and j^s recomputed: the reference the row-batched DP must
    match."""
    j = np.arange(1, N + 1, dtype=np.float64)
    powers = np.array(powers, dtype=np.float64)
    with np.errstate(under="ignore"):
        D = _block_powers([B[-1]], 0, N)[0]
        if low is not None:
            D = D - _block_powers([low], 0, N)[0]
        D = D / j ** powers[-1]
        for i in range(len(B) - 2, -1, -1):
            C = lfilter([1.0], [1.0, -B[i]], D)
            D = C / j ** powers[i]
    return D


def _one_spec_float_partials(spec, N):
    """The float DP one spec per call (see ``_one_spec_gap_terms``): a
    tail's two runs share the inner layers and differ in the last."""
    head, last = spec.bases[:-1], spec.bases[-1]
    runs = [head + (last * t,) for t in spec.tail] if spec.tail else [spec.bases]
    hi, *lo = (np.cumprod([float(b) for b in run]) for run in runs)
    totals = np.zeros(N + 1)
    totals[1:] = np.cumsum(_one_spec_gap_terms(hi, spec.powers, N,
                                               lo[0][-1] if lo else None))
    return totals


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("b", (0.5, -0.999, 1.0))
@pytest.mark.parametrize("shape", ((257,), (2, 257)), ids=("1-D", "2xn"))
def test_recurrence_core_matches_public_lfilter(b, shape):
    # for a length-2 denominator lfilter makes exactly this C call
    x = np.random.default_rng(5).standard_normal(shape)
    got = chains.load_lfilter()(np.ones(1), np.array([1.0, -b]), x, -1)
    assert np.array_equal(_bits(got), _bits(lfilter([1.0], [1.0, -b], x, axis=-1)))


@pytest.mark.parametrize("first", ("core", "scipy.signal"))
def test_recurrence_core_loads_before_or_after_scipy_signal(first):
    # a fresh process: the test session has imported scipy.signal already
    script = f"""if True:
        import sys
        import numpy as np
        from polystar import chains
        x = np.linspace(-1.0, 1.0, 202).reshape(2, 101)
        def core():
            load = chains.load_lfilter.__wrapped__  # a new load each time
            return load()(np.ones(1), np.array([1.0, -0.75]), x, -1)
        out = [core()] if {first!r} == "core" else []
        assert "scipy.signal" not in sys.modules
        import scipy.signal
        out += [core(), scipy.signal.lfilter([1.0], [1.0, -0.75], x, axis=-1)]
        print(len(out), all(np.array_equal(y.view(np.int64), out[0].view(np.int64))
                            for y in out))
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(3 if first == "core" else 2), "True"]


def _row_values(bases, powers, N, tail=None):
    """The values at truncation N of fresh :meth:`GapState.of_rows` rows,
    advanced in row chunks."""
    state = GapState.of_rows(bases, powers, tail)
    state.advance(N)
    return state.values()


# nodes across [0, 1): the ends, a deep edge node, and p within 1e-13 of 1
BATCH_NODES = (0.0, 1e-9, 0.03, 0.25, 0.5, 0.7, 0.93, 1 - 1e-6, 1 - 9e-14,
               1 - 5e-14)


@pytest.mark.parametrize("N", (1, 63, 64, 4096))
@pytest.mark.parametrize("a", (-1.0, 0.5, 1.0))
def test_batched_gap_dp_matches_per_row(N, a):
    s = Composition((2, 1, 2))
    L = s.weight
    p = np.array(BATCH_NODES)
    bases = np.array([transform_bases(s, x) for x in p])
    alpha, gamma = 1.0 - p + a * p, 1.0 - p
    got = _row_values(bases, (1,) * L, N, tail=(alpha, gamma))
    for r in range(len(bases)):
        spec = FactorSpec(tuple(bases[r]), (1,) * L, tail=(alpha[r], gamma[r]))
        assert _bits(got[r]) == _bits(dp_chain_partials(spec, N)[N])
        assert _bits(got[r]) == _bits(_one_spec_float_partials(spec, N)[N])
        # a tail of two scalars gives the row of a tail of length-1 arrays
        scalar = _row_values(bases[r:r + 1], (1,) * L, N,
                             tail=(float(alpha[r]), float(gamma[r])))
        one = _row_values(bases[r:r + 1], (1,) * L, N, tail=(alpha[r:r + 1], gamma[r:r + 1]))
        assert float(scalar[0]).hex() == float(one[0]).hex() == \
            float(_one_spec_float_partials(spec, N)[N]).hex()
    # the low run alone (B_L = 1 - p), with every row's partials
    plain = bases.copy()
    plain[:, -1] *= gamma
    powers = (2, 1, 1, 3, 2)
    got = _row_values(plain, powers, N)
    for r in range(len(plain)):
        spec = FactorSpec(tuple(plain[r]), powers)
        want = _one_spec_float_partials(spec, N)
        assert np.array_equal(_bits(dp_chain_partials(spec, N)), _bits(want))
        assert _bits(got[r]) == _bits(want[N])
    # an unpaired row: the leading base 1.001 leaves the unit disc
    unpaired = np.array([[1.001, 0.9, 0.5, 0.8, 1.0]])
    tail = (np.array([0.5 + a * 0.5]), np.array([0.5]))
    with pytest.raises(PairingUnavailableError):
        _row_values(unpaired, (1,) * L, N, tail=tail)
    with pytest.raises(PairingUnavailableError):
        dp_chain_partials(FactorSpec(tuple(unpaired[0]), (1,) * L,
                                     tail=(tail[0][0], tail[1][0])), N)
    unpaired[:, -1] *= tail[1]
    with pytest.raises(PairingUnavailableError):
        _row_values(unpaired, powers, N)


def test_gap_terms_match_one_spec_terms():
    # the terms themselves, down to b^j in the subnormal range; an
    # underflowed term may differ only in the sign of its zero
    N = 4096
    B = np.array([[0.9, 0.5], [1.0, -0.7], [0.2, 0.03], [-1.0, 0.999],
                  [0.5, 1e-5], [0.7, 1.0], [1.0, 0.0], [1.0, -0.5]])
    for powers in ((1, 1), (2, 3)):
        got = _gap_columns(B[:, :1], B[:, 1:], powers, 0, N, np.zeros((len(B), 1)))
        for r in range(len(B)):
            assert np.array_equal(got[r], _one_spec_gap_terms(B[r], powers, N))
        got = _gap_columns(B[:, :0], B[:, 1:], powers[1:], 0, N, np.zeros((len(B), 0)))
        for r in range(len(B)):
            assert np.array_equal(got[r], _one_spec_gap_terms(B[r, 1:], powers[1:], N))
        # a tail row: the last layer takes b^j less the reversed row's b^j,
        # each power up to its own underflow index
        last = np.column_stack([B[:, 1], B[::-1, 1]])
        got = _gap_columns(B[:, :1], last, powers, 0, N, np.zeros((len(B), 1)))
        for r in range(len(B)):
            assert np.array_equal(got[r], _one_spec_gap_terms(B[r], powers, N, last[r, 1]))


def test_batched_gap_dp_chunks_rows():
    # 600 tail rows at N = 4096 run in three chunks of at most
    # 2^20 / N = 256 rows
    N = 4096
    p = np.linspace(0.0, 0.999, 600)
    bases = np.array([transform_bases((2,), x) for x in p])
    got = _row_values(bases, (1, 1), N, tail=(1.0 - p + 0.5 * p, 1.0 - p))
    for r in (0, 255, 256, 299, 511, 512, 599):
        spec = FactorSpec(tuple(bases[r]), (1, 1),
                          tail=(1.0 - p[r] + 0.5 * p[r], 1.0 - p[r]))
        assert _bits(got[r]) == _bits(_one_spec_float_partials(spec, N)[N])


@pytest.mark.parametrize("N", (1, 2, 7, 12))
def test_tail_rows_match_the_fraction_oracle(N):
    # a tail row takes its runs' difference in the last layer only: exact
    # enumeration at the rows' own float64 arguments agrees to rounding
    p = np.array([0.03, 0.25, 0.5, 0.93])
    for parts, a in (((2,), -1.0), ((2, 1), 0.5), ((1, 3), 1.0), ((2, 1, 1), -0.5)):
        s = Composition(parts)
        bases = np.array([transform_bases(s, x) for x in p])
        alpha, gamma = 1.0 - p + a * p, 1.0 - p
        got = _row_values(bases, (1,) * s.weight, N, tail=(alpha, gamma))
        for r in range(len(p)):
            spec = FactorSpec(tuple(map(F, bases[r])), (1,) * s.weight,
                              tail=(F(alpha[r]), F(gamma[r])))
            want = float(naive_chain_sum(spec, N))
            assert abs(got[r] - want) <= 1e-13 * abs(want), (parts, a, p[r])


def test_float_dp_below_one_is_the_empty_sum():
    spec = FactorSpec((0.5, 0.5), (1, 1))
    for N in (-3, 0):
        assert dp_chain_sum(FactorSpec((F(1, 2), F(1, 2)), (1, 1)), N) == 0
        got = dp_chain_sum(spec, N)
        assert isinstance(got, float) and got == 0.0
        assert np.array_equal(dp_chain_partials(spec, N), [0.0])
        assert np.array_equal(_row_values(np.array([[0.5, 0.5]]), (1, 1), N), [0.0])
        tail = (np.array([0.9]), np.array([0.3]))
        assert np.array_equal(_row_values(np.array([[0.5, 0.5]]), (1, 1), N, tail), [0.0])
    # extending a state to N <= n_done changes nothing
    state = GapState.of_spec(FactorSpec((0.5, 0.9), (1, 2), tail=(0.9, -0.4)))
    state.extend(100)
    before = (state.carry.copy(), state.totals.copy())
    for N in (100, 64, 0, -5):
        assert state.extend(N).shape == (1, 0)
        assert state.n_done == 100
        assert np.array_equal(state.carry, before[0])
        assert np.array_equal(state.totals, before[1])


LADDER = [64 * 2 ** k for k in range(9)]  # 64 .. 2^14


def _random_paired_spec(rng):
    """A float spec whose prefix products stay in the unit disc: bases of
    either sign, some above 1 paired against earlier small ones, and often
    a tail."""
    L = rng.randint(1, 4)
    bases, prod = [], 1.0
    for _ in range(L):
        b = rng.choice((rng.uniform(-1, 1), rng.uniform(1, 1.5), 1.0, -1.0))
        b = max(-1 / abs(prod), min(1 / abs(prod), b))
        bases.append(b)
        prod *= b
    powers = tuple(rng.randint(0, 3) for _ in range(L))
    tail = (rng.uniform(-1, 1), rng.uniform(-1, 1)) if rng.random() < 0.6 else None
    return FactorSpec(tuple(bases), powers, tail=tail)


def _check_resumed(state, fresh):
    """Extend ``state`` over the ladder; every level's new columns and
    values must match ``fresh(N)`` (the R x (N + 1) partials) bit for bit."""
    for N in LADDER:
        lo = state.n_done
        block = state.extend(N)
        want = fresh(N)
        assert np.array_equal(_bits(block), _bits(want[:, lo + 1:])), N
        assert np.array_equal(_bits(state.values()), _bits(want[:, N])), N


def test_resumed_gap_dp_is_bit_identical_to_fresh():
    rng = random.Random(20261018)
    specs = [_random_paired_spec(rng) for _ in range(30)]
    specs += [FactorSpec((0.7,), (2,)), FactorSpec((-0.9,), (0,), tail=(0.5, -1.0)),
              # B_L^j underflows at j = 111, between the levels 64 and 128
              FactorSpec((1.0, 1e-3), (1, 2)), FactorSpec((0.9, 1e-3), (2, 1), tail=(1.0, 0.5))]
    assert any(s.length == 1 for s in specs) and any(s.tail for s in specs)
    assert chains._underflow_index(1e-3, 2 ** 14) == 111
    for spec in specs:
        # every spec is paired, so its state constructs without raising
        _check_resumed(GapState.of_spec(spec), lambda N: dp_chain_partials(spec, N)[None])


def test_resumed_rows_with_an_unpaired_run():
    # row 0: the alpha run's last prefix product 0.9 * 1.1 * 1.0102 leaves
    # the unit disc, so the float DP refuses it although the gamma run stays
    # paired; row 1: both runs paired, one recurrence call per layer
    bases = np.array([[0.9, 1.1], [0.5, 1.6]])
    tail = (np.array([1.0102, 1.0]), np.array([0.5, -0.9]))
    for rows in (slice(None), slice(0, 1)):
        with pytest.raises(PairingUnavailableError, match=r"\[0\.9, 1\.00"):
            GapState.of_rows(bases[rows], (1, 2), tail=(tail[0][rows], tail[1][rows]))
        with pytest.raises(PairingUnavailableError):
            _row_values(bases[rows], (1, 2), 64, tail=(tail[0][rows], tail[1][rows]))
    state = GapState.of_rows(bases[1:], (1, 2), tail=(tail[0][1:], tail[1][1:]))

    def fresh(N):
        want = dp_chain_partials(FactorSpec(tuple(bases[1]), (1, 2),
                                            tail=(tail[0][1], tail[1][1])), N)[None]
        got = _row_values(bases[1:], (1, 2), N, tail=(tail[0][1:], tail[1][1:]))
        assert np.array_equal(_bits(got), _bits(want[:, N]))
        return want

    _check_resumed(state, fresh)


def _fields(state):
    return [_bits(f) for f in (state.B, state.last, state.carry, state.totals)] + [state.n_done]


def _assert_same_state(got, want):
    assert got.powers == want.powers
    for g, w in zip(_fields(got), _fields(want)):
        assert np.array_equal(g, w)


def test_taken_rows_resume_and_stack_bit_identically(monkeypatch):
    # five tail rows, split into two interleaved subsets that are extended to
    # different levels, then stacked and extended to a common truncation
    p = np.array([0.05, 0.3, 0.5, 0.8, 0.97])
    bases = np.array([transform_bases((2, 1), x) for x in p])
    tail = (1.0 - p + 0.5 * p, 1.0 - p)
    fresh = GapState.of_rows(bases, (1, 1, 1), tail)
    fresh.extend(3000)
    split = GapState.of_rows(bases, (1, 1, 1), tail)
    split.extend(64)
    odd, even = split.take(np.array([1, 3])), split.take(slice(0, 5, 2))
    assert (odd.n_done, odd.totals.shape, odd.carry.shape) == (64, (2,), (2, 2))
    odd.extend(100)
    even.extend(2000)
    with pytest.raises(ValueError):
        GapState.stack([odd, even])
    odd.extend(2000)
    # the parent state is left as it was
    assert split.n_done == 64
    both = GapState.stack([even, odd])
    both.extend(3000)
    _assert_same_state(both, fresh.take([0, 2, 4, 1, 3]))
    assert np.array_equal(_bits(both.values()), _bits(fresh.values()[[0, 2, 4, 1, 3]]))
    with pytest.raises(ValueError):
        GapState.stack([GapState.of_rows(bases[:1], (1, 1, 1), (tail[0][:1], tail[1][:1])),
                        GapState.of_rows(bases[:1], (1, 2, 1), (tail[0][:1], tail[1][:1]))])
    # advance in chunks of at most 64 new cells, from a resumed truncation:
    # the same state as one extension
    monkeypatch.setattr(chains, "_BATCH_CELLS", 64)
    chunked = split.take(slice(None))
    chunked.advance(3000)
    _assert_same_state(chunked, fresh)
    chunked.advance(10)
    _assert_same_state(chunked, fresh)


@pytest.mark.parametrize("b", (0.7, -0.9995, 0.999999, -1.0, 1.0, 0.5))
def test_block_powers_are_within_two_ulp(b):
    # b^(64q) * b^r against the exact power, at the block edges and at
    # seeded j up to 2^14, wherever the exact power is a normal float
    N = 2 ** 14
    got = _block_powers([b], 0, N)[0]
    rng = random.Random(f"block-powers:{b}")
    js = {1, 2, 63, 64, 65, 127, 128, 129, 4095, 4096, 4097, N - 1, N}
    js |= {rng.randint(1, N) for _ in range(10)}
    num, den = b.as_integer_ratio()
    for j in sorted(js):
        # integer cross-multiplication: a Fraction would reduce by a gcd of
        # numbers of up to 870,000 bits
        want_num, want_den = num ** j, den ** j
        near = want_num / want_den  # correctly rounded
        if abs(near) < sys.float_info.min:
            continue
        got_num, got_den = float(got[j - 1]).as_integer_ratio()
        ulp_num, ulp_den = math.ulp(near).as_integer_ratio()
        err = abs(got_num * want_den - want_num * got_den)
        assert err * ulp_den <= 2 * ulp_num * got_den * want_den, (b, j)
        if b in (1.0, -1.0, 0.5):
            assert err == 0, (b, j)
    # a power depends only on (b, j), not on the range it is computed in
    for lo, hi in ((0, 1), (5, 70), (63, 64), (100, 5000), (N - 3, N)):
        assert np.array_equal(_bits(_block_powers([b], lo, hi)[0]), _bits(got[lo:hi]))


def _kernel_rows(R, seed):
    """R paired tail rows of depth 3: bases of either sign in [-1, 1], rows
    with bases of +-1, and a base of 1e-3 whose powers underflow, in an inner
    layer, in the last layer and in a tail run."""
    rng = np.random.default_rng(seed)
    bases = rng.uniform(-1.0, 1.0, (R, 3))
    alpha, gamma = rng.uniform(-1.0, 1.0, R), rng.uniform(-1.0, 1.0, R)
    bases[0], bases[1], bases[2], bases[3] = (1, -1, 1), (-1, 1, -1), (1, 1e-3, 1), (0.5, 1, 1e-3)
    alpha[:4], gamma[:4] = (1.0, -1.0, 1e-3, 1.0), (-1.0, 1.0, 0.9, 1e-3)
    return bases, (alpha, gamma)


@pytest.mark.parametrize("R", (300, 40))
def test_gap_dp_extends_and_splits_bit_identically(R):
    # levels that add 16, 48, 36, 900 and 2000 columns: 300 rows always
    # sweep, and 40 rows sweep the first and call the recurrence per row
    # for the rest
    bases, tail = _kernel_rows(R, R)
    levels = (16, 64, 100, 1000, 3000)
    once = GapState.of_rows(bases, (1, 2, 1), tail)
    columns = once.extend(levels[-1])
    stepped = GapState.of_rows(bases, (1, 2, 1), tail)
    for N in levels:
        lo = stepped.n_done
        assert np.array_equal(_bits(stepped.extend(N)), _bits(columns[:, lo:N]))
    _assert_same_state(stepped, once)
    # odd and even rows taken apart, extended to different levels, stacked
    split = GapState.of_rows(bases, (1, 2, 1), tail)
    split.extend(levels[0])
    odd, even = split.take(slice(1, None, 2)), split.take(slice(0, None, 2))
    odd.extend(levels[2])
    even.extend(levels[3])
    odd.extend(levels[3])
    both = GapState.stack([even, odd])
    both.extend(levels[-1])
    order = np.r_[0:R:2, 1:R:2]
    _assert_same_state(both, once.take(order))


@pytest.mark.parametrize("R, N", ((300, 200), (40, 30)))
def test_column_sweep_matches_the_per_row_recurrence(monkeypatch, R, N):
    # the whole batch has more rows than new columns, so it sweeps; each row
    # alone has fewer, so it calls the recurrence core
    calls = []
    core = chains.load_lfilter()

    def counting():
        def run(*args):
            calls.append(1)
            return core(*args)
        return run

    monkeypatch.setattr(chains, "load_lfilter", counting)
    bases, tail = _kernel_rows(R, 7 + R)
    batch = GapState.of_rows(bases, (2, 1, 1), tail)
    for lo, hi in ((0, N), (N, 2 * N)):
        before = len(calls)
        block = batch.extend(hi)
        assert len(calls) == before
        for r in range(R):
            row = GapState.of_rows(bases[r:r + 1], (2, 1, 1), (tail[0][r:r + 1], tail[1][r:r + 1]))
            want = row.extend(hi)[0, lo:]
            assert np.array_equal(_bits(block[r]), _bits(want)), r
        assert len(calls) > before


@pytest.mark.parametrize("R, N", ((486, 2048), (200, 4096)))
def test_gap_dp_allocates_no_second_full_size_array(R, N):
    # besides its R x N columns, an extension holds j and j^s, one row of
    # recurrence output and chunks of about 2^13 cells
    p = np.linspace(0.0, 0.99, R)
    state = GapState.of_rows(np.array([transform_bases((2, 1), x) for x in p]), (1, 1, 1),
                             (1.0 - p + 0.5 * p, 1.0 - p))
    state.extend(N // 2)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        state.extend(N + N // 2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    columns = R * N * 8
    assert columns <= peak < 1.25 * columns, peak / columns


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
    # a float a runs the float sweep, which updates each pass's live range
    # only and takes the MEAN_INF kernel from reciprocals; up to N = 128 it
    # stays at the rounding level of the exact sweep at a = 1
    for parts in Q_COMPOSITIONS:
        s = Composition(parts)
        for N in (5, 17, 64, 128):
            value = dp_q_coupled(QKernelSpec(s, "MEAN_INF", 1.0), N)
            assert type(value) is float
            want = dp_q_coupled(QKernelSpec(s, "MEAN_INF", F(1)), N)
            assert abs(value - want) <= 1e-14 * (1 + abs(want))


def test_mean_full_refuses_a_float_a():
    # the MEAN_FULL kernel table is exact only
    for a in (0.5, 1.0):
        with pytest.raises(DomainError):
            QKernelSpec(Composition((2, 1)), "MEAN_FULL", a)
    assert type(dp_q_coupled(QKernelSpec(Composition((2, 1)), "MEAN_FULL", 1), 4)) is F


def _cumsum_q_tables(s, N):
    """The descending Q tables by whole-table axis-0 suffix sums, the
    reference the sweep must match: returns (accs, W), where W[m - 1, q] is
    the sum of 1/(n_1 ... n_|s|) over the chains N >= n_1 >= ... >= n_|s| =
    m with statistic Q = q, and accs[i] (i >= 1; accs[0] is None) is the
    suffix sum over n_i >= m of pass i-1's table, by m and the partial Q of
    n_1..n_i.  The tables hold integer numerators over lcm(1..N)^|s|."""
    signs = chain_q_signs(s)
    lcm = math.lcm(*range(1, N + 1))
    W = np.zeros((N, N + 1), dtype=object)
    inv = np.array([lcm // m for m in range(1, N + 1)], dtype=object)
    rows = np.arange(N)
    W[rows, rows + 1 if signs[0] > 0 else 0] = inv
    accs = [None]
    for sg in signs[1:]:
        np.cumsum(W[::-1], axis=0, out=W[::-1])
        accs.append(W.copy())
        if sg:
            for m in range(1, N + 1):
                row = W[m - 1]
                if sg > 0:
                    row[m:] = row[:N + 1 - m]
                    row[:m] = 0
                else:
                    row[:N + 1 - m] = row[m:]
                    row[N + 1 - m:] = 0
        W *= inv[:, None]
    return accs, W


@functools.cache
def _fold_kernel(kind, a, N):
    """K(m, q) for m = 1..N, q = 0..N as integer numerators over the
    returned denominator: ``MEAN_INF``'s m/((q+1)(q+m+1)) over l^2, l =
    lcm(1..2N+1), or ``MEAN_FULL``'s table."""
    if kind == "MEAN_FULL":
        return chains._mean_full_kernel(a, N)
    lcm = math.lcm(*range(1, 2 * N + 2))
    return np.array([[m * (lcm // (q + 1)) * (lcm // (q + m + 1)) for q in range(N + 1)]
                     for m in range(1, N + 1)], dtype=object), lcm * lcm


def _contributions(kernel, N):
    """The sweep's contribution of each first index n_1 = 1..N, as Fractions
    for exact kernels."""
    c, den, _ = dp_q_contributions(kernel, N)
    return [F(int(x), den) for x in c[1:]] if c.dtype == object else c[1:]


def _table_fold(kernel, W, N):
    """The truncation at N of the exact descending table W, folded with the
    kernel."""
    K, k_den = _fold_kernel(kernel.kind, kernel.a, N)
    return F(int((W * K).sum()), math.lcm(*range(1, N + 1)) ** kernel.s.weight * k_den)


@pytest.mark.parametrize("parts", ((2,), (3,), (2, 2), (1, 2, 1), (4,), (2, 1)))
def test_q_table_row_pass_matches_cumsum(parts):
    # exact: every truncation n <= 12, the running sum of the contributions,
    # is the fold of the descending table at n; float (MEAN_INF at a = 1.0):
    # each contribution is a sum of positive terms and each cell of a pass a
    # sum of at most N of them, so the analysis allows |s| N eps relative,
    # and N eps holds (the worst at N = 300 is about 7 eps)
    s = Composition(parts)
    for kind, a in (("MEAN_INF", F(1)), ("MEAN_FULL", F(1, 2))):
        k = QKernelSpec(s, kind, a)
        c = _contributions(k, 12)
        for n in range(1, 13):
            assert sum(c[:n]) == _table_fold(k, _cumsum_q_tables(s, n)[1], n)
    N = 300
    got = _contributions(QKernelSpec(s, "MEAN_INF", 1.0), N)
    want = np.array([float(x) for x in _contributions(QKernelSpec(s, "MEAN_INF", F(1)), N)])
    assert (want > 0).all()
    assert (np.abs(got - want) <= N * np.finfo(float).eps * want).all()


def test_q_sweep_last_range_never_drops_a_cell():
    # every cell a pass reads later is nonzero in the descending accumulator
    # (positive terms), so each live range must cover its nonzero cells: it
    # is exactly their hull.  c(n_1) = T(n_1) - T(n_1 - 1) does not depend
    # on the sweep's N, so the sweeps at N in {1, 2, 3, 7, 40} must agree on
    # their common n_1, and each total must be the descending table's fold
    # and, where the enumeration is small, the oracle's
    kernels = (("MEAN_INF", F(1)),) + tuple(("MEAN_FULL", a) for a in (F(-1), F(1, 2), F(1), F(2)))
    passes = oracle = 0
    for s in _all_compositions(8):
        signs = chain_q_signs(s)
        previous = {}
        for N in (1, 2, 3, 7, 40):
            accs, W = _cumsum_q_tables(s, N)
            ranges = chains._q_live_ranges(signs)
            for i in range(1, len(signs)):
                lo_m, hi_n, hi_m = ranges[i]
                for m in range(1, N + 1):
                    nonzero = np.flatnonzero(accs[i][m - 1])
                    assert (lo_m * m, hi_n * N - hi_m * m) == (nonzero[0], nonzero[-1])
                passes += 1
            for kind, a in kernels:
                k = QKernelSpec(s, kind, a)
                c, den, _ = dp_q_contributions(k, N)
                total = F(int(c.sum()), den)
                c = [F(int(x), den) for x in c[1:]]
                before = previous.get((kind, a), [])
                assert c[:len(before)] == before
                previous[kind, a] = c
                assert total == _table_fold(k, W, N)
                if math.comb(N + k.chain_length - 1, k.chain_length) <= 60:
                    assert total == dp_q_naive(k, N)
                    oracle += 1
    assert passes == sum((s.weight - 1) * 5 for s in _all_compositions(8))
    assert oracle >= 255 * 5


def test_q_sweep_at_n_gives_the_lower_truncations_bit_for_bit():
    # the ranges at N' < N lie inside those at N and every update is
    # elementwise, so the sweep at N repeats the sweep at N' on its cells
    for parts in Q_COMPOSITIONS:
        k = QKernelSpec(Composition(parts), "MEAN_INF", 1.0)
        big = np.cumsum(dp_q_contributions(k, 300)[0])
        for N in (1, 7, 64, 299):
            assert _bits(big[N]) == _bits(dp_q_coupled(k, N))


def test_q_sweep_memory_is_linear_in_n():
    # an N x (N+1) float64 table at N = 2,048 is 32 MiB; the sweep holds a
    # few rows of N+1 cells per chain index
    k = QKernelSpec(Composition((2, 2)), "MEAN_INF", 1.0)
    tracemalloc.start()
    try:
        dp_q_coupled(k, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def _term_ratio_fold(kernel, N):
    """The MEAN_FULL fold cell by cell, each kernel sum rebuilt from the
    ratio of consecutive terms: the reference of the recurrence table."""
    W = _cumsum_q_tables(kernel.s, N)[1]
    W = W * F(1, math.lcm(*range(1, N + 1)) ** kernel.s.weight)
    a = F(kernel.a)
    total = F(0)
    for i, q in zip(*np.nonzero(W)):
        m, q = int(i) + 1, int(q)
        term = acc = a * m / (q + m)
        for t in range(2, m + 1):
            term = term * a * (m - t + 1) / (q + m - t + 1)
            acc += term
        total += W[i, q] * acc / (q + m + 1)
    return total


@pytest.mark.parametrize("a", (F(-1), F(1, 2), F(3), F(-2, 3)))
def test_mean_full_fold_matches_term_ratio(a):
    for parts in ((1,), (2,), (2, 1), (1, 2, 1)):
        k = QKernelSpec(Composition(parts), "MEAN_FULL", a)
        for N in range(1, 13):
            got = dp_q_coupled(k, N)
            assert type(got) is F
            assert got == _term_ratio_fold(k, N)


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
    res = adaptive_sum(lambda N: (dp_chain_sum(spec, N), N), sched)
    assert res.converged
    assert float(res.error_estimate) <= sched.tolerance
    assert abs(float(res.value) - math.log(2)) < 1e-10


def test_adaptive_sum_zero_spec():
    spec = FactorSpec((0.0, 0.5), (1, 1))
    sched = TruncationSchedule(tolerance=1e-10)
    res = adaptive_sum(lambda N: (dp_chain_sum(spec, N), N), sched)
    assert res.converged
    assert float(res.value) == 0


def test_adaptive_sum_mean_kernel_polynomial():
    k = QKernelSpec(Composition((2,)), "MEAN_INF", 1.0)
    sched = TruncationSchedule(max_n=4096, tolerance=1e-6, extrapolate=True)
    res = adaptive_sum(lambda N: (dp_q_coupled(k, N), N * N), sched)
    assert res.converged
    assert abs(float(res.value) - math.pi ** 2 / 6) < 1e-6


def test_adaptive_sum_not_converged_flag():
    # harmonic-like decay cannot satisfy a geometric test within a tiny budget
    spec = FactorSpec((1.0,), (2,))
    sched = TruncationSchedule(max_n=1024, tolerance=1e-12)
    res = adaptive_sum(lambda N: (dp_chain_sum(spec, N), N), sched)
    assert not res.converged
    # terms_used sums the work each level returned
    assert res.terms_used == 64 + 128 + 256 + 512 + 1024


def test_adaptive_sum_determinism():
    k = QKernelSpec(Composition((2,)), "MEAN_INF", 1.0)
    sched = TruncationSchedule(max_n=2048, tolerance=1e-6, extrapolate=True)
    r1 = adaptive_sum(lambda N: (dp_q_coupled(k, N), N * N), sched)
    r2 = adaptive_sum(lambda N: (dp_q_coupled(k, N), N * N), sched)
    assert float(r1.value) == float(r2.value)
    assert r1.terms_used == r2.terms_used


def test_schedule_validation():
    for tol in (0, math.nan, math.inf):
        with pytest.raises(DomainError):
            TruncationSchedule(tolerance=tol)


@pytest.mark.parametrize("extrapolate", (False, True))
@pytest.mark.parametrize("max_n", (64, 128, 256, 1024, 4096, 2 ** 17))
@pytest.mark.parametrize("min_samples", (1, 3, 4, 7, 9, 13))
def test_first_stop_is_where_adaptive_sum_first_returns(extrapolate, max_n, min_samples):
    # on a constant sequence every stop test passes as soon as it may run,
    # so adaptive_sum returns at the first level where one can
    asked = []

    def constant(N):
        asked.append(N)
        return 0.5, 1

    schedule = TruncationSchedule(max_n=max_n, tolerance=1e-8, extrapolate=extrapolate)
    got = adaptive_sum(constant, schedule, min_samples=min_samples)
    assert got.truncation_level == asked[-1] == schedule.first_stop(min_samples)


def test_mean_inf_refuses_a_weight():
    for a in (F(1, 2), 7.0, F(-1), float("nan")):
        with pytest.raises(DomainError):
            QKernelSpec(Composition((2,)), "MEAN_INF", a)
    for a in (1, F(1), 1.0):
        assert QKernelSpec(Composition((2,)), "MEAN_INF", a).a == 1
    assert type(dp_q_coupled(QKernelSpec(Composition((2,)), "MEAN_INF", 1.0), 2)) is float
    assert dp_q_coupled(QKernelSpec(Composition((2,)), "MEAN_INF", F(1)), 2) == F(3, 4)
