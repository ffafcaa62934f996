import random
from fractions import Fraction

import pytest

from polystar import compositions, exact
from polystar.compositions import Composition
from polystar.kernel import DomainError, binomial

F = Fraction


def test_gen_harmonic_examples():
    assert exact.gen_harmonic(3, 2, 1) == F(49, 36)
    assert exact.gen_harmonic(2, 1, -1) == F(-1, 2)
    assert exact.gen_harmonic(0, 5, 7) == 0


def test_mhsv_examples():
    # chains (1,1),(2,1),(2,2): 1 + 1/4 + 1/8
    assert exact.mhsv(2, (2, 1), 1) == F(11, 8)
    assert exact.mhsv(6, (3, 2), 0) == 0
    for s in ((1,), (2, 1), (3, 1, 2)):
        assert exact.mhsv(1, s, F(2, 3)) == F(2, 3)


def test_mhsv_against_naive_enumeration():
    for s in ((1,), (2,), (1, 1), (2, 1), (1, 2), (3, 2), (1, 1, 2)):
        for a in (F(1), F(-1), F(1, 2), F(2)):
            for k in (0, 1, 5, 12):
                assert exact.mhsv(k, s, a) == exact.mhsv_naive(k, s, a)


def test_mhsv_monotone_in_k_at_a1():
    for s in ((2,), (2, 1), (1, 1)):
        values = exact.mhsv_all(21, s, 1)
        for k in range(20):
            assert values[k] <= values[k + 1]


def test_mneimneh_lhs_examples():
    for a, p in ((F(2), F(1, 3)), (F(-1), F(3, 4))):
        assert exact.mneimneh_lhs(1, (1,), a, p) == a * p
    assert exact.mneimneh_lhs(3, (2,), 1, F(1, 2)) == F(73, 72)
    for s in ((2,), (2, 1)):
        assert exact.mneimneh_lhs(5, s, F(1, 2), 1) == exact.mhsv(5, s, F(1, 2))


def test_main_rhs_examples():
    for a, p in ((F(2), F(1, 3)), (F(-1), F(3, 4))):
        assert exact.main_rhs(1, (1,), a, p) == a * p
    assert exact.main_rhs(3, (2,), 1, F(1, 2)) == F(73, 72)
    for n in (1, 4, 7):
        assert exact.main_rhs(n, (2, 1), F(1, 2), 0) == 0


def test_main_rhs_against_literal_enumeration():
    for s in ((2,), (1, 1), (3, 2), (2, 1, 1)):
        for p in (F(0), F(1, 3), F(1), F(2)):
            for n in (1, 3, 6):
                assert exact.main_rhs(n, s, F(1, 2), p) == \
                    exact.main_rhs_literal(n, s, F(1, 2), p)


def test_transform_bases_structure():
    q = F(1, 2)
    bases = compositions.transform_bases((3, 1, 2), q)
    assert bases == (1 - q, F(1), F(1) / (1 - q), F(1), 1 - q, F(1) / (1 - q))
    with pytest.raises(DomainError):
        compositions.transform_bases((2,), 1)


def test_classic_binomial_rhs():
    # partial sums of (1-(1-p)^k)/k match the weighted harmonic average
    for n in (1, 4, 9):
        for p in (F(0), F(1, 4), F(1)):
            assert exact.classic_binomial_rhs(n, p) == \
                exact.mneimneh_lhs(n, (1,), 1, p)


def test_depth1_rhs_matches_weighted_average():
    for n in (1, 3, 6):
        for s1 in (1, 2, 4):
            for a, p in ((F(1), F(1, 2)), (F(-1), F(1, 3)), (F(2), F(2))):
                assert exact.depth1_rhs(n, s1, a, p) == \
                    exact.mneimneh_lhs(n, (s1,), a, p)


def test_ones_rhs_matches_main():
    for d in (1, 2, 4):
        for n in (1, 5, 10):
            for p in (F(0), F(1, 2), F(1), F(-1)):
                assert exact.ones_rhs(n, d, F(1, 2), p) == \
                    exact.main_rhs(n, (1,) * d, F(1, 2), p)


def test_power_weight_example():
    for n in range(1, 9):
        lhs, rhs = exact.power_weight_example_sides(n)
        assert lhs == rhs
    # cross-check against the weighted-average form at (3,2), a=-1, p=1/2
    n = 5
    lhs, _ = exact.power_weight_example_sides(n)
    assert lhs == -F(2) ** n * exact.mneimneh_lhs(n, (3, 2), -1, F(1, 2))


def test_dilcher_plus_examples():
    lhs, rhs = exact.dilcher_plus(3, 2, 2)
    assert lhs == rhs == F(-2, 9)
    _, rhs = exact.dilcher_plus(4, 1, 2)
    assert rhs == 0
    lhs, rhs = exact.dilcher_plus(6, 3, 0)
    assert lhs == rhs == 0


def test_signed_ones_cases():
    for n in (1, 2, 5, 8):
        for d in (1, 3):
            lhs, rhs = exact.signed_ones_cases(n, d)
            assert lhs == rhs
            assert rhs == (0 if n % 2 == 0 else F(2, n ** d))


def test_odd_binom_examples():
    lhs, rhs = exact.odd_binom_sum(3, 1)
    assert lhs == rhs == F(10, 3)
    for d in (1, 2, 5):
        lhs, rhs = exact.odd_binom_sum(1, d)
        assert lhs == rhs == 1
    lhs, rhs = exact.odd_binom_sum(2, 1)
    assert lhs == rhs == 2


def test_dilcher_classic_examples():
    lhs, rhs = exact.dilcher_classic(2, 1)
    assert lhs == rhs == F(3, 2)
    lhs, rhs = exact.dilcher_classic(1, 4)
    assert lhs == rhs == 1
    lhs, rhs = exact.dilcher_classic(3, 2)
    assert lhs == rhs == F(85, 36)


def test_mean_lhs_examples():
    assert exact.mean_lhs(3, (1,), 1) == F(13, 12)
    assert exact.mean_lhs(7, (2, 1), 0) == 0
    assert exact.mean_lhs(1, (2, 1), 1) == F(1, 2)


def test_mean_rhs_examples():
    assert exact.mean_rhs(3, (1,), 1) == F(13, 12)
    assert exact.mean_rhs(5, (2, 1), 0) == 0
    assert exact.mean_rhs(2, (2,), 1) == F(3, 4)


def test_mean_theorem_small_grid():
    for s in ((1,), (2,), (1, 1), (2, 1), (3,)):
        for n in (1, 3, 6):
            for a in (F(1), F(-1), F(1, 2)):
                assert exact.mean_lhs(n, s, a) == exact.mean_rhs(n, s, a)


def test_mean_example1():
    assert exact.mean_example1_rhs(3, 1) == F(1, 2) + F(1, 3) + F(1, 4)
    for d in (1, 2, 4):
        assert exact.mean_example1_rhs(1, d) == F(1, 2)
    assert exact.mean_example1_rhs(2, 2) == F(11, 12)
    for d in (1, 2, 3):
        for n in (1, 4, 9):
            assert exact.mean_example1_rhs(n, d) == exact.mean_lhs(n, (1,) * d, 1)


def test_mean_sum_hk():
    lhs, rhs = exact.mean_sum_hk_sides(3)
    assert lhs == rhs == F(13, 3)
    for n in (1, 10, 50):
        lhs, rhs = exact.mean_sum_hk_sides(n)
        assert lhs == rhs


def test_pan_xu_composition():
    assert exact.pan_xu_composition(1, (1, 2), (0,)).parts == (1, 2, 1, 1)
    assert exact.pan_xu_composition(0, (3,), ()).parts == (1, 1, 1)
    with pytest.raises(DomainError):
        exact.pan_xu_composition(0, (0,), ())


def test_pan_xu_check_examples():
    # r = 0 reduces to the classic weighted-harmonic identity scaled by (x+y)^n
    lhs, rhs = exact.pan_xu_check(4, 0, (1,), (), F(1, 3), F(1, 5))
    assert lhs == rhs
    # degenerate y = 0 (p = 1)
    lhs, rhs = exact.pan_xu_check(1, 0, (1,), (), 1, 0)
    assert lhs == rhs == 1
    # hand-checkable weight-2 instance at x = y = 1
    lhs, rhs = exact.pan_xu_check(2, 1, (0, 0), (0,), 1, 1)
    assert lhs == 2 * 1 + F(5, 4)
    assert lhs == rhs


def test_pan_xu_requires_nonzero_sum():
    with pytest.raises(DomainError):
        exact.pan_xu_check(2, 0, (1,), (), 1, -1)


def test_aux_rhs_examples():
    assert exact.aux_rhs("aux1", 3, 1, 1) == F(29, 6)
    assert exact.aux_rhs("aux1", 5, 0, F(1, 2)) == 0
    for n in (1, 3, 6):
        for x in (F(1, 2), F(-1, 2), F(1)):
            assert exact.aux_rhs("aux2", n, 1, x) == exact.aux_rhs("aux1", n, 1, x)
    with pytest.raises(DomainError):
        exact.aux_rhs("aux3", 1, 1, 1)


def _rational(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 6))


def test_depth1_loops_match_chain_dp():
    # the closed forms as hand-written depth-1 loops, against the chain DP
    rng = random.Random(7)
    for _ in range(40):
        n, s = rng.randint(-2, 12), rng.randint(0, 3)
        a, p, x = _rational(rng), _rational(rng), _rational(rng)
        assert exact.gen_harmonic(n, s, a) == sum(
            (a ** j / F(j) ** s for j in range(1, n + 1)), F(0))
        assert exact.classic_binomial_rhs(n, p) == sum(
            ((1 - (1 - p) ** k) / k for k in range(1, n + 1)), F(0))
        if n < 1:
            continue
        assert exact.aux_rhs("aux1", n, a, x) == sum(
            (((1 + a * x) ** j - 1) / F(j) for j in range(1, n + 1)), F(0))
        assert exact.aux_rhs("aux2", n, a, x) == sum(
            (((1 + x) ** j - (1 + x - a * x) ** j) / F(j) for j in range(1, n + 1)), F(0))
    with pytest.raises(DomainError):
        exact.aux_rhs("aux1", 0, 1, 1)


def test_binomial_averages_match_fraction_sums():
    # the averages summed over one denominator, against Fraction sums of the
    # harmonic-star values
    rng = random.Random(11)
    for _ in range(30):
        n, d = rng.randint(0, 10), rng.randint(1, 3)
        s = Composition(tuple(rng.randint(1, 3) for _ in range(d)))
        a, x, y = _rational(rng), _rational(rng), _rational(rng)

        def average(x, y, s, a):
            stars = exact.mhsv_all(n, s, a)
            return sum((binomial(n, k) * x ** k * y ** (n - k) * stars[k]
                        for k in range(1, n + 1)), F(0))

        assert exact.mneimneh_lhs(n, s, a, x) == average(x, 1 - x, s, a)
        if x + y != 0:
            # r = 0: the composition {1}_d
            assert exact.pan_xu_check(n, 0, (d,), (), x, y)[0] == \
                average(x, y, Composition((1,) * d), 1)
        if n >= 1:
            assert exact.dilcher_plus(n, d, a)[0] == \
                average(F(-1), F(1), Composition((1,) * d), a)
            assert exact.mean_lhs(n, s, a) == \
                sum(exact.mhsv_all(n, s, a)[1:], F(0)) / (n + 1)
