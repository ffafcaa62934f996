import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polystar.compositions import (Composition, ShapeBlocks,
                                   as_fraction, chain_q_signs, domain_check, q_of,
                                   series_domain, shape_args, shape_composition,
                                   transform_bases)
from polystar.kernel import DomainError

SMALL_COMPOSITIONS = [parts for depth in range(1, 7)
                      for parts in itertools.product(range(1, 7), repeat=depth)
                      if sum(parts) <= 6]


def test_composition_basics():
    s = Composition((3, 2))
    assert s.weight == 5
    assert s.depth == 2
    assert s.prefix_weights == (0, 3, 5)
    assert s.block_bounds() == ((1, 3), (4, 5))


def test_composition_parse_roundtrip():
    s = Composition.parse("3,2,1")
    assert s.parts == (3, 2, 1)
    assert Composition.parse(str(s)) == s


def test_composition_invalid():
    with pytest.raises(DomainError):
        Composition(())
    with pytest.raises(DomainError):
        Composition((2, 0))
    with pytest.raises(DomainError):
        Composition.parse("3,x")


def test_shape_parse_roundtrip():
    sh = ShapeBlocks.parse("A:m=2,1,0;u=2,0")
    assert sh.family == "A" and sh.m == (2, 1, 0) and sh.u == (2, 0)
    assert ShapeBlocks.parse(str(sh)) == sh
    d1 = ShapeBlocks.parse("A:m=3;u=")
    assert d1.d == 1 and d1.u == ()


def test_shape_invariants():
    with pytest.raises(DomainError):
        ShapeBlocks("B", (0,), (0,))  # u_d must be >= 1
    with pytest.raises(DomainError):
        ShapeBlocks("A", (0, 0), (1, 1))  # family A needs len(u) == d-1
    with pytest.raises(DomainError):
        ShapeBlocks("C", (0,), ())


def test_shape_composition_examples():
    assert shape_composition(ShapeBlocks("A", (2, 1, 0), (2, 0))).parts == (4, 1, 1, 3, 2)
    assert shape_composition(ShapeBlocks("A", (0,), ())).parts == (2,)
    assert shape_composition(ShapeBlocks("B", (0,), (1,))).parts == (2, 1)


def test_shape_composition_weight_invariant():
    for d in (1, 2, 3):
        for m in itertools.product(range(4), repeat=d):
            for u in itertools.product(range(4), repeat=d - 1):
                sh = ShapeBlocks("A", m, u)
                assert shape_composition(sh).weight == sum(m) + sum(u) + 2 * d
            for u in itertools.product(range(4), repeat=d):
                if u[-1] < 1:
                    continue
                sh = ShapeBlocks("B", m, u)
                assert shape_composition(sh).weight == sum(m) + sum(u) + 2 * d


def test_q_of_examples():
    assert q_of((3, 2), (5, 4, 3, 2, 1)) == (5 - 3) + (2 - 1)
    for d in (1, 2, 3):
        assert q_of((1,) * d, (4,) * d) == 0
        assert q_of((1,) * d, tuple(range(d + 3, 3, -1))) == 0
    n = (7, 5, 4, 2)
    assert q_of((2, 2), n) == n[0] - n[1] + n[2] - n[3]


def test_q_of_constant_chain_zero():
    for parts in ((2,), (3, 2), (1, 2, 1), (2, 2)):
        s = Composition(parts)
        assert q_of(s, (5,) * s.weight) == 0


def test_q_of_length_mismatch():
    with pytest.raises(DomainError):
        q_of((3, 2), (3, 2, 1))


def test_chain_validation():
    # q_of takes only nonincreasing chains of indices >= 1
    with pytest.raises(DomainError):
        q_of((2,), (1, 2))
    with pytest.raises(DomainError):
        q_of((2,), (2, 0))


def test_chain_q_signs():
    assert chain_q_signs((3, 2)) == (1, 0, -1, 1, -1)
    assert chain_q_signs((1, 1, 1)) == (0, 0, 0)
    assert chain_q_signs((2,)) == (1, -1)


@given(st.data())
def test_transform_bases_multiply_to_q_power(data):
    # the block->base map is defined by prod b_i^{n_i} = (1-p)^{Q(s)}
    s = data.draw(st.sampled_from(SMALL_COMPOSITIONS))
    p = data.draw(st.fractions(-3, 3, max_denominator=12).filter(lambda v: v != 1))
    chain = sorted(data.draw(st.lists(st.integers(1, 9), min_size=sum(s),
                                      max_size=sum(s))), reverse=True)
    product = Fraction(1)
    for base, n in zip(transform_bases(s, p), chain):
        product *= base ** n
    assert product == (1 - p) ** q_of(s, chain)


def test_transform_bases_scalar_type():
    assert transform_bases((2, 1), 0.5) == (0.5, 2.0, 1.0)
    assert all(type(b) is float for b in transform_bases((3,), 0.25))
    assert transform_bases((2,), 3) == (-2, Fraction(-1, 2))
    with pytest.raises(DomainError):
        transform_bases((2,), 1)


def test_shape_args_examples():
    half = Fraction(1, 2)
    assert shape_args(ShapeBlocks("A", (0,), ()), "sub", 1, half) == (half, 1)
    assert shape_args(ShapeBlocks("A", (0, 0), (0,)), "main", 1, half) == \
        (half, 2, half, 2)
    assert shape_args(ShapeBlocks("B", (0,), (1,)), "main", 1, half) == (half, 2, 1)
    assert shape_args(ShapeBlocks("B", (0,), (1,)), "sub", 1, half) == (half, 2, half)


def test_shape_args_length_matches_composition():
    for text in ("A:m=2,1,0;u=2,0", "A:m=1;u=", "B:m=0,1;u=2,1", "B:m=2;u=2"):
        sh = ShapeBlocks.parse(text)
        weight = shape_composition(sh).weight
        for variant in ("main", "sub"):
            assert len(shape_args(sh, variant, Fraction(1, 3), Fraction(2, 5))) == weight


def test_shape_args_degenerate_last_argument():
    # at a = 1 - 1/p the a-dependent string ends in an exact zero
    for ptext in ("1/2", "3/4", "2/3"):
        p = Fraction(ptext)
        a = 1 - 1 / p
        args = shape_args(ShapeBlocks("A", (1, 0), (1,)), "main", a, p)
        assert args[-1] == 0


def test_shape_args_p_one_rejected():
    with pytest.raises(DomainError):
        shape_args(ShapeBlocks("A", (0,), ()), "main", 1, 1)


def test_domain_check_main():
    assert domain_check("MAIN_AP", 1, Fraction(1, 2))
    assert domain_check("MAIN_AP", 1, Fraction(3, 4))  # |1| <= min(1, 5/3)
    assert not domain_check("MAIN_AP", 1, 1)  # p = 1 excluded
    assert not domain_check("MAIN_AP", Fraction(1, 2), Fraction(19, 10))
    assert domain_check("MAIN_AP", Fraction(1, 3), Fraction(3, 2))
    assert not domain_check("MAIN_AP", 1, 0)
    assert not domain_check("MAIN_AP", 0, -1)


def test_domain_check_boundary_inside():
    # |a| = min(1, 2/p-1) exactly counts as inside
    assert domain_check("MAIN_AP", 1, 1)  is False
    assert domain_check("MAIN_AP", Fraction(1, 3), Fraction(3, 2))
    assert domain_check("MAIN_AP", -1, Fraction(1, 2))


def test_domain_check_a1():
    assert domain_check("A1_P", 1, Fraction(1, 2))
    assert not domain_check("A1_P", 1, 1)
    assert not domain_check("A1_P", Fraction(1, 2), Fraction(1, 2))


def test_domain_check_red_box():
    assert not domain_check("RED_BOX", 0, 1)
    assert domain_check("RED_BOX", 0, Fraction(1, 2))
    assert domain_check("RED_BOX", Fraction(1, 4), Fraction(3, 4))
    assert not domain_check("RED_BOX", 1, Fraction(1, 2))  # a outside the box


def test_red1_region_is_red_box_at_one_minus_one_over_p():
    # RED1 is written without 1/p; off p = 0 it is the RED_BOX test at
    # a = 1 - 1/p, and p = 0 is outside it
    ps = sorted({Fraction(k, d) for d in (1, 2, 3, 4, 7, 12) for k in range(-3 * d, 3 * d + 1)}
                | {0.5, 0.75, 1.5, 1.5000000000000002, 0.49999999999999994})
    for p in ps:
        want = p != 0 and domain_check("RED_BOX", 1 - 1 / as_fraction(p), p)
        assert series_domain("RED1", 7, p) == want, p
    assert not series_domain("RED1", 0, 0) and not series_domain("RED1", 0, 0.0)


def test_domain_check_unknown_id():
    with pytest.raises(DomainError):
        domain_check("NO_SUCH", 0, 0)


@pytest.mark.parametrize("x", (math.nan, math.inf, -math.inf))
def test_non_finite_float_is_a_domain_error(x):
    # Fraction() raises ValueError or OverflowError for these
    with pytest.raises(DomainError):
        as_fraction(x)
    with pytest.raises(DomainError):
        domain_check("MAIN_AP", x, Fraction(1, 2))
