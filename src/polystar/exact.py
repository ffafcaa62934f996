"""Exact-rational evaluators for the finite-sum identities: generalized
harmonic numbers, nested harmonic-star values, binomially weighted averages
of them, their chain-sum transforms, and the arithmetic-mean identities.

Every function here takes rational parameters and returns exact
:class:`fractions.Fraction` values, so identity checks compare with ``==``.
The chain sums run on integer numerators over one common denominator; a
``Fraction`` is built only for a value that is read.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chains import (FactorSpec, QKernelSpec, _chain_partials, _exact_columns,
                     _walk_chains, dp_chain_sum, dp_q_coupled)
from .compositions import Composition, as_composition, as_fraction, transform_bases
from .kernel import DomainError, binomial


def gen_harmonic(k: int, s: int, a) -> Fraction:
    """Generalized harmonic number sum_{j=1}^{k} a^j / j^s (0 for k = 0)."""
    return dp_chain_sum(FactorSpec((as_fraction(a),), (s,)), k)


def _star_partials(n: int, s, a):
    """Integer numerators of zeta*_k(s; a) for k = 0..n and their common
    denominator: the chain sum with factors 1/j^{s_i}, the last one times
    a^j, read at every truncation in O(n * depth) integer operations."""
    s = as_composition(s)
    if n < 0:
        raise DomainError("n must be >= 0")
    spec = FactorSpec((1,) * (s.depth - 1) + (as_fraction(a),), s.parts)
    columns, den = _exact_columns(spec, n)
    return _chain_partials(columns), den


def _binomial_average(n: int, x, y, nums, den) -> Fraction:
    """sum_{k=1}^{n} C(n,k) x^k y^{n-k} nums[k] / den, summed over the
    common denominator (x_d y_d)^n den and divided once."""
    x, y = as_fraction(x), as_fraction(y)
    X, Y = x.numerator * y.denominator, y.numerator * x.denominator
    total = sum(binomial(n, k) * X ** k * Y ** (n - k) * nums[k] for k in range(1, n + 1))
    return Fraction(total, den * (x.denominator * y.denominator) ** n)


def mhsv_all(n: int, s, a) -> list:
    """Harmonic-star values zeta*_k(s; a) for every k = 0..n, in one pass."""
    nums, den = _star_partials(n, s, a)
    return [Fraction(v, den) for v in nums]


def mhsv(k: int, s, a) -> Fraction:
    """Harmonic-star value zeta*_k(s; a), i.e. the nested sum over
    nonincreasing chains k >= n_1 >= ... >= n_d >= 1 of a^{n_d} / prod n_i^{s_i}."""
    return mhsv_all(k, s, a)[k]


def mhsv_naive(k: int, s, a) -> Fraction:
    """Direct chain enumeration of zeta*_k(s; a), the sum over
    k >= n_1 >= ... >= n_d >= 1 of a^{n_d} / prod n_i^{s_i}; oracle for
    small k.  A prefix carries its product of n_i^{s_i}."""
    s = as_composition(s)
    a = as_fraction(a)
    d = s.depth

    def step(prod, i, n):
        prod *= n ** s.parts[i]
        return a ** n / prod if i == d - 1 else prod

    return Fraction(_walk_chains(k, d, 1, step))


def mneimneh_lhs(n: int, s, a, p) -> Fraction:
    """Binomially weighted average sum_{k=1}^{n} C(n,k) p^k (1-p)^{n-k} zeta*_k(s; a)."""
    p = as_fraction(p)
    return _binomial_average(n, p, 1 - p, *_star_partials(n, s, a))


def main_rhs(n: int, s, a, p) -> Fraction:
    """Chain-sum transform of the weighted harmonic-star average:

        sum over n >= n_1 >= ... >= n_{|s|} >= 1 of
        (1-p)^{Q(s)} / (n_1 ... n_{|s|}) * [(1-p+ap)^{n_|s|} - (1-p)^{n_|s|}].

    At p = 1 the separable rewriting is unavailable and the sum collapses to
    zeta*_n(s; a); that degenerate value is returned directly.
    """
    s = as_composition(s)
    a = as_fraction(a)
    p = as_fraction(p)
    if p == 1:
        return mhsv(n, s, a)
    spec = FactorSpec(transform_bases(s, p), (1,) * s.weight,
                      tail=(1 - p + a * p, 1 - p))
    return dp_chain_sum(spec, n)


def main_rhs_literal(n: int, s, a, p) -> Fraction:
    """Direct enumeration of the transform sum, valid at every p (Python's
    0 ** 0 is 1); oracle for small n.  Over n >= n_1 >= ... >= n_{|s|} >= 1
    it sums the product over the blocks of (1-p)^{first - last index}, times
    (1-p+ap)^{n_|s|} - (1-p)^{n_|s|}, over n_1 ... n_{|s|}.  A prefix carries
    its block-gap powers over its index product and its open block's first
    index."""
    s = as_composition(s)
    q = 1 - as_fraction(p)
    alpha = q + as_fraction(a) * as_fraction(p)
    starts = {start - 1 for start, _ in s.block_bounds()}
    ends = {end - 1 for _, end in s.block_bounds()}
    L = s.weight

    def step(state, i, m):
        w, first = state
        if i in starts:
            first = m
        w /= m
        if i in ends:
            w *= q ** (first - m)
        return w * (alpha ** m - q ** m) if i == L - 1 else (w, first)

    return Fraction(_walk_chains(n, L, (Fraction(1), 0), step))


def classic_binomial_rhs(n: int, p) -> Fraction:
    """Partial sum sum_{k=1}^{n} (1 - (1-p)^k) / k, the depth-1, order-1
    transform of the weighted harmonic average."""
    return dp_chain_sum(FactorSpec((1,), (1,), tail=(1, 1 - as_fraction(p))), n)


def depth1_rhs(n: int, s1: int, a, p) -> Fraction:
    """Depth-1 transform: sum over n >= n_1 >= ... >= n_s >= 1 of
    (1-p)^{n_1} / (n_1...n_s) * ((1 + ap/(1-p))^{n_s} - 1).  Needs p != 1."""
    a = as_fraction(a)
    p = as_fraction(p)
    if p == 1:
        raise DomainError("depth-1 transform needs p != 1")
    q = 1 - p
    spec = FactorSpec((q,) + (1,) * (s1 - 1), (1,) * s1, tail=(1 + a * p / q, 1))
    return dp_chain_sum(spec, n)


def ones_rhs(n: int, d: int, a, p) -> Fraction:
    """All-ones collapse of the transform:
    sum over chains of [(1-p+ap)^{n_d} - (1-p)^{n_d}] / (n_1...n_d)."""
    a = as_fraction(a)
    p = as_fraction(p)
    return dp_chain_sum(FactorSpec((1,) * d, (1,) * d, tail=(1 - p + a * p, 1 - p)), n)


def power_weight_example_sides(n: int) -> tuple:
    """Both sides of the (3,2)-at-(-1,1/2) instance written with explicit
    alternating inner sums:

        lhs = sum_k C(n,k) * sum_{j<=k} [sum_{i<=j} (-1)^{i-1}/i^2] / j^3
        rhs = sum over chains of length 5 of 2^{n - n_1 + n_3 - n_4} / (n_1...n_5)
    """
    # lhs: nested alternating sums, assembled incrementally: at step j,
    # inner = sum_{i<=j} (-1)^{i-1}/i^2 and middle = sum_{i<=j} inner_i / i^3
    inner = middle = lhs = Fraction(0)
    for j in range(1, n + 1):
        inner += Fraction((-1) ** (j - 1), j * j)
        middle += inner / j ** 3
        lhs += binomial(n, j) * middle
    # rhs: separable chain DP with bases (1/2, 1, 2, 1/2, 1) scaled by 2^n.
    bases = (Fraction(1, 2), 1, 2, Fraction(1, 2), 1)
    rhs = Fraction(2) ** n * dp_chain_sum(FactorSpec(bases, (1,) * 5), n)
    return lhs, rhs


def dilcher_plus(n: int, d: int, a) -> tuple:
    """Signed binomial transform of all-ones harmonic-star values:

        lhs = sum_{k=1}^{n} C(n,k) (-1)^k zeta*_k({1}_d; a)
        rhs = ((1-a)^n - 1) / n^d
    """
    if n < 1 or d < 1:
        raise DomainError("need n, d >= 1")
    a = as_fraction(a)
    lhs = _binomial_average(n, -1, 1, *_star_partials(n, Composition((1,) * d), a))
    rhs = ((1 - a) ** n - 1) / Fraction(n) ** d
    return lhs, rhs


def signed_ones_cases(n: int, d: int) -> tuple:
    """Alternating transform at a = 2: lhs = sum C(n,k)(-1)^{k-1} zeta*_k({1}_d; 2);
    rhs is 0 for even n and 2/n^d for odd n."""
    lhs, rhs_plus = dilcher_plus(n, d, 2)
    return -lhs, -rhs_plus


def odd_binom_sum(n: int, d: int) -> tuple:
    """Odd-index binomial sum against the a = 2 harmonic-star value:

        lhs = sum_{k=1}^{floor((n+1)/2)} C(n, 2k-1) / (2k-1)^d
        rhs = zeta*_n({1}_d; 2) / 2
    """
    if n < 1 or d < 1:
        raise DomainError("need n, d >= 1")
    lhs = sum(Fraction(binomial(n, j), j ** d) for j in range(1, n + 1, 2))
    rhs = mhsv(n, Composition((1,) * d), 2) / 2
    return lhs, rhs


def dilcher_classic(n: int, d: int) -> tuple:
    """Classical alternating binomial sum:

        lhs = sum_{k=1}^{n} C(n,k) (-1)^{k-1} / k^d,   rhs = zeta*_n({1}_d).
    """
    if n < 1 or d < 1:
        raise DomainError("need n, d >= 1")
    lhs = sum(Fraction(binomial(n, k) * (-1) ** (k - 1), k ** d) for k in range(1, n + 1))
    rhs = mhsv(n, Composition((1,) * d), 1)
    return lhs, rhs


def mean_lhs(n: int, s, a) -> Fraction:
    """Arithmetic mean (1/(n+1)) sum_{k=1}^{n} zeta*_k(s; a)."""
    if n < 1:
        raise DomainError("need n >= 1")
    nums, den = _star_partials(n, s, a)
    return Fraction(sum(nums[1:]), den * (n + 1))


def mean_rhs(n: int, s, a) -> Fraction:
    """Chain-sum form of the arithmetic mean: the (|s|+1)-fold chain sum with
    the binomial-ratio kernel C(n_{|s|}, n_{|s|+1}) / C(Q+n_{|s|}, n_{|s|+1}),
    the weight a^{n_{|s|+1}}, and the factor 1/(Q + n_{|s|} + 1)."""
    if n < 1:
        raise DomainError("need n >= 1")
    return dp_q_coupled(QKernelSpec(as_composition(s), "MEAN_FULL", as_fraction(a)), n)


def mean_example1_rhs(n: int, d: int) -> Fraction:
    """All-ones mean collapse: sum over n >= n_1 >= ... >= n_d >= 1 of
    1 / (n_1 ... n_{d-1} (n_d + 1)), the product being empty for d = 1."""
    if n < 1 or d < 1:
        raise DomainError("need n, d >= 1")
    lcm = math.lcm(*range(1, n + 2))
    # 1/j and 1/(j+1) over lcm(1..n+1)
    harmonic = [lcm // j for j in range(1, n + 1)]
    shifted = [lcm // (j + 1) for j in range(1, n + 1)]
    return Fraction(_chain_partials([harmonic] * (d - 1) + [shifted])[n], lcm ** d)


def mean_sum_hk_sides(n: int) -> tuple:
    """Partial harmonic sums: lhs = sum_{k=1}^{n} H_k, rhs = (n+1)(H_{n+1} - 1)."""
    if n < 1:
        raise DomainError("need n >= 1")
    h = lhs = Fraction(0)
    for k in range(1, n + 1):
        h += Fraction(1, k)
        lhs += h
    return lhs, (n + 1) * (h + Fraction(1, n + 1) - 1)


def pan_xu_composition(r: int, u, m) -> Composition:
    """Composition ({1}_{u_1}, m_1+2, ..., {1}_{u_r}, m_r+2, {1}_{u_{r+1}})."""
    u = tuple(int(v) for v in u)
    m = tuple(int(v) for v in m)
    if len(u) != r + 1 or len(m) != r:
        raise DomainError(f"need len(u) == r+1 and len(m) == r, got {len(u)}, {len(m)}")
    parts = []
    for i in range(r):
        parts.extend([1] * u[i])
        parts.append(m[i] + 2)
    parts.extend([1] * u[r])
    if not parts:
        raise DomainError("composition is empty (r = 0 with u_1 = 0)")
    return Composition(tuple(parts))


def pan_xu_check(n: int, r: int, u, m, x, y) -> tuple:
    """Both sides of the normalized two-variable binomial identity:

        lhs = sum_{k=1}^{n} C(n,k) x^k y^{n-k} zeta*_k(s)
        rhs = (x+y)^n * transform of the same composition at a = 1, p = x/(x+y)

    with s = ({1}_{u_1}, m_1+2, ..., m_r+2, {1}_{u_{r+1}}).
    """
    x = as_fraction(x)
    y = as_fraction(y)
    if x + y == 0:
        raise DomainError("need x + y != 0")
    comp = pan_xu_composition(r, u, m)
    lhs = _binomial_average(n, x, y, *_star_partials(n, comp, 1))
    p = x / (x + y)
    rhs = (x + y) ** n * main_rhs(n, comp, 1, p)
    return lhs, rhs


def aux_rhs(variant: str, n: int, a, x) -> Fraction:
    """Closed forms of the auxiliary integrals:

        aux1 = sum_{j=1}^{n} ((1+ax)^j - 1) / j
        aux2 = sum_{j=1}^{n} ((1+x)^j - (1+x-ax)^j) / j
    """
    if n < 1:
        raise DomainError("need n >= 1")
    a = as_fraction(a)
    x = as_fraction(x)
    tails = {"aux1": (1 + a * x, 1), "aux2": (1 + x, 1 + x - a * x)}
    if variant in tails:
        return dp_chain_sum(FactorSpec((1,), (1,), tail=tails[variant]), n)
    raise DomainError(f"unknown variant {variant!r}")
