"""Numerical evaluation of polylogarithms, nested star sums, their closed
forms, and the assembled sides of the series identities.

The depth-one polylogarithm and the zeta oracle come from mpmath at a fixed
working precision.  Every other infinite sum here is a truncation ladder
driven through the chain-sum engine; geometric tails stop on raw
differences, polynomial tails (any prefix product of the argument string on
the unit circle) go through window extrapolation.  Each ladder level
returns its value with the work it computed, which ``terms_used`` sums,
and each ladder carries one state across its levels: a star sum's one-row
:class:`GapState`, a mean kernel's one Q-coupled sweep, and the beta
integral's one :class:`GapState` of the last level's quadrature nodes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp

from .chains import (LADDER_START, PAIRING_SLACK, FactorSpec, GapState, QKernelSpec,
                     TruncationSchedule, adaptive_sum, dp_q_contributions)
from .compositions import (SERIES_KIND, Composition, ShapeBlocks, as_composition,
                           mean_lhs_converges, series_domain, shape_args,
                           shape_composition, transform_bases)
from .kernel import (DomainError, EvalResult, NonConvergenceError, adaptive_quadrature,
                     check_tolerance)

POLY_MAX_N = 2 ** 17
GEO_MAX_N = 2 ** 20
Q_MAX_N = 4096
MEAN_INTEGRAL_MAX_N = 2 ** 15


# ---------------------------------------------------------------------------
# One-dimensional polylogarithm and the zeta oracle
# ---------------------------------------------------------------------------

PRECISION = 160  # bits; working precision of the mpmath oracles


def zeta(s: int) -> mpmath.mpf:
    """Riemann zeta at an integer s >= 2: ``mpmath.zeta`` at
    :data:`PRECISION` bits."""
    if s < 2:
        raise DomainError("zeta oracle needs s >= 2")
    with mp.workprec(PRECISION):
        return mpmath.zeta(s)


def li(s: int, x) -> EvalResult:
    """One-dimensional polylogarithm sum_{n>=1} x^n / n^s for |x| <= 1:
    ``mpmath.polylog`` at :data:`PRECISION` bits, rounded to float64."""
    if s < 1:
        raise DomainError("order must be >= 1")
    x = float(x)
    if not abs(x) <= 1:  # NaN too
        raise DomainError(f"|x| <= 1 required, got x={x}")
    if s == 1 and x == 1:
        raise DomainError("order-1 polylogarithm diverges at x = 1")
    with mp.workprec(PRECISION):
        return EvalResult.rounded(mpmath.polylog(s, x))


# ---------------------------------------------------------------------------
# Multi-dimensional star sums
# ---------------------------------------------------------------------------

def _star_ladder(spec: FactorSpec, tol, x1) -> EvalResult:
    """Truncation ladder for a validated chain-sum spec of depth L >= 2
    (possibly with a last-index tail difference), whose first argument is
    ``x1`` before it was rounded.  Its :class:`GapState` refuses a run whose
    prefix products B_j = x_1...x_j leave the unit disc; of the rest, a spec
    with s_1 = 1 and an exact x_1 = 1 is refused as divergent
    (:class:`DomainError`).

    That one test decides convergence, because every power is >= 1 (the
    callers pass composition parts) and |B_j| <= 1.  The summand is
    B_1^(n_1-n_2) ... B_L^(n_L) / (n_1^s_1 ... n_L^s_L), so for a fixed n_1
    the inner layers of each run sum to at most H_(n_1)^(L-1) in absolute
    value: with s_1 >= 2 the sum converges absolutely.  With s_1 = 1 and
    |B_1| < 1 the sum of |B_1|^(n_1-n_2) / n_1 over n_1 >= n_2 is O(1/n_2),
    and with B_1 at -1 the alternating sum over n_1 is at most 1/n_2 and
    converges, so the sum converges like one of depth L-1 with s_2 raised
    by one.  With s_1 = 1 and B_1 at +1 the inner layers tend to the star
    sum at (x_2, ..., x_L), and their sum against 1/n_1 diverges (unless
    that limit is 0; the test refuses the whole line).  This is the
    condition (s_1, x_1) != (1, 1) of Borwein, Bradley, Broadhurst and
    Lisonek (Trans. AMS 353, 2001).  Both runs of a tail share x_1.

    A convergent sum with s_1 = 1 and 0 < x_1 < 1 has a tail past n_1 = N
    that decays like x_1^N, so where the rounded x_1^``POLY_MAX_N`` exceeds
    ``tol`` no ladder level can meet the tolerance: the spec raises
    :class:`NonConvergenceError`, naming the terms it needs, before its
    ladder runs.

    The ladder resumes one state across its levels.  It cannot stop before
    its schedule's first stop level (:meth:`TruncationSchedule.first_stop`,
    clamped to the last level), so its first level extends the state to
    that level in one pass and counts every column as its work; the levels
    below read their values from the kept cumulative columns and count 0,
    and a later level extends only past them.  Values and ``terms_used``
    are those of one extension per level, bit for bit.
    """
    # the pairing check comes first: an unpaired divergent spec is refused
    # as unpaired
    state = GapState.of_spec(spec)
    if spec.powers[0] == 1 and x1 == 1:
        raise DomainError(f"chain sum for {spec} diverges")
    x = spec.bases[0]
    if spec.powers[0] == 1 and 0 < x and x ** POLY_MAX_N > tol:
        # a rounded x_1 of 1 is within 2^-53 of it
        terms = math.log(tol) / math.log(x) if x < 1 else 2.0 ** 53 * math.log(1 / tol)
        raise NonConvergenceError(
            f"chain sum for {spec} needs about {terms:.3g} terms: its tail past n_1 = N "
            f"decays like x_1^N, above the tolerance {tol:.3g} at every level up to "
            f"{POLY_MAX_N}")
    inner, last = state.B[0].tolist(), state.last[0].tolist()
    worst = max(abs(b) for b in inner + last)
    # only prefix products near +1 stack logarithms into the tail;
    # alternating (near -1) directions give bounded inner sums
    marginal = (sum(1 for b in inner if b >= 1 - PAIRING_SLACK)
                + any(b >= 1 - PAIRING_SLACK for b in last))
    polynomial = worst >= 0.95
    schedule = TruncationSchedule(max_n=POLY_MAX_N if polynomial else GEO_MAX_N,
                                  tolerance=tol, extrapolate=polynomial)
    # every marginal prefix direction can raise the log degree of the tail;
    # demand enough ladder samples for the model to cover it
    min_samples = max(7, marginal + 4)
    first = schedule.first_stop(min_samples)
    lo, kept = 0, None  # the cumulative values at n_1 = lo+1..state.n_done

    def evaluate(N):
        nonlocal lo, kept
        work = 0
        if N > state.n_done:
            lo, kept = state.n_done, state.extend(max(N, first))[0]
            work = len(kept) * spec.length
        return float(kept[N - lo - 1]), work

    return adaptive_sum(evaluate, schedule, min_samples=min_samples)


def _float_args(xs) -> tuple:
    """The arguments as floats.  A NaN or infinite one raises
    :class:`DomainError` here, before a zero shortcut could return 0 for it
    or a ladder's pairing check could refuse it as a divergent direction."""
    xs = tuple(float(x) for x in xs)
    if not all(math.isfinite(x) for x in xs):
        raise DomainError(f"non-finite argument in {xs}")
    return xs


def li_star(s, xs, tol=1e-9) -> EvalResult:
    """Star polylogarithm sum over n_1 >= ... >= n_d >= 1 of
    prod x_i^{n_i} / n_i^{s_i}, to absolute tolerance ``tol``.

    Queries whose argument-string prefix products leave the unit disc are
    rejected with :class:`PairingUnavailableError`; those with an exact
    (s_1, x_1) = (1, 1), which diverge, and NaN or infinite arguments, with
    :class:`DomainError`.  The arguments may be exact; each is rounded to
    float64 once.  A sum longer than its ladder raises
    :class:`NonConvergenceError`.
    """
    s = as_composition(s)
    exact = tuple(xs)
    xs = _float_args(exact)
    if len(xs) != s.depth:
        raise DomainError(f"need {s.depth} arguments, got {len(xs)}")
    check_tolerance(tol)
    if any(x == 0 for x in xs):
        # a zero argument annihilates every chain
        return EvalResult(0.0, 0.0, 0, 0, True)
    if s.depth == 1:
        return li(s.parts[0], xs[0])
    return _star_ladder(FactorSpec(xs, s.parts), tol, exact[0])


def li_star_diff(s, xs, x_hi, x_lo, tol) -> EvalResult:
    """Difference of two star polylogarithms over the same composition whose
    argument strings differ only in the last entry:

        Li*_s(xs, x_hi) - Li*_s(xs, x_lo)

    evaluated as one chain sum with the last-index factor x_hi^n - x_lo^n,
    at half the cost of two separate ladders.
    ``x_hi`` and ``x_lo`` are compared before they are rounded: equal ones
    give the exact zero, distinct ones that round to one float64 raise
    :class:`NonConvergenceError` (the float sides would read that zero).
    """
    s = as_composition(s)
    exact = tuple(xs)
    xs = _float_args(exact)
    if len(xs) != s.depth - 1:
        raise DomainError(f"need {s.depth - 1} leading arguments, got {len(xs)}")
    hi, lo = _float_args((x_hi, x_lo))
    if x_hi == x_lo or any(x == 0 for x in xs):
        return EvalResult(0.0, 0.0, 0, 0, True)
    if hi == lo:
        raise NonConvergenceError(
            f"float64 rounding collapses the rhs difference: its last arguments differ "
            f"by {float(Fraction(x_hi) - Fraction(x_lo)):.3g} but both round to "
            f"{hi!r}")
    if s.depth == 1:
        return _li_diff(s.parts[0], hi, lo)
    spec = FactorSpec(xs + (1.0,), s.parts, tail=(hi, lo))
    return _star_ladder(spec, tol, exact[0])


def _li_diff(s: int, x_hi, x_lo) -> EvalResult:
    """Li_s(x_hi) - Li_s(x_lo) from two :func:`li` calls."""
    hi, lo = (li(s, x) for x in (x_hi, x_lo))
    value = hi.value - lo.value
    # the float subtraction rounds once more
    err = hi.error_estimate + lo.error_estimate + math.ulp(value) / 2
    return EvalResult(value, err, hi.terms_used + lo.terms_used,
                      max(hi.truncation_level, lo.truncation_level),
                      hi.converged and lo.converged)


def zeta_star(s, tol=1e-9) -> EvalResult:
    """Multiple zeta-star value: the star polylogarithm with unit arguments.
    Requires s_1 >= 2 for convergence."""
    s = as_composition(s)
    if s.parts[0] < 2:
        raise DomainError("zeta-star values need a leading part >= 2")
    return li_star(s, (1.0,) * s.depth, tol)


def zeta_star_closed(form: str, d: int) -> mpmath.mpf:
    """Closed forms: TWO_D -> (2 - 4^(1-d)) zeta(2d); TWO_D_ONE -> 2 zeta(2d+1),
    at :data:`PRECISION` bits."""
    if d < 1:
        raise DomainError("need d >= 1")
    with mp.workprec(PRECISION):
        if form == "TWO_D":
            return (2 - mpmath.mpf(4) ** (1 - d)) * zeta(2 * d)
        if form == "TWO_D_ONE":
            return 2 * zeta(2 * d + 1)
    raise DomainError(f"unknown closed form {form!r}")


# ---------------------------------------------------------------------------
# Q-coupled infinite sums
# ---------------------------------------------------------------------------

def mean_kernel_infinite(s, tol) -> EvalResult:
    """Infinite limit of the 1/((Q+1)(Q+n_L+1)) kernel sum over chains of
    shape s: window extrapolation (the tail decays like log N / N) over a
    truncation ladder up to ``Q_MAX_N``, whose levels are read from the
    running sums of one Q-coupled sweep at ``Q_MAX_N``
    (:func:`dp_q_contributions`); each level counts the cell updates of the
    sweep's steps it adds.  A weight whose sweep would exceed
    ``Q_STATE_BUDGET`` (weights above 11) is refused by the sweep."""
    s = as_composition(s)
    kernel = QKernelSpec(s, "MEAN_INF", 1.0)
    schedule = TruncationSchedule(max_n=Q_MAX_N, tolerance=tol, extrapolate=True)
    c, _, cells = dp_q_contributions(kernel, Q_MAX_N)
    partials, work = np.cumsum(c), np.cumsum(cells)

    def evaluate(N):
        # the levels double from the ladder's start: this one adds the
        # steps past the previous level
        previous = N // 2 if N > LADDER_START else 0
        return float(partials[N]), int(work[N] - work[previous])

    return adaptive_sum(evaluate, schedule)


def _node_rows(s: Composition, a: float, p):
    """Fresh gap DP rows, at truncation 0, of the truncated chain-sum
    transform of shape s at (a, p) for every entry of the float64 node
    array ``p``: the integrand of :func:`mean_average_infinite`.  A node at
    p = 1 exactly has no transform bases, and :func:`transform_bases`
    raises :class:`DomainError` for it."""
    bases = np.array([transform_bases(s, y) for y in p]).reshape(len(p), s.weight)
    return GapState.of_rows(bases, (1,) * s.weight, tail=(1.0 - p + a * p, 1.0 - p))


def mean_average_infinite(s, a, tol) -> EvalResult:
    """Infinite limit of the binomial-ratio mean kernel over chains of shape
    s with weight a^{n_{|s|+1}}.

    Evaluated through the beta-integral representation: the truncated kernel
    sum equals the integral over p in [0,1] of the truncated chain-sum
    transform at (a, p), which the separable DP evaluates in O(N |s|) per
    node; the nodes of the initial mesh (graded toward both ends) and of
    each bisection round go through one row-batched DP.  The mesh at 2N
    refines the mesh at N, so most nodes come back at the next level: one
    :class:`GapState` holds the rows of the nodes the last level visited,
    with a dict from node to row.  A round takes the rows of its returning
    nodes, starts its new nodes (:func:`_node_rows`) at the kept
    truncation, and advances the two together to N; the level's rounds are
    stacked into the next kept state.  The DP is causal and its rows
    independent, so every value is bit-identical to a fresh row per node
    and level; ``terms_used`` counts the columns computed times |s|.
    """
    s = as_composition(s)
    (a,) = _float_args((a,))
    kept, row_of = _node_rows(s, a, np.empty(0)), {}  # no rows, at truncation 0

    def evaluate(N):
        nonlocal kept, row_of
        rounds, nodes, work = [], [], 0

        def integrand(p):
            nonlocal work
            keys = p.tolist()
            rows = [row_of.get(key) for key in keys]
            back = [i for i, row in enumerate(rows) if row is not None]
            new = [i for i, row in enumerate(rows) if row is None]
            fresh = _node_rows(s, a, p[new])
            fresh.advance(kept.n_done)
            state = GapState.stack([kept.take([rows[i] for i in back]), fresh])
            state.advance(N)
            work += (len(new) * kept.n_done + len(p) * (N - kept.n_done)) * s.weight
            order = back + new
            values = np.empty(len(p))
            values[order] = state.values()
            rounds.append(state)
            nodes.extend(keys[i] for i in order)
            return values

        # the truncated integrand has boundary layers of width ~1/N at both
        # endpoints; grade the mesh to 2^-K toward 0 and 2^-ceil(K/2) toward 1
        K = int(math.log2(N)) + 6
        breaks = ([2.0 ** -k for k in range(K, 0, -1)]
                  + [1.0 - 2.0 ** -k for k in range(2, (K + 1) // 2 + 1)])
        value = adaptive_quadrature(integrand, 0.0, 1.0, tol / 64, breaks=breaks)
        kept, row_of = GapState.stack(rounds), {key: row for row, key in enumerate(nodes)}
        return value, work

    schedule = TruncationSchedule(max_n=MEAN_INTEGRAL_MAX_N, tolerance=tol,
                                  extrapolate=True)
    return adaptive_sum(evaluate, schedule)


# ---------------------------------------------------------------------------
# Identity assembly
# ---------------------------------------------------------------------------

_SERIES_IDS = (*SERIES_KIND, "MEAN_INF_A", "MEAN_INF_1")


def li_identity_sides(identity: str, shape_or_comp, a, p, tol, check_domain=True):
    """Assemble and evaluate both sides of a series identity.

    ``LI1_*``/``LI2_*`` take a family-A/B :class:`ShapeBlocks`, ``MEAN_INF_*``
    a composition, and ``INTRO_*`` the order s: they run as ``LI1_*`` at the
    one-block shape ``A:m=(s-2);u=()``.  A block identity is one of four
    kinds: MAIN, and A1 (MAIN at a = 1), set Li*_s({1}_(d-1),a) against the
    main/sub string difference; RED1 the sub string against
    -Li*_s({1}_(d-1),1-1/p); RED2 the main string against
    Li*_s({1}_(d-1),a) - Li*_s({1}_(d-1),1-1/p).

    Returns ``(lhs, rhs)`` as :class:`EvalResult` values, each evaluated to
    tolerance ``tol / 4`` so a two-sided comparison at ``tol`` is sound.
    Raises :class:`DomainError` when the parameters violate the identity's
    validity region (unless ``check_domain=False``).  Every argument string
    is built exactly (1 - 1/p too) and rounded once, in :func:`li_star` or
    :func:`li_star_diff`, which raise :class:`NonConvergenceError` for a
    side float64 cannot resolve.
    """
    if identity not in _SERIES_IDS:
        raise DomainError(f"unknown series identity {identity!r}")
    # error budget: a quarter of the tolerance to the single-evaluation side,
    # half to the side composed of two evaluations (a quarter each); the
    # combined bound 3*tol/4 stays below the comparison tolerance
    side_tol = tol / 4

    if identity in ("MEAN_INF_1", "MEAN_INF_A"):
        s = as_composition(shape_or_comp)
        if identity == "MEAN_INF_1":
            lhs = zeta_star(s, side_tol)
            rhs = mean_kernel_infinite(s, side_tol)
            return lhs, rhs
        if check_domain and not mean_lhs_converges(s, a):
            raise DomainError(f"left side diverges for s={s}, a={a}")
        lhs = li_star(s, (1.0,) * (s.depth - 1) + (a,), side_tol)
        rhs = mean_average_infinite(s, a, side_tol)
        return lhs, rhs

    if identity.startswith("INTRO"):
        order = int(shape_or_comp if not isinstance(shape_or_comp, Composition)
                    else shape_or_comp.parts[0])
        if order < 2:
            raise DomainError("series identities need order >= 2")
        shape = ShapeBlocks("A", (order - 2,), ())
    else:
        shape = shape_or_comp
        if not isinstance(shape, ShapeBlocks):
            raise DomainError("block-family identities need a ShapeBlocks")
        want = "A" if identity.startswith("LI1") else "B"
        if shape.family != want:
            raise DomainError(f"{identity} needs a family-{want} shape")

    kind = SERIES_KIND[identity]
    if kind == "A1":
        a = 1
    if kind in ("RED1", "RED2") and p == 0:
        raise DomainError(f"{identity} needs p != 0: its argument 1 - 1/p is undefined")
    if check_domain and not series_domain(kind, a, p):
        raise DomainError(f"({a}, {p}) outside the validity region of {identity}")

    comp = shape_composition(shape)
    ones = Composition((1,) * comp.weight)
    leading = (1.0,) * (comp.depth - 1)
    main_args = shape_args(shape, "main", a, p)
    sub_args = shape_args(shape, "sub", a, p)
    # the two strings differ only in their final entry, so their difference
    # collapses to one chain sum with a last-index tail factor
    assert main_args[:-1] == sub_args[:-1]

    if kind in ("MAIN", "A1"):
        lhs = li_star(comp, leading + (a,), side_tol)
        return lhs, li_star_diff(ones, main_args[:-1], main_args[-1], sub_args[-1],
                                 2 * side_tol)

    a_red = 1 - 1 / Fraction(p)
    if kind == "RED1":
        lhs = li_star(ones, sub_args, side_tol)
        inner = li_star(comp, leading + (a_red,), 2 * side_tol)
        return lhs, replace(inner, value=-inner.value)

    lhs = li_star(ones, main_args, side_tol)
    return lhs, li_star_diff(comp, leading, a, a_red, 2 * side_tol)


def li_example_sides(family: str, d: int, p, tol):
    """Closed-form instances of the block identities at zero block sizes:

    family A: the main/sub difference equals (2 - 4^(1-d)) zeta(2d);
    family B: it equals 2 zeta(2d+1).
    """
    if family == "A":
        shape = ShapeBlocks("A", (0,) * d, (0,) * (d - 1))
        closed = zeta_star_closed("TWO_D", d)
        ident = "LI1_A1"
    elif family == "B":
        shape = ShapeBlocks("B", (0,) * d, (0,) * (d - 1) + (1,))
        closed = zeta_star_closed("TWO_D_ONE", d)
        ident = "LI2_A1"
    else:
        raise DomainError(f"family must be 'A' or 'B', got {family!r}")
    _, rhs = li_identity_sides(ident, shape, 1, p, tol)
    return EvalResult.rounded(closed), rhs
