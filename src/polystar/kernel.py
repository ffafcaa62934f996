"""Numeric kernel: exact rationals, binomials, adaptive quadrature, and
sequence extrapolation.

Two scalar kernels coexist throughout the package:

* exact mode uses :class:`fractions.Fraction` (arbitrary-size canonical
  rationals), so finite-sum identities can be compared with ``==``;
* numeric mode reports float64: an :class:`EvalResult` carries a float value
  and a float error estimate.  The truncation ladders compute in float64;
  the few quantities taken from mpmath (the zeta oracle, the depth-one
  polylogarithm and the closed forms built on them) run at a fixed 160
  bits and are rounded to float64 when they become a result.  Adaptive
  quadrature runs in float64 throughout.

Ladder values are float64 truncations, so the window fit behind sequence
extrapolation is a float64 solve too, centred on the window's last value.

Every module of the package imports this one, for its exceptions, so it
imports numpy and mpmath only inside the functions that use them:
:func:`fmt`, the quadrature and the window fit.  A command that evaluates
nothing in floats (``list``, ``--help``, a usage error, the registry and
its grids) loads neither library.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

QUADRATURE_PANEL_BUDGET = 2 ** 20
# the orders of the Gauss-Legendre pair: the accepted rule, then its check
_GL_ORDERS = (12, 6)


# Every refusal is one of two families: DomainError, input outside the
# quantity's domain (exit 2), and NonConvergenceError, an in-domain quantity
# that float64 cannot resolve to its tolerance (not_converged, exit 3).

class DomainError(ValueError):
    """Arguments outside an operation's stated domain."""


class PairingUnavailableError(DomainError):
    """Prefix products that leave the unit disc: the chain sum is outside
    the region where it converges."""


def check_tolerance(tol):
    """The one tolerance rule: finite and > 0, else :class:`DomainError`."""
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be finite and > 0, got {tol}")


class NonConvergenceError(RuntimeError):
    """An in-domain evaluation that cannot reach its tolerance in float64."""


class BudgetExceededError(NonConvergenceError):
    """An enumeration or DP refused to run past its cost budget."""


class SingularFitError(NonConvergenceError, ZeroDivisionError):
    """A window fit whose design matrix is singular or whose limit is not
    finite."""


def to_float(x, beyond=DomainError, apart_from=None, what=None) -> float:
    """The one rounding rule: the float64 nearest the exact ``x``.  NaN or
    infinite raises :class:`DomainError`; past float64's range, ``beyond``
    (DomainError outside the domain, NonConvergenceError inside it); an
    ``x`` distinct from ``apart_from`` that rounds to the same float64,
    NonConvergenceError naming ``what``: the float sides would read one."""
    try:
        v = float(x)
    except OverflowError:
        raise beyond(f"{what or 'a value'} of about 1e{math.log10(int(abs(x))):.0f} is "
                     "beyond float64's range") from None
    if not math.isfinite(v):
        raise DomainError(f"non-finite value {x}")
    if apart_from is not None and x != apart_from and v == float(apart_from):
        raise NonConvergenceError(f"float64 rounding collapses {what} differ by "
                                  f"{float(abs(Fraction(x) - Fraction(apart_from))):.3g} "
                                  f"but both round to {v!r}")
    return v


def fmt(v, digits=17):
    """A float printed to ``digits`` significant digits."""
    import mpmath

    return mpmath.nstr(mpmath.mpf(v), digits)


@dataclass(frozen=True)
class EvalResult:
    """Outcome of an adaptive numeric evaluation, in float64.

    ``converged`` is only set when ``error_estimate`` passed the requested
    tolerance; a result with ``converged=False`` still carries the best value
    obtained within budget.
    """

    value: float
    error_estimate: float
    terms_used: int
    truncation_level: int
    converged: bool

    @classmethod
    def rounded(cls, value, err=0.0, terms=1, level=1):
        """A converged result for a value computed in mpmath or exactly:
        rounded to float64, with an error estimate no smaller than that
        rounding."""
        v = float(value)
        return cls(v, max(float(err), math.ulp(v) / 2), terms, level, True)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise DomainError("binomial requires nonnegative arguments")
    if k > n:
        return 0
    return math.comb(n, k)


def binom_ratio_sum(m: int, n: int) -> Fraction:
    """Exact value of sum_{k=1}^{m} C(m,k)/C(n,k) for 1 <= m <= n.

    Closed form m/(n+1-m); this routine computes the sum directly so it can
    serve as the independent side of that identity.
    """
    if m < 1 or m > n:
        raise DomainError(f"need 1 <= m <= n, got m={m}, n={n}")
    total = Fraction(0)
    for k in range(1, m + 1):
        total += Fraction(binomial(m, k), binomial(n, k))
    return total


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------

@functools.cache
def _gl_pair():
    """The 12-point and the 6-point Gauss-Legendre rules on [-1, 1]: their
    nodes as one array (the 12 first) and the weights of each."""
    import numpy as np

    (x12, w12), (x6, w6) = (np.polynomial.legendre.leggauss(n) for n in _GL_ORDERS)
    return np.concatenate([x12, x6]), w12, w6


def adaptive_quadrature(f: Callable, lo, hi, tol, *, budget=QUADRATURE_PANEL_BUDGET,
                        breaks=None):
    """Integrate ``f`` in float64 over ``[lo, hi]`` to absolute tolerance ``tol``.

    Exact endpoints that are equal give 0.0; :func:`to_float` rounds each,
    raising :class:`NonConvergenceError` where it cannot.  Adaptive
    bisection with a Gauss-Legendre pair from the mesh
    ``[lo, *breaks, hi]`` (breaks strictly monotone from lo to hi, else
    :class:`DomainError`; the quarter mesh when None, so thin layers need
    breaks graded toward them): an initial panel's share of the tolerance
    is ``tol * width / (hi - lo)``, and each panel is evaluated once, by the
    12-point rule G12 and the 6-point rule G6 on its own nodes, and
    accepted with G12 once |G12 - G6| is within its share, else bisected,
    half the share each.  Raises :class:`NonConvergenceError` when the
    panel budget is exhausted; the budget is checked before each round.

    The bisection runs breadth first: ``f`` takes a 1-D float64 array of
    nodes and returns their values as an array of the same length, and is
    called once per round, on the 18 nodes of every pending panel (the
    initial mesh first).  Accepted panels are summed by descending left
    endpoint, the order of a depth-first walk that refines the right half
    first.  Returns a float.
    """
    import numpy as np

    check_tolerance(tol)
    nodes, w12, w6 = _gl_pair()
    if lo == hi:
        return 0.0
    lo_ = to_float(lo, NonConvergenceError)
    hi_ = to_float(hi, NonConvergenceError, lo, f"the interval [{lo}, {hi}]: its endpoints")
    if breaks is None:
        c = (lo_ + hi_) / 2
        mesh = [lo_, (lo_ + c) / 2, c, (c + hi_) / 2, hi_]
    else:
        mesh = [lo_, *map(float, breaks), hi_]
        if not all(a < b if lo_ < hi_ else a > b for a, b in zip(mesh, mesh[1:])):
            raise DomainError(f"breaks {breaks} do not run strictly from {lo} to {hi}")

    def rule(values, weights):
        # the node-by-node accumulation of the scalar rule, per panel
        total = np.zeros(len(values))
        for k, w in enumerate(weights):
            total = total + w * values[:, k]
        return total

    pending = [(a, b, float(tol) * ((b - a) / (hi_ - lo_))) for a, b in zip(mesh, mesh[1:])]
    panels = 0
    accepted = []
    while pending:
        panels += len(pending)
        if panels > budget:
            raise NonConvergenceError(
                f"quadrature panel budget {budget} exhausted on [{lo}, {hi}]")
        a, b, _ = np.array(pending).T
        h, c = (b - a) / 2, (a + b) / 2
        values = np.asarray(f((c[:, None] + h[:, None] * nodes).ravel())).reshape(len(a), -1)
        fine, coarse = rule(values, w12) * h, rule(values[:, len(w12):], w6) * h
        refined = []
        for (left, right, share), g12, g6 in zip(pending, fine.tolist(), coarse.tolist()):
            if abs(g12 - g6) <= share:
                accepted.append((left, g12))
            else:
                mid = (left + right) / 2
                refined += [(left, mid, share / 2), (mid, right, share / 2)]
        pending = refined
    total = 0.0
    for _, value in sorted(accepted, key=lambda panel: panel[0], reverse=True):
        total += value
    return float(total)


# ---------------------------------------------------------------------------
# Sequence extrapolation
# ---------------------------------------------------------------------------

def _basis_term(log_power, inv_power):
    if log_power == 0:
        return lambda N: 1 / N ** inv_power
    return lambda N: math.log(N) ** log_power / N ** inv_power


# Tail-model bases, in the order terms are added as more samples arrive.
# POWER_FIRST suits plain power tails (partial sums of convergent p-series);
# LOG_FIRST suits tails dominated by log-polynomial corrections at first
# order, which arise from runs of unit arguments in chain sums.  Ladder
# drivers may fit both and keep whichever is self-consistent.
BASIS_POWER_FIRST = tuple(_basis_term(l, i) for l, i in
                          ((0, 1), (0, 2), (1, 1), (1, 2), (2, 2), (0, 3), (1, 3)))
BASIS_LOG_FIRST = tuple(_basis_term(l, i) for l, i in
                        ((0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2), (2, 2), (3, 2)))


@functools.cache
def _design_matrix(levels, n_terms, basis):
    """The read-only window matrix of the fit at the tuple ``levels``: row
    [1, basis_0(N), ..., basis_(n_terms-1)(N)] per level.  Every ladder
    runs 64, 128, ..., so the fits of all ladders share a few of these:
    :func:`best_extrapolant` fits, per basis, two trailing windows at each
    level from the fourth on and one at the third, which is at most 38
    matrices over ladders of up to 12 levels (``POLY_MAX_N``'s)."""
    import numpy as np

    A = np.array([[1.0] + [fn(N) for fn in basis[:n_terms]] for N in levels])
    A.flags.writeable = False
    return A


def _window_limit(levels, values, n_terms, basis):
    """Fit value ~ c0 + sum c_t * basis_t(N), t < ``n_terms``, on the
    trailing window.

    A float64 solve for float64 data.  It fits ``values - values[-1]`` and
    adds ``values[-1]`` back, so a constant window fits exactly and a large
    limit never passes through the solve.  Raises :class:`SingularFitError`
    when the matrix is singular or the limit is not finite.
    """
    import numpy as np

    k = n_terms + 1
    levels = tuple(levels[-k:])
    values = [float(v) for v in values[-k:]]
    A = _design_matrix(levels, n_terms, basis)
    try:
        c0 = float(np.linalg.solve(A, np.array(values) - values[-1])[0])
    except np.linalg.LinAlgError as exc:
        raise SingularFitError(f"singular window fit at levels {levels}") from exc
    if not math.isfinite(c0):
        raise SingularFitError(f"non-finite window fit at levels {levels}")
    return c0 + values[-1]


def best_extrapolant(levels, values, noise_floor=0.0):
    """Extrapolate with each basis ordering and keep the smallest
    embedded error estimate (three times the shift caused by dropping the
    model's last term on the final window), guarded below by the
    disagreement between the candidate models and by the caller's noise
    floor.  The cross-model guard prevents a structurally wrong model from
    reporting a coincidentally tiny estimate.

    Returns ``(value, error_estimate)`` as floats, or None when every fit
    is singular or fewer than four samples are available.
    """
    if len(values) < 4:
        return None
    fits = []
    for basis in (BASIS_POWER_FIRST, BASIS_LOG_FIRST):
        k = min(len(values) - 1, len(basis))
        k_prev = min(len(values) - 2, len(basis))
        try:
            e_full = _window_limit(levels, values, k, basis)
            e_less = _window_limit(levels, values, k - 1, basis)
            e_prev = _window_limit(levels[:-1], values[:-1], k_prev, basis)
        except SingularFitError:
            continue
        # model sensitivity on the final window, plus sequential stability of
        # the same model across the last two windows
        est = max(3 * abs(e_full - e_less), abs(e_full - e_prev) / 2)
        fits.append((e_full, est))
    if not fits:
        return None
    value, est = min(fits, key=lambda f: f[1])
    return value, max(est, noise_floor)
