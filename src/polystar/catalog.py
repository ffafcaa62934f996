"""Declarative registry of every verified identity: parameter schemas,
validity domains, evaluator bindings, default verification grids, and
deterministic fuzzing.

Exact identities compare with ``==`` on rationals; numeric ones compare
``|lhs - rhs|`` against a tolerance after evaluating both sides to a quarter
of it; quadrature ones integrate one side numerically against an exact sum.

The registry, its domains, grids and samplers are pure Python.  The modules
that evaluate sides (``exact``, ``polylog`` and numpy) are imported inside
the evaluate callables, at an identity's first evaluation; ``exact`` and
``polylog`` stay reachable as attributes of this module.
"""

from __future__ import annotations

import importlib
import itertools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .compositions import (SERIES_KIND, SERIES_REGIONS, Composition, ShapeBlocks,
                           as_composition, as_fraction, mean_lhs_converges,
                           series_domain)
from .kernel import (DomainError, EvalResult, NonConvergenceError, adaptive_quadrature,
                     binom_ratio_sum, check_tolerance, fmt, to_float)


def __getattr__(name):
    # the evaluating modules, imported on first use (PEP 562)
    if name in ("exact", "polylog"):
        return importlib.import_module(f"{__package__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class Identity:
    """One catalog identity: what it states, its two sides, its grid, its
    fuzz sampler and its validity check."""
    id: str
    anchor: str
    mode: str  # EXACT | NUMERIC | QUADRATURE
    param_types: dict
    evaluate: object              # (params, tol) -> (lhs, rhs)
    grid: object                  # () -> iterable of (params, tol or None)
    sample: object                # (rng) -> params
    domain: object = None         # (params) -> (ok, reason)
    constraint_id: str = None
    default_tol: float = 1e-8     # verify's tolerance when given none

    def __post_init__(self):
        if self.mode not in ("EXACT", "NUMERIC", "QUADRATURE"):
            raise DomainError(f"bad mode {self.mode!r}")

    def check_params(self, params):
        """Raise :class:`DomainError` naming each declared parameter not in ``params``."""
        missing = [key for key in self.param_types if key not in params]
        if missing:
            raise DomainError(f"missing parameter {', '.join(map(repr, missing))} "
                              f"for {self.id}")


@dataclass
class IdentityReport:
    id: str
    params: dict
    mode: str
    lhs: object = None
    rhs: object = None
    err_lhs: object = None
    err_rhs: object = None
    abs_diff: object = None
    rel_diff: float = None
    tolerance: float = None
    status: str = None  # pass | fail | skip | not_converged
    reason: str = None  # why a report is a skip or not_converged
    cost: dict = field(default_factory=dict)
    anchor: str = ""

    @property
    def passed(self):
        """None for a skip, else whether the report is a pass."""
        return None if self.status == "skip" else self.status == "pass"

    def _fmt(self, v):
        if v is None:
            return None
        if isinstance(v, Fraction):
            return str(v)
        if isinstance(v, float):
            return fmt(v, 17)
        return repr(v)

    def to_json_dict(self):
        return {
            "id": self.id,
            "params": {k: str(v) for k, v in self.params.items()},
            "mode": self.mode,
            "lhs": self._fmt(self.lhs),
            "rhs": self._fmt(self.rhs),
            "err_lhs": self._fmt(self.err_lhs),
            "err_rhs": self._fmt(self.err_rhs),
            "abs_diff": self._fmt(self.abs_diff),
            "rel_diff": self.rel_diff,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "status": self.status,
            "reason": self.reason,
            "anchor": self.anchor,
            "cost": self.cost,
        }


def _all_compositions(max_weight):
    """Every composition of every weight up to max_weight."""
    out = []
    for w in range(1, max_weight + 1):
        for cuts in itertools.product((0, 1), repeat=w - 1):
            parts = []
            run = 1
            for c in cuts:
                if c:
                    parts.append(run)
                    run = 1
                else:
                    run += 1
            parts.append(run)
            out.append(Composition(tuple(parts)))
    return out


def _shapes(family, d_max, m_max, u_max):
    shapes = []
    for d in range(1, d_max + 1):
        m_grid = itertools.product(range(m_max + 1), repeat=d)
        if family == "A":
            u_len = d - 1
            u_grid_fn = lambda: itertools.product(range(u_max + 1), repeat=u_len)
        else:
            u_len = d
            u_grid_fn = lambda: (
                tuple(head) + (ud,)
                for head in itertools.product(range(u_max + 1), repeat=u_len - 1)
                for ud in range(1, u_max + 1))
        for m in m_grid:
            for u in u_grid_fn():
                shapes.append(ShapeBlocks(family, m, tuple(u)))
    return shapes


def _rational(rng, lo, hi):
    den = rng.randint(1, 12)
    lo_n = int(as_fraction(lo) * den)
    hi_n = int(as_fraction(hi) * den)
    return Fraction(rng.randint(lo_n, hi_n), den)


def _rational_excluding(rng, lo, hi, exclude):
    while True:
        v = _rational(rng, lo, hi)
        if v not in exclude:
            return v


class NonStopSampling(RuntimeError):
    """An in-domain fuzz sampler kept producing out-of-domain points."""


_A_GRID = (Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2))
_P_GRID = (Fraction(-1), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(2))
_DILCHER_A = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1, 2),
              Fraction(1), Fraction(2), Fraction(3))
_LI_AP = ((1, 0.3), (1, 0.5), (1, 0.7), (0.5, 0.5), (-1, 0.5))
_RED_A = (-1, 0, 0.25)
_RED_P = (0.5, 0.75)
_P3 = (0.3, 0.5, 0.7)


_REGISTRY: dict = {}


def _register(identity):
    if identity.id in _REGISTRY:
        raise DomainError(f"duplicate identity id {identity.id}")
    _REGISTRY[identity.id] = identity


def _exact_pair(fn):
    """The evaluate callable of an EXACT identity: ``fn(exact, params)``.
    It imports ``exact`` at its first call and keeps it: an EXACT instance
    takes tens of microseconds, and an import statement per call costs
    about one of them."""
    exact = None

    def evaluate(params, tol):
        nonlocal exact
        if exact is None:
            from . import exact
        return fn(exact, params)
    return evaluate


# --- finite / exact identities ---------------------------------------------

_register(Identity(
    "MNEIMNEH_ORIG",
    "sum_{k<=n} C(n,k) p^k (1-p)^(n-k) H_k = sum_{k<=n} (1-(1-p)^k)/k",
    "EXACT", {"n": "int", "p": "rational"},
    _exact_pair(lambda exact, pr: (exact.mneimneh_lhs(pr["n"], (1,), 1, pr["p"]),
                                   exact.classic_binomial_rhs(pr["n"], pr["p"]))),
    lambda: ((dict(n=n, p=p), None) for n in range(1, 11)
             for p in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))),
    sample=lambda rng: dict(n=rng.randint(1, 15), p=_rational(rng, 0, 1)),
))

_register(Identity(
    "GENCEV_D1",
    "weighted average of order-s harmonic numbers equals the depth-1 "
    "chain transform with factor (1-p)^(n_1) ((1+ap/(1-p))^(n_s) - 1)",
    "EXACT", {"n": "int", "s": "int", "a": "rational", "p": "rational"},
    _exact_pair(lambda exact, pr: (exact.mneimneh_lhs(pr["n"], (pr["s"],), pr["a"], pr["p"]),
                                   exact.depth1_rhs(pr["n"], pr["s"], pr["a"], pr["p"]))),
    lambda: ((dict(n=n, s=s, a=a, p=p), None)
             for n in range(1, 9) for s in range(1, 5)
             for a in (Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2))
             for p in _P_GRID),
    sample=lambda rng: dict(n=rng.randint(1, 10), s=rng.randint(1, 4),
                            a=_rational(rng, -2, 2),
                            p=_rational_excluding(rng, -1, 2, (Fraction(1),))),
    domain=lambda pr: (pr["p"] != 1, "p = 1 excluded"),
))

_register(Identity(
    "MAIN_TRANSFORM",
    "sum_{k<=n} C(n,k) p^k (1-p)^(n-k) zeta*_k(s;a) equals the chain sum of "
    "(1-p)^Q(s) [(1-p+ap)^(n_|s|) - (1-p)^(n_|s|)] / (n_1...n_|s|)",
    "EXACT", {"n": "int", "s": "composition", "a": "rational", "p": "rational"},
    _exact_pair(lambda exact, pr: (exact.mneimneh_lhs(pr["n"], pr["s"], pr["a"], pr["p"]),
                                   exact.main_rhs(pr["n"], pr["s"], pr["a"], pr["p"]))),
    lambda: ((dict(n=n, s=s, a=a, p=p), None)
             for s in _all_compositions(4) for n in range(1, 11)
             for a in _A_GRID for p in _P_GRID),
    sample=lambda rng: dict(n=rng.randint(1, 10),
                            s=rng.choice(_all_compositions(4)),
                            a=_rational(rng, -2, 2), p=_rational(rng, -1, 2)),
))

_register(Identity(
    "EX_FIRST",
    "sum_k C(n,k) sum_{j<=k} [sum_{i<=j} (-1)^(i-1)/i^2]/j^3 = "
    "sum over 5-chains of 2^(n-n_1+n_3-n_4)/(n_1...n_5)",
    "EXACT", {"n": "int"},
    _exact_pair(lambda exact, pr: exact.power_weight_example_sides(pr["n"])),
    lambda: ((dict(n=n), None) for n in range(1, 9)),
    sample=lambda rng: dict(n=rng.randint(1, 8)),
))

_register(Identity(
    "MN1",
    "for s = {1}_d the chain transform collapses to "
    "sum [(1-p+ap)^(n_d) - (1-p)^(n_d)]/(n_1...n_d)",
    "EXACT", {"n": "int", "d": "int", "a": "rational", "p": "rational"},
    _exact_pair(lambda exact, pr: (exact.main_rhs(pr["n"], (1,) * pr["d"], pr["a"], pr["p"]),
                                   exact.ones_rhs(pr["n"], pr["d"], pr["a"], pr["p"]))),
    lambda: ((dict(n=n, d=d, a=a, p=p), None)
             for d in range(1, 5) for n in range(1, 11)
             for a in (Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2))
             for p in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4),
                       Fraction(1), Fraction(2), Fraction(-1))),
    sample=lambda rng: dict(n=rng.randint(1, 10), d=rng.randint(1, 4),
                            a=_rational(rng, -2, 2), p=_rational(rng, -1, 2)),
))

_register(Identity(
    "DILCHER_PLUS",
    "sum_{k<=n} C(n,k) (-1)^k zeta*_k({1}_d;a) = ((1-a)^n - 1)/n^d",
    "EXACT", {"n": "int", "d": "int", "a": "rational"},
    _exact_pair(lambda exact, pr: exact.dilcher_plus(pr["n"], pr["d"], pr["a"])),
    lambda: ((dict(n=n, d=d, a=a), None)
             for n in range(1, 26) for d in range(1, 6) for a in _DILCHER_A),
    sample=lambda rng: dict(n=rng.randint(1, 20), d=rng.randint(1, 4),
                            a=_rational(rng, -2, 3)),
))

_register(Identity(
    "DILCHER_A2",
    "sum_{k<=n} C(n,k) (-1)^(k-1) zeta*_k({1}_d;2) = 0 (n even) or 2/n^d (n odd)",
    "EXACT", {"n": "int", "d": "int"},
    _exact_pair(lambda exact, pr: exact.signed_ones_cases(pr["n"], pr["d"])),
    lambda: ((dict(n=n, d=d), None) for n in range(1, 26) for d in range(1, 6)),
    sample=lambda rng: dict(n=rng.randint(1, 25), d=rng.randint(1, 5)),
))

_register(Identity(
    "ODD_BINOM",
    "sum_{k<=floor((n+1)/2)} C(n,2k-1)/(2k-1)^d = zeta*_n({1}_d;2)/2",
    "EXACT", {"n": "int", "d": "int"},
    _exact_pair(lambda exact, pr: exact.odd_binom_sum(pr["n"], pr["d"])),
    lambda: ((dict(n=n, d=d), None) for n in range(1, 26) for d in range(1, 6)),
    sample=lambda rng: dict(n=rng.randint(1, 25), d=rng.randint(1, 5)),
))

_register(Identity(
    "DILCHER_CLASSIC",
    "sum_{k<=n} C(n,k) (-1)^(k-1)/k^d = zeta*_n({1}_d)",
    "EXACT", {"n": "int", "d": "int"},
    _exact_pair(lambda exact, pr: exact.dilcher_classic(pr["n"], pr["d"])),
    lambda: ((dict(n=n, d=d), None) for n in range(1, 26) for d in range(1, 6)),
    sample=lambda rng: dict(n=rng.randint(1, 25), d=rng.randint(1, 5)),
))

_register(Identity(
    "P_DEGENERATE",
    "the chain transform is 0 at p=0 and zeta*_n(s;a) at p=1 "
    "(0^0 = 1 convention)",
    "EXACT", {"n": "int", "s": "composition", "a": "rational", "p": "rational"},
    _exact_pair(lambda exact, pr: (exact.main_rhs(pr["n"], pr["s"], pr["a"], pr["p"]),
                                   Fraction(0) if pr["p"] == 0
                                   else exact.mhsv(pr["n"], pr["s"], pr["a"]))),
    lambda: ((dict(n=n, s=s, a=a, p=p), None)
             for s in _all_compositions(4) for n in range(1, 11)
             for a in _A_GRID for p in (Fraction(0), Fraction(1))),
    sample=lambda rng: dict(n=rng.randint(1, 10), s=rng.choice(_all_compositions(4)),
                            a=_rational(rng, -2, 2), p=Fraction(rng.choice((0, 1)))),
    domain=lambda pr: (pr["p"] in (0, 1), "p must be 0 or 1"),
))


_AUX_GRID = [(dict(n=n, a=a, x=x), None)
             for n in range(1, 7)
             for a in (Fraction(1, 2), Fraction(1), Fraction(3, 2))
             for x in (Fraction(-1, 2), Fraction(1, 2), Fraction(1))]


def _aux(ident, anchor):
    variant = ident.lower()

    def evaluate(params, tol):
        from . import exact

        n, a, x = params["n"], as_fraction(params["a"]), as_fraction(params["x"])
        # float64 holds the exact rhs to half an ulp; past tol/2 no panel runs
        rhs = EvalResult.rounded(to_float(exact.aux_rhs(variant, n, a, x),
                                          NonConvergenceError, what="the rhs"))
        if rhs.error_estimate > tol / 2:
            raise NonConvergenceError(f"float64 holds the rhs {rhs.value!r} only to "
                                      f"{rhs.error_estimate:.3g}, over tol/2")
        xf = to_float(x, NonConvergenceError)

        def integrand(t):
            # no Gauss-Legendre node is at 0, so the quotient is read as written
            return ((1 + t * xf) ** n - 1) / t

        lo, hi = (0, a) if variant == "aux1" else (1 - a, 1)
        q = adaptive_quadrature(integrand, lo, hi, tol / 4)
        return EvalResult.rounded(q, tol / 4, 0, 0), rhs

    _register(Identity(
        ident, anchor, "QUADRATURE", {"n": "int", "a": "rational", "x": "rational"},
        evaluate,
        lambda: ((dict(point), tol) for point, tol in _AUX_GRID),
        sample=lambda rng: dict(n=rng.randint(1, 6), a=_rational(rng, 0, 2),
                                x=_rational(rng, -1, 1)),
        default_tol=1e-10,
    ))


_aux("AUX1", "integral_0^a ((1+Ax)^n - 1)/A dA = sum_{j<=n} ((1+ax)^j - 1)/j")
_aux("AUX2", "integral_{1-a}^1 ((1+Ax)^n - 1)/A dA = "
             "sum_{j<=n} ((1+x)^j - (1+x-ax)^j)/j")


def _pan_xu_grids():
    xy_pairs = ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(1)),
                (Fraction(1), Fraction(-2)), (Fraction(1), Fraction(0)),
                (Fraction(0), Fraction(1)))
    for r in range(0, 3):
        for u in itertools.product(range(0, 3), repeat=r + 1):
            if r == 0 and u[0] == 0:
                continue  # empty composition
            for m in itertools.product(range(0, 2), repeat=r):
                for n in range(1, 9):
                    for x, y in xy_pairs:
                        yield dict(n=n, r=r, u=u, m=m, x=x, y=y), None


def _pan_xu_sample(rng):
    r = rng.randint(0, 2)
    while True:
        u = tuple(rng.randint(0, 2) for _ in range(r + 1))
        if r > 0 or u[0] > 0:
            break
    m = tuple(rng.randint(0, 1) for _ in range(r))
    while True:
        x, y = _rational(rng, -2, 2), _rational(rng, -2, 2)
        if x + y != 0:
            return dict(n=rng.randint(1, 8), r=r, u=u, m=m, x=x, y=y)


_register(Identity(
    "PAN_XU",
    "sum_k C(n,k) x^k y^(n-k) zeta*_k({1}_(u_1),m_1+2,...,{1}_(u_(r+1))) = "
    "(x+y)^n times the chain transform at a=1, p=x/(x+y)",
    "EXACT", {"n": "int", "r": "int", "u": "intlist", "m": "intlist",
              "x": "rational", "y": "rational"},
    _exact_pair(lambda exact, pr: exact.pan_xu_check(pr["n"], pr["r"], pr["u"], pr["m"],
                                                     pr["x"], pr["y"])),
    _pan_xu_grids,
    sample=_pan_xu_sample,
    domain=lambda pr: (as_fraction(pr["x"]) + as_fraction(pr["y"]) != 0,
                       "x + y must be nonzero"),
))


_register(Identity(
    "MEAN_FINITE",
    "(1/(n+1)) sum_{k<=n} zeta*_k(s;a) equals the (|s|+1)-chain sum with the "
    "binomial-ratio kernel C(n_|s|,n_(|s|+1))/C(Q+n_|s|,n_(|s|+1))",
    "EXACT", {"n": "int", "s": "composition", "a": "rational"},
    _exact_pair(lambda exact, pr: (exact.mean_lhs(pr["n"], pr["s"], pr["a"]),
                                   exact.mean_rhs(pr["n"], pr["s"], pr["a"]))),
    lambda: ((dict(n=n, s=s, a=a), None)
             for s in _all_compositions(4) for n in range(1, 13)
             for a in (Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2))),
    sample=lambda rng: dict(n=rng.randint(1, 12), s=rng.choice(_all_compositions(4)),
                            a=_rational(rng, -2, 2)),
))

_register(Identity(
    "MEAN_EX1",
    "(1/(n+1)) sum_{k<=n} zeta*_k({1}_d) = "
    "sum over d-chains of 1/(n_1...n_(d-1)(n_d+1))",
    "EXACT", {"n": "int", "d": "int"},
    _exact_pair(lambda exact, pr: (exact.mean_lhs(pr["n"], (1,) * pr["d"], 1),
                                   exact.mean_example1_rhs(pr["n"], pr["d"]))),
    lambda: ((dict(n=n, d=d), None) for d in range(1, 5) for n in range(1, 13)),
    sample=lambda rng: dict(n=rng.randint(1, 12), d=rng.randint(1, 4)),
))

_register(Identity(
    "MEAN_SUM_HK",
    "sum_{k<=n} H_k = (n+1)(H_(n+1) - 1)",
    "EXACT", {"n": "int"},
    _exact_pair(lambda exact, pr: exact.mean_sum_hk_sides(pr["n"])),
    lambda: ((dict(n=n), None) for n in range(1, 51)),
    sample=lambda rng: dict(n=rng.randint(1, 60)),
))

_register(Identity(
    "BINOM_RATIO",
    "sum_{k<=m} C(m,k)/C(n,k) = m/(n+1-m)",
    "EXACT", {"m": "int", "n": "int"},
    _exact_pair(lambda exact, pr: (binom_ratio_sum(pr["m"], pr["n"]),
                                   Fraction(pr["m"], pr["n"] + 1 - pr["m"]))),
    lambda: ((dict(m=m, n=n), None) for n in range(1, 26) for m in range(1, n + 1)),
    sample=lambda rng: (lambda n: dict(m=rng.randint(1, n), n=n))(rng.randint(1, 60)),
    domain=lambda pr: (1 <= pr["m"] <= pr["n"], "need 1 <= m <= n"),
))


# --- series identities (numeric) -------------------------------------------

def _series(ident, anchor, param_types, points, sample, shape_key="shape"):
    """Register a series identity, checked on ``points`` in order.  Its sides
    are ``polylog.li_identity_sides`` at ``params[shape_key]`` (the order of
    ``INTRO_*``, the block shape of ``LI*``), or the closed-form
    ``polylog.li_example_sides`` of ``LI*_EX``.  Its kind (MAIN, A1, RED1 or
    RED2; ``LI*_EX`` is A1) names its constraint in the one table of series
    regions, ``compositions.SERIES_REGIONS``, and its domain is that region."""
    example = ident.endswith("_EX")
    kind = "A1" if example else SERIES_KIND[ident]

    def evaluate(params, tol):
        from . import polylog

        if example:
            family = "A" if ident.startswith("LI1") else "B"
            return polylog.li_example_sides(family, params["d"], params["p"], tol)
        # verify has gated the domain already, or was told not to
        return polylog.li_identity_sides(
            ident, params[shape_key], params.get("a", 1), params["p"],
            tol, check_domain=False)

    def domain(params):
        return (series_domain(kind, params.get("a", 1), params["p"]),
                "outside validity region")

    _register(Identity(ident, anchor, "NUMERIC", param_types, evaluate,
                       lambda: ((dict(point), None) for point in points), sample,
                       domain, constraint_id=SERIES_REGIONS[kind][0]))


_series("INTRO_SERIES",
        "Li_s(a) = Li*_{1..1}(1-p,{1}_(s-2),1+ap/(1-p)) - Li*_{1..1}(1-p,{1}_(s-1))",
        {"s": "int", "a": "rational", "p": "rational"},
        [dict(s=s, a=a, p=p) for s in (2, 3, 4)
         for a, p in ((0.5, 0.5), (-1, 0.5), (1, 0.4))],
        lambda rng: dict(s=rng.randint(2, 4), a=float(_rational(rng, -1, 1)),
                         p=float(_rational(rng, 0, 2))),
        shape_key="s")

_series("INTRO_RED_L", "Li*_{1..1}(1-p,{1}_(s-1)) = -Li_s(1-1/p)",
        {"s": "int", "p": "rational"},
        [dict(s=s, p=p) for s in (2, 3, 4) for p in _RED_P],
        lambda rng: dict(s=rng.randint(2, 4), p=0.5 + rng.random() * 0.45),
        shape_key="s")

_series("INTRO_RED_R", "Li*_{1..1}(1-p,{1}_(s-2),1+ap/(1-p)) = Li_s(a) - Li_s(1-1/p)",
        {"s": "int", "a": "rational", "p": "rational"},
        [dict(s=s, a=a, p=p) for s in (2, 3, 4) for a in _RED_A for p in _RED_P],
        lambda rng: dict(s=rng.randint(2, 4), a=rng.uniform(-1, 1 / 3),
                         p=0.5 + rng.random() * 0.45),
        shape_key="s")


def _li_entry(ident, family, points, anchor):
    """A block-family identity at every shape of depth, block sizes and
    trailing sizes up to 2, crossed with ``points``; a rational parameter
    per key of a point."""
    shapes = _shapes(family, 2, 2, 2)
    _series(ident, anchor, {"shape": "shape", **dict.fromkeys(points[0], "rational")},
            [dict(shape=shape, **point) for shape in shapes for point in points],
            lambda rng: dict(shape=rng.choice(shapes), **points[rng.randrange(len(points))]))


_li_entry("LI1_MAIN", "A", [dict(a=a, p=p) for a, p in _LI_AP],
          "Li*_s({1}_(d-1),a) equals the main/sub argument-string difference "
          "of depth-|s| star polylogarithms (trailing-block family)")

_li_entry("LI2_MAIN", "B", [dict(a=a, p=p) for a, p in _LI_AP],
          "Li*_s({1}_(d-1),a) equals the main/sub argument-string difference "
          "of depth-|s| star polylogarithms (trailing-ones family)")

_li_entry("LI1_RED1", "A", [dict(p=p) for p in _RED_P],
          "the a-free depth-|s| string reduces to -Li*_s({1}_(d-1),1-1/p)")

_li_entry("LI2_RED1", "B", [dict(p=p) for p in _RED_P],
          "the a-free depth-|s| string reduces to -Li*_s({1}_(d-1),1-1/p) "
          "(trailing-ones family)")

_li_entry("LI1_RED2", "A", [dict(a=a, p=p) for a in _RED_A for p in _RED_P],
          "the a-dependent depth-|s| string reduces to "
          "Li*_s({1}_(d-1),a) - Li*_s({1}_(d-1),1-1/p)")

_li_entry("LI2_RED2", "B", [dict(a=a, p=p) for a in _RED_A for p in _RED_P],
          "the a-dependent depth-|s| string reduces to "
          "Li*_s({1}_(d-1),a) - Li*_s({1}_(d-1),1-1/p) (trailing-ones family)")

_A1_SHAPES = {family: _shapes(family, 2, 1, 1) for family in "AB"}

_series("LI1_A1",
        "zeta*(s) equals the unit-argument main/sub string difference, "
        "independently of p in (0,1)",
        {"shape": "shape", "p": "rational"},
        [dict(shape=shape, p=p) for shape in _A1_SHAPES["A"] for p in _P3],
        lambda rng: dict(shape=rng.choice(_A1_SHAPES["A"]), p=0.2 + rng.random() * 0.6))

_series("LI2_A1",
        "zeta*(s) equals the unit-argument main/sub string difference "
        "(trailing-ones family), independently of p in (0,1)",
        {"shape": "shape", "p": "rational"},
        [dict(shape=shape, p=p) for shape in _A1_SHAPES["B"] for p in _P3],
        lambda rng: dict(shape=rng.choice(_A1_SHAPES["B"]), p=0.2 + rng.random() * 0.6))

_series("LI1_EX",
        "(2-4^(1-d)) zeta(2d) = Li*_{1..1}({1-p,1/(1-p)}_d) - "
        "Li*_{1..1}({1-p,1/(1-p)}_(d-1),1-p,1)",
        {"d": "int", "p": "rational"},
        [dict(d=d, p=p) for d in (1, 2) for p in _P3],
        lambda rng: dict(d=rng.randint(1, 2), p=0.2 + rng.random() * 0.6))

_series("LI2_EX",
        "2 zeta(2d+1) = Li*_{1..1}({1-p,1/(1-p)}_d,1) - "
        "Li*_{1..1}({1-p,1/(1-p)}_d,1-p)",
        {"d": "int", "p": "rational"},
        [dict(d=d, p=p) for d in (1, 2) for p in _P3],
        lambda rng: dict(d=rng.randint(1, 2), p=0.2 + rng.random() * 0.6))


def _mean_inf_sides(ident):
    """The evaluate callable of ``MEAN_INF_A`` or ``MEAN_INF_1``; verify has
    gated the domain already, or was told not to."""
    def evaluate(params, tol):
        from . import polylog

        return polylog.li_identity_sides(ident, params["s"], params.get("a", 1), None,
                                         tol, check_domain=False)
    return evaluate


_register(Identity(
    "MEAN_INF_A",
    "Li*_s({1}_(d-1),a) equals the infinite binomial-ratio mean kernel sum",
    "NUMERIC", {"s": "composition", "a": "rational"},
    _mean_inf_sides("MEAN_INF_A"),
    lambda: ((dict(s=s, a=a), None)
             for s, alist in ((Composition((2,)), (1, 0.5, -1)),
                              (Composition((1, 1)), (0.5,)),
                              (Composition((2, 1)), (1, 0.5, -1)))
             for a in alist),
    sample=lambda rng: dict(s=rng.choice((Composition((2,)), Composition((2, 1)))),
                            a=float(_rational(rng, -1, 1))),
    domain=lambda pr: (mean_lhs_converges(pr["s"], pr["a"]),
                       "left side diverges"),
    default_tol=1e-6,
))

_register(Identity(
    "MEAN_INF_1",
    "zeta*(s) = sum over |s|-chains of 1/((Q+1)(Q+n_|s|+1) n_1...n_(|s|-1))",
    "NUMERIC", {"s": "composition"},
    _mean_inf_sides("MEAN_INF_1"),
    lambda: iter(((dict(s=Composition((2,))), 1e-6),
                  (dict(s=Composition((3,))), 1e-6),
                  (dict(s=Composition((2, 2))), 1e-5))),
    sample=lambda rng: dict(s=rng.choice((Composition((2,)), Composition((3,)),
                                          Composition((2, 2))))),
    domain=lambda pr: (as_composition(pr["s"]).parts[0] >= 2, "needs s_1 >= 2"),
    default_tol=1e-6,
))


def _mean_ex2_eval(params, tol):
    from . import polylog

    d = params["d"]
    s = Composition((2,) * d)
    lhs = polylog.mean_kernel_infinite(s, tol / 4)
    closed = polylog.zeta_star_closed("TWO_D", d)
    return lhs, EvalResult.rounded(closed)


_register(Identity(
    "MEAN_EX2",
    "sum over 2d-chains of 1/((1+alt-sum)(1+alt-sum')n_1...n_(2d-1)) = "
    "zeta*({2}_d) = (2-4^(1-d)) zeta(2d)",
    "NUMERIC", {"d": "int"},
    _mean_ex2_eval,
    lambda: iter(((dict(d=1), 1e-6), (dict(d=2), 1e-5))),
    sample=lambda rng: dict(d=rng.randint(1, 2)),
    default_tol=1e-6,
))


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def list_identities():
    """Every identity record, sorted by id."""
    return [identity for _, identity in sorted(_REGISTRY.items())]


def get_entry(identity_id):
    """The record of one identity; :class:`DomainError` for an unknown id."""
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise DomainError(f"unknown identity {identity_id!r}") from None


def default_grid(identity_id):
    """The identity's built-in verification grid: (params, tol) pairs."""
    return get_entry(identity_id).grid()


def verify(identity_id, params=None, tol=None, outside=False) -> IdentityReport:
    """Evaluate one identity instance and compare its sides.

    Domain violations yield a skipped report (not a failure) unless
    ``outside=True``, in which case the evaluation is attempted anyway and a
    :class:`DomainError` from it is reported as ``not_converged``.  So is a
    :class:`NonConvergenceError`, and a side that cannot decide the
    comparison: a ladder that ended unconverged, or an error estimate over
    tol/2, the largest share any evaluator gives a side; ``reason`` names
    each.  Mathematical failure never raises; it returns status ``fail``.  A
    declared parameter missing from ``params``, or a ``tol`` that is not
    finite and > 0, raises :class:`DomainError`.
    """
    entry = get_entry(identity_id)
    params = dict(params or {})
    entry.check_params(params)
    if tol is None:
        tol = entry.default_tol
    check_tolerance(tol)
    report = IdentityReport(id=entry.id, params=params, mode=entry.mode,
                            anchor=entry.anchor,
                            tolerance=None if entry.mode == "EXACT" else tol)
    if entry.domain is not None:
        ok, reason = entry.domain(params)
        if not ok and not outside:
            report.status, report.reason = "skip", reason
            return report
    start = time.perf_counter()
    try:
        lhs, rhs = entry.evaluate(params, tol)
    except DomainError as exc:
        if not outside:
            raise
        report.reason = f"evaluation rejected: {exc}"
    except NonConvergenceError as exc:
        report.reason = f"{type(exc).__name__}: {exc}"
    report.cost = {"wall_ms": round((time.perf_counter() - start) * 1e3, 3)}
    if report.reason is not None:
        report.status = "not_converged"
        return report
    if entry.mode == "EXACT":
        report.lhs, report.rhs = lhs, rhs
        if lhs == rhs:
            report.status, report.abs_diff, report.rel_diff = "pass", Fraction(0), 0.0
        else:
            report.status, report.abs_diff = "fail", abs(lhs - rhs)
            report.rel_diff = float(report.abs_diff / max(abs(lhs), abs(rhs), Fraction(1)))
        return report
    # a NUMERIC or QUADRATURE side is an EvalResult
    report.lhs, report.rhs = lhs.value, rhs.value
    report.err_lhs, report.err_rhs = lhs.error_estimate, rhs.error_estimate
    report.cost.update(terms_lhs=lhs.terms_used, terms_rhs=rhs.terms_used)
    diff = report.abs_diff = abs(lhs.value - rhs.value)
    report.rel_diff = diff / max(abs(lhs.value), abs(rhs.value), 1.0)
    stuck = [f"{side} did not converge: ladder ended at truncation_level "
             f"{r.truncation_level} with error estimate {r.error_estimate:.3g}"
             if not r.converged else f"{side} cannot decide at tolerance {tol:.3g}: "
             f"its error estimate {r.error_estimate:.3g} exceeds tol/2"
             for side, r in (("lhs", lhs), ("rhs", rhs))
             if not r.converged or r.error_estimate > tol / 2]
    if stuck:
        report.status, report.reason = "not_converged", "; ".join(stuck)
    else:
        report.status = "pass" if diff <= tol else "fail"
    return report


def fuzz(identity_id, seed, trials, tol=None, outside=False):
    """Deterministically sample ``trials`` parameter points and verify each.

    In-domain sampling rejects points outside the identity's validity region,
    so ordinary fuzz runs never produce domain skips; ``outside=True`` keeps
    every sampled point and lets evaluations fail.  ``tol`` is checked by
    :func:`verify`.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    entry = get_entry(identity_id)
    rng = random.Random(f"{identity_id}:{seed}")
    reports = []
    guard = 0
    while len(reports) < trials:
        params = entry.sample(rng)
        if not outside and entry.domain is not None:
            ok, _ = entry.domain(params)
            if not ok:
                guard += 1
                if guard > 10000 * trials:
                    raise NonStopSampling(identity_id)
                continue
        reports.append(verify(identity_id, params, tol, outside=outside))
    return reports
