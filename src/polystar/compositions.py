"""Index tuples (compositions), block-structured tuple families, the chain
statistic Q, argument-string builders, and parameter-domain predicates.

A composition s = (s_1, ..., s_d) of positive integers partitions a chain of
summation indices n_1 >= ... >= n_{|s|} into d consecutive blocks, block r
spanning positions |s|_{r-1}+1 .. |s|_r where |s|_r = s_1 + ... + s_r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .kernel import DomainError


def as_fraction(x):
    """Exact coercion: int/Fraction pass through, finite floats convert
    exactly; a NaN or infinite float raises :class:`DomainError`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        try:
            return Fraction(x)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"expected a finite scalar, got {x}") from exc
    raise DomainError(f"expected a rational-representable scalar, got {type(x)!r}")


@dataclass(frozen=True)
class Composition:
    """Nonempty tuple of positive integer parts.

    ``weight`` is the sum of the parts, ``depth`` their count, and
    ``prefix_weights[r]`` the sum of the first r parts (index 0 gives 0).
    """

    parts: tuple

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if not parts:
            raise DomainError("composition must be nonempty")
        if any(p < 1 for p in parts):
            raise DomainError(f"composition parts must be >= 1, got {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def depth(self):
        return len(self.parts)

    @property
    def prefix_weights(self):
        acc = [0]
        for p in self.parts:
            acc.append(acc[-1] + p)
        return tuple(acc)

    def block_bounds(self):
        """(start, end) positions of each block, 1-based inclusive."""
        pw = self.prefix_weights
        return tuple((pw[r] + 1, pw[r + 1]) for r in range(self.depth))

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse the CLI syntax, e.g. ``"3,2"``."""
        try:
            parts = tuple(int(tok) for tok in text.split(","))
        except ValueError as exc:
            raise DomainError(f"cannot parse composition {text!r}") from exc
        return cls(parts)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)


def as_composition(s) -> Composition:
    if isinstance(s, Composition):
        return s
    if isinstance(s, int):
        return Composition((s,))
    return Composition(tuple(s))


@dataclass(frozen=True)
class ShapeBlocks:
    """Block description (m_i, u_i) generating the structured tuples.

    Family A builds ``(m_1+2, {1}_{u_1}, ..., m_{d-1}+2, {1}_{u_{d-1}}, m_d+2)``
    (u has length d-1); family B appends a trailing group of ones,
    ``(m_1+2, {1}_{u_1}, ..., m_d+2, {1}_{u_d})`` with u_d >= 1.
    """

    family: str
    m: tuple
    u: tuple = field(default=())

    def __post_init__(self):
        family = self.family.upper()
        m = tuple(int(v) for v in self.m)
        u = tuple(int(v) for v in self.u)
        if family not in ("A", "B"):
            raise DomainError(f"family must be 'A' or 'B', got {self.family!r}")
        if not m:
            raise DomainError("m must be nonempty")
        if any(v < 0 for v in m) or any(v < 0 for v in u):
            raise DomainError("m_i and u_i must be nonnegative")
        d = len(m)
        if family == "A" and len(u) != d - 1:
            raise DomainError(f"family A needs len(u) == d-1, got d={d}, len(u)={len(u)}")
        if family == "B":
            if len(u) != d:
                raise DomainError(f"family B needs len(u) == d, got d={d}, len(u)={len(u)}")
            if u[-1] < 1:
                raise DomainError("family B requires u_d >= 1")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "u", u)

    @property
    def d(self):
        return len(self.m)

    @classmethod
    def parse(cls, text: str) -> "ShapeBlocks":
        """Parse the CLI syntax, e.g. ``"A:m=2,1,0;u=2,0"`` (``u=`` may be empty)."""
        try:
            family, rest = text.split(":", 1)
            fields = dict(item.split("=", 1) for item in rest.split(";") if item)
            m = tuple(int(v) for v in fields["m"].split(",") if v != "")
            u_text = fields.get("u", "")
            u = tuple(int(v) for v in u_text.split(",") if v != "")
        except (ValueError, KeyError) as exc:
            raise DomainError(f"cannot parse shape {text!r}") from exc
        return cls(family, m, u)

    def __str__(self):
        return f"{self.family}:m={','.join(map(str, self.m))};u={','.join(map(str, self.u))}"


def shape_composition(shape: ShapeBlocks) -> Composition:
    """Composition generated by a block description."""
    parts = []
    if shape.family == "A":
        for i in range(shape.d - 1):
            parts.append(shape.m[i] + 2)
            parts.extend([1] * shape.u[i])
        parts.append(shape.m[-1] + 2)
    else:
        for i in range(shape.d):
            parts.append(shape.m[i] + 2)
            parts.extend([1] * shape.u[i])
    return Composition(tuple(parts))


def q_of(s, chain) -> int:
    """Chain statistic Q(s) = sum over blocks of (first index - last index)."""
    s = as_composition(s)
    idx = tuple(int(v) for v in chain)
    if len(idx) != s.weight:
        raise DomainError(f"chain length {len(idx)} != composition weight {s.weight}")
    if min(idx) < 1 or any(x < y for x, y in zip(idx, idx[1:])):
        raise DomainError(f"chain must be nonincreasing with indices >= 1, got {idx}")
    total = 0
    for start, end in s.block_bounds():
        total += idx[start - 1] - idx[end - 1]
    return total


def chain_q_signs(s) -> tuple:
    """Per-position contribution sign of each chain index to Q(s).

    +1 at the start of a block of size >= 2, -1 at its end, 0 elsewhere
    (size-1 blocks contribute nothing).
    """
    s = as_composition(s)
    signs = []
    for part in s.parts:
        if part == 1:
            signs.append(0)
        else:
            signs.append(+1)
            signs.extend([0] * (part - 2))
            signs.append(-1)
    return tuple(signs)


def transform_bases(s, p) -> tuple:
    """Per-index bases of the chain-sum transform at p != 1: 1-p where an
    index opens a block of size >= 2, 1/(1-p) where it closes one, and 1
    elsewhere (the signs of :func:`chain_q_signs`), so that the bases raised
    to a chain's indices multiply to (1-p)^{Q(s)}.

    Computes in the scalar type of ``p``; an int ``p`` gives Fractions.
    """
    if p == 1:
        raise DomainError("p = 1 is excluded (1/(1-p) undefined)")
    if isinstance(p, int):
        p = Fraction(p)
    q = 1 - p
    by_sign = {+1: q, 0: type(q)(1), -1: 1 / q}
    return tuple(by_sign[sign] for sign in chain_q_signs(s))


def shape_args(shape: ShapeBlocks, variant: str, a, p) -> tuple:
    """Argument string of length |s| for the depth-|s| side of the block
    identities: the transform bases of ``shape_composition(shape)`` with the
    last entry times 1-p+ap (``variant="main"``, the a-dependent string) or
    times 1-p (``variant="sub"``, the a-free one).  Exact rational inputs
    yield exact rational arguments.
    """
    if variant not in ("main", "sub"):
        raise DomainError(f"variant must be 'main' or 'sub', got {variant!r}")
    p = as_fraction(p)
    a = as_fraction(a)
    args = list(transform_bases(shape_composition(shape), p))
    args[-1] *= (1 - p + a * p) if variant == "main" else 1 - p
    return tuple(args)


# Validity regions for the numeric identities.  Inputs are coerced to exact
# rationals (floats convert exactly), so boundary points compare exactly and
# count as inside.

def domain_check(constraint_id: str, a, p) -> bool:
    """True iff (a, p) lies in the named validity region."""
    a = as_fraction(a)
    p = as_fraction(p)
    if constraint_id == "MAIN_AP":
        if p == 1 or p <= 0:
            return False
        bound = min(Fraction(1), Fraction(2) / p - 1)
        return abs(a) <= bound
    if constraint_id == "A1_P":
        return a == 1 and 0 < p < 1
    if constraint_id == "RED_BOX":
        in_box = (-1 <= a <= Fraction(1, 3)) and (Fraction(1, 2) <= p <= Fraction(3, 2))
        return in_box and p != 1 and domain_check("MAIN_AP", a, p)
    raise DomainError(f"unknown constraint id {constraint_id!r}")


def mean_lhs_converges(s, a) -> bool:
    """Whether the depth-d star polylogarithm with arguments (1,...,1,a)
    converges: a leading part >= 2, or the single-part depth-one case with
    |a| <= 1, a != 1; both tested on the exact ``a``."""
    s = as_composition(s)
    if abs(a) > 1:
        return False
    if s.parts[0] >= 2:
        return True
    return s.depth == 1 and a != 1


# The four side assemblies of the series identities (see
# ``polylog.li_identity_sides``), each with its validity region: the
# constraint id, and the region as a predicate of (a, p).  RED1 checks
# RED_BOX at a = 1 - 1/p.  For 1/2 <= p <= 3/2 that a runs from -1 to 1/3,
# and |1 - 1/p| <= min(1, 2/p - 1) reduces to 1/2 <= p <= 3/2, so the
# region is that interval without p = 1; written so, it needs no 1/p, and
# p = 0 is outside it.
SERIES_REGIONS = {
    "MAIN": ("MAIN_AP", lambda a, p: domain_check("MAIN_AP", a, p)),
    "A1": ("A1_P", lambda a, p: domain_check("A1_P", 1, p)),
    "RED1": ("RED_BOX", lambda a, p: (Fraction(1, 2) <= as_fraction(p) <= Fraction(3, 2)
                                      and p != 1)),
    "RED2": ("RED_BOX", lambda a, p: domain_check("RED_BOX", a, p)),
}
# the kind of each series identity; INTRO_* are the one-block LI1 shapes
SERIES_KIND = {"INTRO_SERIES": "MAIN", "INTRO_RED_L": "RED1", "INTRO_RED_R": "RED2",
               **{f"LI{n}_{kind}": kind for n in "12" for kind in SERIES_REGIONS}}


def series_domain(kind, a, p) -> bool:
    """True iff (a, p) lies in the validity region of the series ``kind``."""
    return SERIES_REGIONS[kind][1](a, p)
