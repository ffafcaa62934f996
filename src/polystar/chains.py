"""Generic evaluation of weighted sums over nonincreasing index chains.

Three evaluators share the same summand model:

* :func:`naive_chain_sum` — direct enumeration, the oracle; it,
  :func:`dp_q_naive` and ``exact.mhsv_naive`` / ``main_rhs_literal`` each
  give their own summand to one depth-first walker, :func:`_walk_chains`,
  which carries a state down each prefix and holds the enumeration budget;
* :func:`dp_chain_sum` — prefix-sum dynamic programming, O(N * L); exact
  specs run the ring-generic recurrence on integer numerators over one
  common denominator and build one Fraction for the truncation read; float
  specs run the gap-form DP, one code path for every caller: a
  :class:`GapState` holds R rows and runs each step over the whole batch
  (the last layer's powers read from two pow tables, a tail's last layer
  taking the difference of its two runs' powers, each inner layer one
  first-order recurrence along every row), and is resumable, so a
  truncation ladder extends one state level by level and computes each
  column once, bit-identical to a fresh DP per level (a state of many
  specs with shared powers, one row each, is bit-identical to one spec per
  call); the state is where a float spec whose prefix products leave the
  unit disc is refused, with :class:`PairingUnavailableError`; its one
  SciPy call, the C recurrence core of ``scipy.signal.lfilter``, is loaded
  from its extension file at the first float gap DP (:func:`load_lfilter`),
  so a process that runs none never loads SciPy, and none imports
  ``scipy.signal``;
* :func:`dp_q_coupled` — for the kernels that couple the chain statistic Q
  to the summand: one ascending sweep, the transpose of the descending
  sweep over the (chain value, partial Q) rows, seeds the last chain
  index's pass with the kernel and carries every pass up over its live
  q-range, integer numerators for exact kernels and float64 for float
  ones, and reads the contribution of each first index n_1 from one cell
  (:func:`dp_q_contributions`), so its running sums are the truncations at
  every n_1 <= N and a ladder runs one sweep (the exact MEAN_FULL kernel
  table's integer numerators come from an O(N^2) recurrence); an exact
  total is one Fraction: O(|s| * N) memory, O(N^2 * |s|) work.

:func:`adaptive_sum` drives any of them over a truncation ladder, with a
geometric-tail stopping test or window extrapolation for polynomial tails;
each level returns its value and the work it did, and the float64 result's
``terms_used`` is the sum of that work.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .compositions import Composition, as_composition, chain_q_signs
from .kernel import (BudgetExceededError, DomainError, EvalResult,
                     PairingUnavailableError, best_extrapolant, binomial,
                     check_tolerance)

NAIVE_CHAIN_BUDGET = 10 ** 7
Q_STATE_BUDGET = 2 * 10 ** 8
PAIRING_SLACK = 1e-9


@dataclass(frozen=True)
class FactorSpec:
    """Per-index summand factors base_i^{n_i} / n_i^{power_i}, with an
    optional last-index tail factor (alpha^{n_L} - gamma^{n_L})."""

    bases: tuple
    powers: tuple
    tail: tuple = None  # (alpha, gamma) or None

    def __post_init__(self):
        bases = tuple(self.bases)
        powers = tuple(int(p) for p in self.powers)
        if len(bases) != len(powers) or not bases:
            raise DomainError("bases and powers must be nonempty and equally long")
        if any(p < 0 for p in powers):
            raise DomainError("powers must be >= 0")
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "powers", powers)
        if self.tail is not None:
            object.__setattr__(self, "tail", tuple(self.tail))

    @property
    def length(self):
        return len(self.bases)

    def is_exact(self):
        scalars = list(self.bases) + (list(self.tail) if self.tail else [])
        return all(isinstance(b, (int, Fraction)) for b in scalars)


@dataclass(frozen=True)
class QKernelSpec:
    """Chain sum coupled to the block statistic Q(s).

    ``MEAN_FULL`` sums over chains of length |s|+1 with the binomial-ratio
    kernel and weight a^{n_{|s|+1}}; ``MEAN_INF`` sums over chains of length
    |s| with kernel 1/((Q+1)(Q+n_{|s|}+1)) and no 1/n_{|s|} factor, so it
    has no weight: it refuses any ``a`` other than 1 with
    :class:`DomainError`.  The scalar ``a`` picks the arithmetic, as a
    :class:`FactorSpec`'s do: an int or ``Fraction`` sums exactly, a float
    in float64 (``MEAN_INF`` only; ``MEAN_FULL`` refuses a float ``a`` with
    :class:`DomainError`).
    """

    s: Composition
    kind: str
    a: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "s", as_composition(self.s))
        if self.kind not in ("MEAN_FULL", "MEAN_INF"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "MEAN_FULL" and not isinstance(self.a, (int, Fraction)):
            raise DomainError(f"MEAN_FULL needs an exact a, got {self.a!r}")
        if self.kind == "MEAN_INF" and self.a != 1:
            raise DomainError(f"MEAN_INF has no weight: a must be 1, got {self.a!r}")

    @property
    def chain_length(self):
        return self.s.weight + (1 if self.kind == "MEAN_FULL" else 0)


# the first truncation of every ladder
LADDER_START = 64


@dataclass(frozen=True)
class TruncationSchedule:
    """The truncation ladder LADDER_START, 2 LADDER_START, ... up to ``max_n``."""

    max_n: int = 2 ** 20
    tolerance: float = 1e-8
    extrapolate: bool = False

    def __post_init__(self):
        check_tolerance(self.tolerance)

    def levels(self):
        n = LADDER_START
        while n <= self.max_n:
            yield n
            n *= 2

    def first_stop(self, min_samples=7):
        """The first level at which :func:`adaptive_sum` can return, given
        its ``min_samples``: the third level for the geometric test (a hit
        at the second level, then its safety level), else the
        ``min_samples``-th, and never below the fourth that
        :func:`best_extrapolant` needs; the last level when the ladder is
        shorter, where it returns unconverged."""
        levels = list(self.levels())
        k = max(min_samples, 4) if self.extrapolate else 3
        return levels[min(k, len(levels)) - 1]


def _walk_chains(N: int, L: int, root, step, budget=NAIVE_CHAIN_BUDGET):
    """Sum over the chains N >= n_1 >= ... >= n_L >= 1, depth first in
    lexicographic order: the one enumeration behind every oracle.

    ``step(state, i, n)`` extends a prefix's state by n_{i+1} = n (from
    ``root``, the empty prefix), so a prefix product costs one step per
    chain; the state after n_L is the chain's summand.  Refuses to start
    beyond ``budget`` chains.
    """
    count = binomial(N + L - 1, L)
    if count > budget:
        raise BudgetExceededError(f"{count} chains exceed budget {budget}")

    def walk(state, i, hi):
        if i == L - 1:
            return sum(step(state, i, n) for n in range(1, hi + 1))
        return sum(walk(step(state, i, n), i + 1, n) for n in range(1, hi + 1))

    return walk(root, 0, N)


def naive_chain_sum(spec: FactorSpec, N: int, budget=NAIVE_CHAIN_BUDGET):
    """Direct enumeration of the chain sum truncated at n_1 <= N: over
    N >= n_1 >= ... >= n_L >= 1, prod_i bases[i]^{n_i} / n_i^{powers[i]},
    times alpha^{n_L} - gamma^{n_L} for a tail."""
    num = Fraction if spec.is_exact() else float
    # factors[i][n - 1] = bases[i]^n / n^{powers[i]}
    factors = [[num(b) ** n / num(n) ** p for n in range(1, N + 1)]
               for b, p in zip(spec.bases, spec.powers)]
    if spec.tail is not None:
        alpha, gamma = map(num, spec.tail)
        factors[-1] = [f * (alpha ** n - gamma ** n) for n, f in enumerate(factors[-1], 1)]
    return num(_walk_chains(N, spec.length, 1,
                            lambda prod, i, n: prod * factors[i][n - 1], budget))


def _exact_columns(spec: FactorSpec, N: int):
    """Integer factor columns of an exact spec for the values j = 1..N.

    Each column is a list of numerators over one denominator: a base u/v
    with power s gives u^j v^(N-j) (l/j)^s over v^N l^s, l = lcm(1..N).  A
    tail (alpha^j - gamma^j) is folded into the last column over w^N, w the
    lcm of the denominators of alpha and gamma.  Indices sharing a (base,
    power) pair share one column.  Returns the columns and the product of
    their denominators, which is the denominator of every chain sum they
    give.
    """
    lcm = math.lcm(*range(1, N + 1))
    built = {}
    columns = []
    den = 1
    for base, power in zip(spec.bases, spec.powers):
        # ints and Fractions both carry numerator and denominator
        key = (base.numerator, base.denominator, power)
        if key not in built:
            u, v, _ = key
            built[key] = ([u ** j * v ** (N - j) * (lcm // j) ** power
                           for j in range(1, N + 1)], v ** N * lcm ** power)
        col, d = built[key]
        columns.append(col)
        den *= d
    if spec.tail is not None:
        alpha, gamma = spec.tail
        w = math.lcm(alpha.denominator, gamma.denominator)
        A = alpha.numerator * (w // alpha.denominator)
        G = gamma.numerator * (w // gamma.denominator)
        columns[-1] = [f * (A ** j - G ** j) * w ** (N - j)
                       for j, f in enumerate(columns[-1], 1)]
        den *= w ** N
    return columns, den


def _chain_partials(columns):
    """Chain sums at every truncation by the prefix-sum recurrence.

    ``columns[i][j - 1]`` is the factor of chain index i at value j.  Entry
    N of the result, for N = 0..len(columns[0]), is the sum over
    N >= n_1 >= ... >= n_L >= 1 of prod_i columns[i][n_i - 1].  Only ``+``
    and ``*`` are used, starting from the int 0, so the entries may come
    from any ring: the exact DP runs it on the integer numerators of
    :func:`_exact_columns`, O(N * L) integer operations.
    """
    L = len(columns)
    acc = [0] * L
    out = [0]
    for j in range(len(columns[0])):
        # acc[i] sums over chains n_i >= ... >= n_L with n_i <= j + 1
        acc[L - 1] += columns[L - 1][j]
        for i in range(L - 2, -1, -1):
            acc[i] += columns[i][j] * acc[i + 1]
        out.append(acc[0])
    return out


# float64 cells per row-batched gap DP pass (8 MiB)
_BATCH_CELLS = 2 ** 20
# float64 cells of each chunk of a pass's powers (64 KiB)
_CHUNK_CELLS = 2 ** 13
# b^j is read as b^(K q) * b^r, j = K q + r, from two pow tables
_POWER_BLOCK = 64
# |b|^j < 2^-1100 rounds to exactly 0 in float64, far below the smallest
# subnormal 2^-1074
_UNDERFLOW_LOG2 = 1100


def _underflow_index(b, N):
    """How many of b^1..b^N can be nonzero in float64 (all N unless
    0 < |b| < 1), elementwise over an array of bases, as floats."""
    with np.errstate(divide="ignore"):
        cut = np.ceil(-_UNDERFLOW_LOG2 / np.log2(np.abs(b)))
    # |b| >= 1 gives a cut <= 0 or -inf, and b = 0 gives 0
    return np.where(cut > 0, np.minimum(cut, N), N)


def _power_table(b, exponents, rows_inner):
    """b[r]^e for the float64 exponents e as an R x len(e) array, each entry
    one pow call; with ``rows_inner`` its rows are contiguous
    (column-major)."""
    return np.power(b, exponents[:, None]).T if rows_inner else np.power(b[:, None], exponents)


def _block_powers(b, lo, hi, out=None, low=None):
    """Row r of the R x (hi - lo) result is b[r]^j for j = lo+1..hi.

    Each power is b^(K q) * b^r for j = K q + r, K = ``_POWER_BLOCK``, read
    from two pow tables per base, so a range of n powers costs
    O(n / K + K) pow calls, not n.  The tables are aligned to absolute j:
    a power depends only on (b, j), never on the range it is computed in.
    Each table entry is within half an ulp and the product rounds once
    more, so a normal result is within about 1.5 ulp of b^j (a single pow
    call: 0.5), and exact wherever the tables are (b = 0, +-1, 2^-k).
    Writes into ``out`` when given, a 2-D view whose rows or columns are
    contiguous, and reads the residue table b^0..b^(K-1) from ``low`` when
    given (laid out like ``out``).
    """
    K = _POWER_BLOCK
    n = hi - lo
    b = np.asarray(b, dtype=np.float64)
    if out is None:
        out = np.empty((len(b), n))
    rows_inner = out.strides[0] < out.strides[1]
    q0, q1 = (lo + 1) // K, hi // K
    high = _power_table(b, np.arange(q0 * K, q1 * K + 1, K, dtype=np.float64), rows_inner)
    if low is None:
        low = _power_table(b, np.arange(K, dtype=np.float64), rows_inner)
    # the rest of block q0, then whole blocks, then the start of block q1
    c, r0 = 0, (lo + 1) % K
    if r0:
        c = min(K - r0, n)
        np.multiply(high[:, :1], low[:, r0:r0 + c], out=out[:, :c])
    whole = (n - c) // K
    if whole:
        q = (lo + 1 + c) // K - q0
        blocks = out[:, c:c + whole * K].reshape(len(out), whole, K)
        np.multiply(high[:, q:q + whole, None], low[:, None, :], out=blocks)
        c += whole * K
    if c < n:
        np.multiply(high[:, -1:], low[:, :n - c], out=out[:, c:])
    return out


def _power_columns(D, last, j):
    """Fill the R x n array ``D`` with last[r, 0]^j, less last[r, 1]^j for
    a tail, at the n consecutive values ``j``, by :func:`_block_powers` in
    chunks of rows and of columns aligned to absolute j.  A row-major ``D``
    goes in chunks of whole rows, or of ``_CHUNK_CELLS`` columns of a
    longer row; a column-major one in chunks of ``_CHUNK_CELLS`` / K rows
    by one block of K columns, so every product runs along the contiguous
    axis.  Each power past its base's underflow index
    (:func:`_underflow_index`) is +0: a run's chunk computes no power past
    its bases' largest index, and one mask per chunk zeroes the rest.  A
    chunk's residue table, its block table and a tail's second run are
    the only temporaries, each of about ``_CHUNK_CELLS`` cells or fewer.
    """
    R, n = D.shape
    K, lo = _POWER_BLOCK, int(j[0]) - 1
    rows_inner = not D.flags.c_contiguous
    width = K if rows_inner else min(n, _CHUNK_CELLS)
    step = _CHUNK_CELLS // K if rows_inner else max(1, _CHUNK_CELLS // width)
    # window edges at the multiples of width in absolute j
    edges = [0, *(range(-(lo + 1) % width or width, n, width) if n > width else ()), n]
    cut = _underflow_index(last, lo + n)
    spare = np.empty(step * width)  # a tail's second run
    residues = np.arange(K, dtype=np.float64)
    for r in range(0, R, step):
        for run in range(last.shape[1]):
            b, b_cut = last[r:r + step, run], cut[r:r + step, run, None]
            # from column stop on, every power of the chunk is 0
            first_cut, stop = b_cut.min(), int(b_cut.max()) - lo
            low = _power_table(b, residues, rows_inner) if stop > 0 else None
            for c0, c1 in zip(edges, edges[1:]):
                out, c2 = D[r:r + step, c0:c1], min(c1, stop)
                if run == 0 and c2 < c1:
                    out[:, max(c2 - c0, 0):] = 0.0
                if c2 <= c0:
                    continue
                powers = out[:, :c2 - c0] if run == 0 else spare[:len(b) * (c2 - c0)].reshape(
                    (len(b), c2 - c0), order="F" if rows_inner else "C")
                _block_powers(b, lo + c0, lo + c2, powers, low)
                if first_cut < lo + c2:
                    np.copyto(powers, 0.0, where=j[c0:c2] > b_cut)
                if run:
                    out[:, :c2 - c0] -= powers


@functools.cache
def load_lfilter():
    """SciPy's first-order recurrence core, ``_linear_filter`` of the
    extension module ``scipy.signal._sigtools``, loaded from its file on the
    first call.  ``scipy.signal.lfilter`` passes a length-2 denominator to
    it unchanged, so the bits are the same, but importing ``scipy.signal``
    also imports ``stats``, ``interpolate``, ``optimize`` and ``spatial``:
    most of a cold start.  Only ``scipy`` itself is imported, to find the
    file.  Raises ImportError if the installed SciPy lacks the function.
    """
    package = importlib.util.find_spec("scipy.signal")
    finder = importlib.machinery.FileFinder(
        package.submodule_search_locations[0],
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.signal._sigtools")
    core = None
    if spec is not None:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        core = getattr(module, "_linear_filter", None)
    if core is None:
        import scipy
        raise ImportError(f"SciPy {scipy.__version__} has no "
                          "scipy.signal._sigtools._linear_filter")
    return core


# the numerator of every recurrence y[n] = x[n] + B y[n-1]
_ONE = np.ones(1)
# from this many rows up, one recurrence step over all rows per column
# costs less than one recurrence call per row at every width
_SWEEP_ROWS = 256


def _gap_columns(B, last, powers, lo, hi, carry):
    """Outer-layer terms of the gap-form DP at n_1 = lo+1..hi.

    Row r of the R x (L-1) array ``B`` holds the prefix products of the
    inner layers, and row r of the R x K array ``last`` the last prefix
    product of its one run, or of the two runs of a last-index tail;
    ``powers`` are the L shared index powers.  Entry [r, n_1 - lo - 1] of
    the result is the sum over the chains with that first index of
    prod_{i<L} B[r, i]^{n_i - n_{i+1}} / n_i^{powers[i]} times
    (last[r, 0]^{n_L} - last[r, 1]^{n_L}) / n_L^{powers[L-1]} (the second
    power only for a tail).

    The whole batch goes through each step at once.  The powers b^j come
    from :func:`_power_columns`, by the blocked rule of
    :func:`_block_powers` (a power depends only on (b, j), so where a call
    starts changes no bit), and each j^s is computed once per distinct
    power per call.  ``carry[r, i]`` is inner layer i's recurrence output
    at n = lo, before its division by j^s; it is folded into the first new
    column (the same rounding as the recurrence's own x + B y) and updated,
    so the columns continue a DP that stopped at lo bit for bit.  An inner
    layer is the recurrence y = x + B y along each row.  With more rows
    than new columns, or at least ``_SWEEP_ROWS`` rows, the result is
    column-major and one step per column covers every row; otherwise each
    row is one ``_linear_filter`` call.  Both round the product and then
    the sum once, so the orientation, chosen by the batch's shape, changes
    no bit.  Besides the result, a call holds j, the j^s a later layer
    needs, one row of recurrence output on the per-row path, and power
    chunks of about ``_CHUNK_CELLS`` cells.
    """
    lfilter = load_lfilter()
    R, n = len(last), hi - lo
    sweep = R > n or R >= _SWEEP_ROWS
    j = np.arange(lo + 1, hi + 1, dtype=np.float64)
    D = np.empty((R, n), order="F" if sweep else "C")
    scales = {}

    def divide(i):
        # divide by j^s, never multiply by its reciprocal (one ulp apart);
        # j^0 and j^1 need no pow, and j^s is kept while a later layer needs it
        s = powers[i]
        if s == 0:
            return
        scale = j if s == 1 else scales.pop(s, None)
        if scale is None:
            scale = j ** np.float64(s)
        np.divide(D, scale, out=D)
        if s > 1 and s in powers[:i]:
            scales[s] = scale

    with np.errstate(under="ignore"):
        _power_columns(D, last, j)
        divide(len(powers) - 1)
        for i in range(B.shape[1] - 1, -1, -1):
            b = B[:, i]
            if lo:
                D[:, 0] += b * carry[:, i]
            if sweep:
                step, prev = np.empty(R), D[:, 0]
                for c in range(1, n):
                    col = D[:, c]
                    col += np.multiply(b, prev, out=step)
                    prev = col
            else:
                for r, x in enumerate(D):
                    D[r] = lfilter(_ONE, np.array([1.0, -b[r]]), x, -1)
            carry[:, i] = D[:, -1]
            divide(i)
    return D


class GapState:
    """Resumable float DP of R chain sums with shared powers.

    Row r is one chain sum: ``B[r]`` holds the prefix products of its L-1
    inner layers and ``last[r]`` the last prefix product of its one run, or
    of the two runs of a last-index tail (the last base times alpha and
    times gamma), whose powers the last layer takes as a difference, so a
    row is one recurrence per inner layer.  Every run's prefix products
    must stay in the unit disc (up to the pairing slack), where the gap
    form of :func:`_gap_columns` keeps every carried quantity bounded;
    otherwise :class:`PairingUnavailableError` names the first run whose
    products leave it.

    The state holds the prefix products, each inner layer's carry, the
    running cumulative totals and ``n_done``, the truncation reached, so
    :meth:`extend` and :meth:`advance` compute only the new columns.  The
    gap DP is causal and its rows are independent, a power depends only on
    its base and index (:func:`_block_powers`), and the two orientations of
    the recurrence round alike: extending level by level is bit-identical
    to one extension from a fresh state, and so is a row that was taken out
    (:meth:`take`), extended on its own and stacked with other rows of the
    same truncation (:meth:`stack`), whatever the widths and batch sizes.
    """

    _ROW_FIELDS = ("B", "last", "carry", "totals")

    def __init__(self, powers, B, last):
        paired = (np.abs(B) <= 1.0 + PAIRING_SLACK).all(axis=1)[:, None] \
            & (np.abs(last) <= 1.0 + PAIRING_SLACK)
        if not paired.all():
            r, run = np.argwhere(~paired)[0]
            products = np.append(B[r], last[r, run]).tolist()
            raise PairingUnavailableError(f"prefix products {products} leave "
                                          "the unit disc; chain sum would diverge")
        self._set(tuple(powers), B, last, np.zeros(B.shape), np.zeros(len(last)), 0)

    def _set(self, powers, B, last, carry, totals, n_done):
        self.powers, self.B, self.last, self.carry, self.totals = powers, B, last, carry, totals
        self.n_done = n_done
        return self

    @classmethod
    def of_spec(cls, spec: FactorSpec):
        """The one-row state of a float spec."""
        return cls.of_rows([spec.bases], spec.powers, spec.tail)

    @classmethod
    def of_rows(cls, bases, powers, tail=None):
        """The state of R chain sums with shared powers: row r has the bases
        ``bases[r]`` of the R x L array and, with a ``tail`` (alpha, gamma)
        of two scalars or two length-R arrays, the runs with last base times
        alpha[r] and times gamma[r]."""
        bases = np.asarray(bases, dtype=np.float64)
        B = np.cumprod(bases[:, :-1], axis=1)
        last = bases[:, -1:]
        if tail is not None:
            last = last * np.array(tail, dtype=np.float64).T
        if B.shape[1]:
            last = B[:, -1:] * last
        return cls(powers, B, last)

    def take(self, rows):
        """A new state holding copies of the given rows (an index array or
        slice) at the same truncation."""
        return GapState.__new__(GapState)._set(
            self.powers, *(getattr(self, f)[rows].copy() for f in self._ROW_FIELDS),
            self.n_done)

    @staticmethod
    def stack(states):
        """One state holding the rows of ``states`` in order; they must
        share ``powers`` and ``n_done`` (else ValueError)."""
        first = states[0]
        if any((st.powers, st.n_done) != (first.powers, first.n_done) for st in states):
            raise ValueError("stacked gap states must share powers and n_done")
        return GapState.__new__(GapState)._set(
            first.powers, *(np.concatenate([getattr(st, f) for st in states])
                            for f in GapState._ROW_FIELDS), first.n_done)

    def extend(self, N):
        """Advance to truncation N (a no-op unless N > ``n_done``).  Returns
        the R x n cumulative values of every row at the new n_1 =
        n_done+1..N."""
        D = self._extend_rows(slice(None), N)
        self.n_done = max(N, self.n_done)
        return D

    def advance(self, N):
        """Advance to truncation N like :meth:`extend`, without keeping the
        new columns: the rows go through in chunks of at most 2^20 new
        cells, so a batch of any size holds at most 8 MiB of columns at a
        time."""
        if N <= self.n_done:
            return
        step = max(1, _BATCH_CELLS // (N - self.n_done))
        for lo in range(0, len(self.totals), step):
            self._extend_rows(slice(lo, lo + step), N)
        self.n_done = N

    def _extend_rows(self, rows, N):
        """The columns n_done+1..N of a slice of rows, updating their carry
        and totals in place (``n_done`` is left to the caller)."""
        lo = self.n_done
        totals = self.totals[rows]
        if N <= lo:
            return np.zeros(totals.shape + (0,))
        D = _gap_columns(self.B[rows], self.last[rows], self.powers, lo, N, self.carry[rows])
        if lo:
            D[:, 0] += totals
        np.cumsum(D, axis=1, out=D)
        totals[...] = D[:, -1]
        return D

    def values(self):
        """The R chain sums at truncation ``n_done``."""
        return self.totals.copy()


def dp_chain_sum(spec: FactorSpec, N: int):
    """Prefix-sum DP value of the chain sum truncated at n_1 <= N (a
    truncation below 1 is the empty sum).

    Exact rational specs run in exact arithmetic; float specs run the paired
    difference DP of :class:`GapState`.
    """
    if spec.is_exact():
        columns, den = _exact_columns(spec, max(N, 0))
        return Fraction(_chain_partials(columns)[-1], den)
    state = GapState.of_spec(spec)
    state.extend(N)
    return float(state.values()[0])


def dp_chain_partials(spec: FactorSpec, N: int):
    """Cumulative float values at every truncation 1..N (index 0 unused),
    from a fresh one-row :class:`GapState`, which raises
    :class:`PairingUnavailableError` for a run that leaves the unit disc."""
    totals = np.zeros(max(N, 0) + 1)
    totals[1:] = GapState.of_spec(spec).extend(N)[0]
    return totals


# ---------------------------------------------------------------------------
# Q-coupled kernels
# ---------------------------------------------------------------------------

def dp_q_naive(kernel: QKernelSpec, N: int, budget=NAIVE_CHAIN_BUDGET):
    """Direct enumeration of the Q-coupled sum; the oracle for dp_q_coupled.

    With w = |s|, m = n_w and Q = Q(s) of n_1..n_w: ``MEAN_INF`` sums
    1/((Q+1)(Q+m+1) n_1...n_{w-1}) over chains of length w, ``MEAN_FULL``
    C(m,t)/C(Q+m,t) a^t / ((Q+m+1) n_1...n_w) over chains of length w+1 with
    t = n_{w+1}.  A prefix carries its partial Q (a block adds its first
    index and subtracts its last), index product and last index.
    """
    w = kernel.s.weight
    a = Fraction(kernel.a)
    sign = [0] * w
    for start, end in kernel.s.block_bounds():
        sign[start - 1] += 1
        sign[end - 1] -= 1

    def step(state, i, n):
        q, prod, m = state
        if i == w:  # MEAN_FULL's t
            return Fraction(math.comb(m, n) * a.numerator ** n, math.comb(q + m, n)
                            * a.denominator ** n * (q + m + 1) * prod)
        q += sign[i] * n
        if i == w - 1 and kernel.kind == "MEAN_INF":
            return Fraction(1, (q + 1) * (q + n + 1) * prod)
        return q, prod * n, n

    return Fraction(_walk_chains(N, kernel.chain_length, (0, 1, 0), step, budget))


def _q_seed(kernel: QKernelSpec, N: int, exact: bool):
    """``seed(m, lo, hi)``, the kernel over its value m, K(m, q)/m for q =
    lo..hi, and the denominator of exact seeds: ``MEAN_INF``'s r[q] r[q+m],
    r[k] = 1/(k+1) (exact over lcm(1..N+1), as q + m <= N on every read),
    or the exact table of :func:`_mean_full_kernel` over m."""
    if kernel.kind == "MEAN_INF":
        if exact:
            lcm = math.lcm(*range(1, N + 2))
            r, den = np.array([lcm // k for k in range(1, N + 2)], dtype=object), lcm * lcm
        else:
            r, den = 1.0 / np.arange(1, N + 2), 1
        return (lambda m, lo, hi: r[lo:hi + 1] * r[lo + m:hi + m + 1]), den
    K, den = _mean_full_kernel(kernel.a, N)
    lcm = math.lcm(*range(1, N + 1))
    return (lambda m, lo, hi: K[m - 1, lo:hi + 1] * (lcm // m)), den * lcm


def _q_live_ranges(signs):
    """Entry i (i >= 1) gives the live range of :func:`dp_q_contributions`'
    accumulator A_i as coefficients (lo_m, hi_n, hi_m): at step m of a sweep
    to N it is [lo_m m, hi_n N - hi_m m].

    A_i is read at step m and later only at the partial Q of n_1..n_i of the
    chains N >= n_1 >= ... >= n_i >= m.  A block of size >= 2 that n_1..n_i
    close adds n_first - n_last >= 0, together at most n_1 - n_i <= N - m
    as the chain does not increase; an open block (the signs before i sum
    to 1) adds its first index, in m..N.  So the hull is [m, N] while a
    block is open, [0, N - m] once one has closed and [0, 0] before: the
    hull of the descending sweep's accumulator at m (its suffix sum over
    n_i >= m), so the two sweeps update the same cells.
    """
    ranges, depth = [None], 0
    for i in range(1, len(signs)):
        depth += signs[i - 1]
        ranges.append((1, 1, 0) if depth else (0, 1, 1) if -1 in signs[:i] else (0, 0, 0))
    return ranges


def dp_q_contributions(kernel: QKernelSpec, N: int):
    """The Q-coupled chain sum split by its first index, from one ascending
    sweep.  Returns (c, den, cells): ``c[n]`` sums the chains with n_1 = n
    (``c[0]`` = 0), so ``np.cumsum(c)[n]`` is the truncation at n_1 <= n for
    every n <= N, and ``cells[n]`` counts the cell updates of step n.  Exact
    kernels give integer numerators over ``den``, float ones floats.

    With w = |s| and sigma the signs of :func:`chain_q_signs`, the sum is
    over N >= n_1 >= ... >= n_w >= 1 of prod_i 1/n_i times K(n_w, Q).  The
    sweep is the transpose of the one that pushes 1/n_1 down the chain
    indices, pass i holding the suffix sums over n_{i-1} >= n_i, and folds
    the last with K: it pulls K up instead, at the same cost.  After step
    m, A_i[q] sums over the tails m >= n_{i+1} >= ... >= n_w of
    prod_{j>i} 1/n_j K(n_w, q + sigma_i n_{i+1} + ... + sigma_{w-1} n_w):
    step m adds K(m, q + sigma_{w-1} m)/m to A_{w-1}[q], then, top down,
    A_{i+1}[q + sigma_i m]/m to A_i[q], and c(m) is A_1[sigma_0 m]/m
    (K(m, sigma_0 m)/m for w = 1).  A chain with n_1 = m has no index
    above m, so c(m) does not depend on N: one sweep gives every
    truncation.

    Each pass updates its live range (:func:`_q_live_ranges`), which
    shrinks as m grows, so a cell in range was in range at every earlier
    step; by its cases a pass reads A_{i+1} inside A_{i+1}'s range.  The
    ranges at N' < N lie inside those at N and the updates are
    elementwise, so the sweep at N gives c(1..N') bit for bit as the sweep
    at N' does.  O(N^2 * |s|) cell updates, bounded by ``Q_STATE_BUDGET``,
    in O(|s| * N) memory (the exact MEAN_FULL table aside); exact sweeps
    run on Python ints, each 1/m the integer lcm(1..N)/m.
    """
    n_cells = N * N * max(1, kernel.s.weight)
    if n_cells > Q_STATE_BUDGET:
        raise BudgetExceededError(
            f"Q-coupled DP needs ~{n_cells} cell updates, over budget {Q_STATE_BUDGET}")
    exact = isinstance(kernel.a, (int, Fraction))
    signs = chain_q_signs(kernel.s)
    last = len(signs) - 1
    seed, den = _q_seed(kernel, N, exact)
    if exact:
        lcm = math.lcm(*range(1, N + 1))
        inv = [lcm // m for m in range(1, N + 1)]
        den *= lcm ** last
    else:
        inv = (1.0 / np.arange(1, N + 1)).tolist()
    dtype = object if exact else np.float64
    ranges = _q_live_ranges(signs)
    accs = [np.zeros(N + 1, dtype=dtype) for _ in signs]  # accs[0] is unused
    buf = np.zeros(N + 1, dtype=dtype)
    c = np.zeros(N + 1, dtype=dtype)
    cells = np.zeros(N + 1, dtype=np.int64)
    for m in range(1, N + 1):
        count = 1
        for i in range(last, 0, -1):
            lo_m, hi_n, hi_m = ranges[i]
            lo, hi = lo_m * m, hi_n * N - hi_m * m
            shift = signs[i] * m
            if i == last:
                add = seed(m, lo + shift, hi + shift)
            else:
                add = np.multiply(accs[i + 1][lo + shift:hi + shift + 1], inv[m - 1],
                                  out=buf[:hi - lo + 1])
            accs[i][lo:hi + 1] += add
            count += hi - lo + 1
        q = signs[0] * m
        c[m] = accs[1][q] * inv[m - 1] if last else seed(m, q, q)[0]
        cells[m] = count
    return c, den, cells


def dp_q_coupled(kernel: QKernelSpec, N: int):
    """Q-coupled chain sum truncated at n_1 <= N: the last running sum of
    :func:`dp_q_contributions`, in ascending n_1 as a ladder reads it.
    The kernel's ``a`` picks the arithmetic: an int or ``Fraction`` builds
    one Fraction, for the total, a float (``MEAN_INF`` only) gives a
    float."""
    c, den, _ = dp_q_contributions(kernel, N)
    total = np.cumsum(c)[-1]
    if c.dtype == object:
        return Fraction(total, den)
    return float(total)


def _mean_full_kernel(a, N: int):
    """Exact MEAN_FULL fold of the last index t <= m, as integer numerators
    K[m - 1, q] over one denominator of sum_{t=1}^{m} C(m,t)/C(q+m,t) a^t /
    (q+m+1) for m = 1..N, q = 0..N.  Returns K and the denominator.

    C(m,t)/C(q+m,t) = (q+m+1) int_0^1 x^t (1-x)^(q+m-t) dx, so the sum from
    t = 0 is I(m, q) = int_0^1 y^q (a - (a-1) y)^m dy, which satisfies
    I(0, q) = 1/(q+1) and I(m, q) = a I(m-1, q) - (a-1) I(m-1, q+1); the
    t = 0 term 1/(q+m+1) is then subtracted.  The recurrence runs on the
    integers J(m, q) = a_d^m l I(m, q), l = lcm(1..2N+1), O(N^2) integer
    operations; row m, over a_d^m l, is scaled to the common a_d^N l.
    """
    a = Fraction(a)
    an, ad = a.numerator, a.denominator
    lcm = math.lcm(*range(1, 2 * N + 2))
    J = [lcm // (q + 1) for q in range(2 * N + 1)]
    K = np.empty((N, N + 1), dtype=object)
    adm = 1
    for m in range(1, N + 1):
        J = [an * J[q] - (an - ad) * J[q + 1] for q in range(len(J) - 1)]
        adm *= ad
        K[m - 1] = [(J[q] - adm * (lcm // (q + m + 1))) * ad ** (N - m)
                    for q in range(N + 1)]
    return K, ad ** N * lcm


def adaptive_sum(evaluator, schedule: TruncationSchedule, min_samples=7):
    """Evaluate a truncated-sum family over the schedule's ladder.

    ``evaluator(N)`` returns ``(value, work)``: the truncation at n_1 <= N
    and the work that level computed, which ``terms_used`` sums.  With
    ``schedule.extrapolate`` window extrapolants drive convergence;
    otherwise the geometric test |v(gN) - v(N)| <= tol/4 with one extra
    safety level is used.  Returns a float64 :class:`EvalResult` whose
    ``converged`` flag is False when the ladder hits ``max_n``.  Its error
    estimate is never below the float64 rounding level 1e-12 (1 + |v|).
    """
    tol = schedule.tolerance
    levels = []
    values = []
    terms = 0
    geo_hits = 0

    def result(value, err, level, converged):
        return EvalResult(float(value), float(err), terms, level, converged)

    def floor():
        # double-precision ladder values carry relative rounding noise that
        # the window solve amplifies; never claim estimates below this
        return 1e-12 * (1.0 + abs(float(values[-1])))

    for N in schedule.levels():
        value, work = evaluator(N)
        levels.append(N)
        values.append(value)
        terms += work
        if len(values) < 2:
            continue
        if schedule.extrapolate:
            # shallow windows can transiently agree while still biased; only
            # trust the extrapolation once the model order is saturated
            if len(values) < min_samples:
                continue
            fit = best_extrapolant(levels, values, noise_floor=floor())
            if fit is None:
                continue
            value, err = fit
            if err <= tol:
                return result(value, err, N, True)
        else:
            diff = abs(float(values[-1]) - float(values[-2]))
            if diff <= tol / 4:
                geo_hits += 1
                if geo_hits >= 2:  # one extra level past the first hit
                    return result(values[-1], max(diff, floor()), N, True)
            else:
                geo_hits = 0
    # budget exhausted
    if schedule.extrapolate and len(values) >= 4:
        fit = best_extrapolant(levels, values, noise_floor=floor())
        if fit is not None:
            value, err = fit
            return result(value, err, levels[-1], False)
    err = (max(abs(float(values[-1]) - float(values[-2])), floor())
           if len(values) > 1 else float("inf"))
    return result(values[-1], err, levels[-1], False)
