"""Wide replacement-product walks driven by a shifted inner-graph walk.

Conventions used throughout (they fix every off-by-one):

* An inner vertex b of B is an integer over F_2^(m*s) viewed as s blocks of
  m bits.  Block 1 is the low m bits, block j covers bits (j-1)*m..j*m-1.
* A t-step walk has outer vertices a_0..a_t and inner vertices b_1..b_t.
  Its seed is (a_0, b_1, (u_2, ..., u_t)) where the u_i are inner generator
  indices, so there are exactly |A| * |B| * d_B**(t-1) seeds.
* b_i = shift(b_{i-1} ^ u_i) for i >= 2, and a_i = rotation(a_{i-1}, b_i),
  where the rotation reads block 1 of b_i as an outer generator index.
* shift moves block tuple (c_1, ..., c_s) to (c_2, ..., c_s, c_1); on the
  integer encoding that is a rotate right by m bits.

A walk segment generated backwards (middle starts, reverse dynamic
programs) takes the inner step b_j = unshift(b_(j+1)) ^ u and the outer
step by block 1 of b_(j+1).

The outer graph is a Cayley graph over F_2, so the rotation map takes a to
a ^ hop(b), where hop(b) is the outer generator that block 1 of b selects.
ReplacementSystem computes the walk rule as three bit operations on an int
or an integer array, with no table over inner vertices: hop masks block 1
and looks up its generator, shift rotates the r = m*s bits right by m and
its inverse unshift rotates them left by m.  ReplacementSystem.expand
expands walks with them.  The exact checks decode their random choices
from seed indices (:func:`_seeds`) and expand every row at once: each
step is a few whole-row bit operations.
code.encode and both first-block checks, pseudorandomness and uniformity,
read one streamed enumeration of the walks from a_0 = 0,
:func:`_walk_blocks`, at most 2**16 walks at a time, so none holds every
walk.  The two checks count block-1 tuples into one histogram over
[2**m]^k and decide it exactly against a product histogram
(:func:`_first_block_check`): from a_0 = 0 an outer trajectory is fixed
by the outer words its steps select.  Only the middle-start check still
compares two multisets of rows, by :func:`multiset_tv` in exact
rationals, each row packed into one int64 key by shift-or, so that each
side sorts plain integers in place rather than np.void byte strings.

The rotation a -> a ^ hop(b) also lets every exact check enumerate each
inner walk once, from a_0 = 0: the walk of seed (a_0, b_1, u) has outer
vertices a_j = a_0 ^ c_j, where c_j = hop(b_1) ^ ... ^ hop(b_j) does not
depend on a_0, and XOR by a is a bijection on rows.  So a multiset that
runs a_0 over the whole outer graph is the translates, one per a, of the
multiset taken at a_0 = 0.  Two such multisets of N rows per start are
compared by comparing their a_0 = 0 parts: each gap |P(x) - Q(x)| over
the n_A*N rows is a gap over the N rows divided by n_A, and summing over
the n_A translates leaves the total variation distance as it is.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .graphs import CayleyGraph, _check_walk_length, _vertex_list

DEFAULT_BUDGET = 1 << 28
# rows per gather in expand: take copies its index block into intp, 8 bytes
# a row, so a bounded block keeps that copy at 512 KiB
GATHER_ROWS = 1 << 16


class BudgetExceeded(Exception):
    """Raised when an exhaustive enumeration would exceed its budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(f"enumeration needs {needed} items, budget is {budget}")
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True)
class WalkParams:
    """Walk-system parameters: m bits per block, s blocks, inner degree 4**ell."""

    m: int
    s: int
    ell: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.s < 2:
            raise ValueError("s must be at least 2")
        if self.ell < 1:
            raise ValueError("ell must be at least 1")
        if 2 * self.ell > self.r:
            raise ValueError(f"ell={self.ell} must be at most r/2 with r={self.r}")

    @property
    def r(self) -> int:
        return self.m * self.s

    @property
    def d_outer(self) -> int:
        return 1 << self.m

    @property
    def d_inner(self) -> int:
        return 1 << (2 * self.ell)


@dataclass(frozen=True)
class SWalk:
    """One realized walk: t+1 outer vertices, t inner vertices, and its seed."""

    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    seed: tuple[int, int, tuple[int, ...]]


class ReplacementSystem:
    """Outer graph + inner graph wired together by the rotation map.

    The outer graph must have exactly 2**m generators (block 1 of an inner
    vertex indexes them), and the inner graph must live over F_2^(m*s) and
    have exactly 4**ell generators (every walk, DP and enumeration draws
    its inner steps from 4**ell indices).
    The walk rule is three bit operations, hop, shift and unshift, computed
    on an int or an integer array, so the system stores no array and its
    memory does not grow with the inner graph.
    """

    def __init__(self, outer: CayleyGraph, inner: CayleyGraph, params: WalkParams):
        if outer.degree != params.d_outer:
            raise ValueError(
                f"outer degree {outer.degree} != 2**m = {params.d_outer}"
            )
        if inner.dim != params.r:
            raise ValueError(f"inner dim {inner.dim} != m*s = {params.r}")
        if inner.degree != params.d_inner:
            raise ValueError(f"inner degree {inner.degree} != 4**ell = {params.d_inner}")
        self.outer = outer
        self.inner = inner
        self.params = params

    @property
    def num_outer(self) -> int:
        return self.outer.num_vertices

    @property
    def num_inner(self) -> int:
        return self.inner.num_vertices

    @property
    def _dtype(self) -> np.dtype:
        """The smallest unsigned dtype that holds every vertex: the wider of
        the two graphs' word dtypes, which is the inner graph's whenever the
        outer graph has at most its r = m*s bits."""
        return np.result_type(self.outer.generators, self.inner.generators)

    def hop(self, b):
        """The outer generator that block 1 of inner vertex b selects (an
        int or an integer array b): the rotation map takes a to a ^ hop(b),
        forward and backward alike, since outer generators are
        self-inverse."""
        gens = self.outer.generators.astype(self._dtype, copy=False)
        return gens.take(b & (self.params.d_outer - 1))

    def shift(self, b):
        """The forward block shift of b: a rotate right of its r = m*s bits
        by m."""
        return self._rotate(b, self.params.m)

    def unshift(self, b):
        """The inverse of shift: a rotate left of b's r bits by m, which is
        a rotate right by r - m."""
        return self._rotate(b, self.params.r - self.params.m)

    def _rotate(self, b, k: int, out: Optional[np.ndarray] = None):
        """b's r = m*s bits rotated right by k (an int, which gives a numpy
        integer, or an integer array b), with one temporary, b's low k bits;
        written to out if given, an array of b's shape and dtype that may be
        b itself.  The dtype holds r bits, so neither shift loses one."""
        low = b & ((1 << k) - 1)
        low <<= self.params.r - k
        return np.bitwise_or(np.right_shift(b, k, out=out), low, out=out)

    def expand(self, a, b, u: np.ndarray, pivot: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The array form of the walk rule: (A, B) for one walk per row.

        Each row n of the (N, t-1) generator-index array u is one walk.  Its
        outer vertex at position pivot is a[n] and its inner vertex at
        position p = max(pivot, 1) is b[n] (a and b may be scalars).  The
        columns of u take the inner steps forward to positions p+1..t, then
        backward to positions pivot-1..1; the outer vertices follow by
        rotation outward from the pivot.  pivot 0 is the standard order, in
        which the seed row (a_0, b_1, u_2..u_t) expands to its walk.  A
        backward step b_j = unshift(b_(j+1)) ^ u takes the same index as the
        forward step b_(j+1) = shift(b_j ^ u), so a row's backward indices,
        reversed, then its forward ones, are the standard-order seed of its
        walk.  A holds a_0..a_t, (N, t+1), and B holds b_1..b_t, (N, t), in the
        smallest unsigned dtype that holds every vertex.
        """
        n, t = u.shape[0], u.shape[1] + 1
        if not 0 <= pivot <= t - 1:
            raise ValueError(f"pivot {pivot} out of range 0..{t - 1}")
        p = max(pivot, 1)
        dtype = self._dtype
        gens = self.inner.generators.astype(dtype, copy=False)
        # one contiguous row per position (the transposes returned are views);
        # take gathers by these small-dtype rows about twice as fast as [] does
        A = np.empty((t + 1, n), dtype=dtype)
        B = np.empty((t, n), dtype=dtype)
        A[pivot] = a
        B[p - 1] = b
        cols = iter(u.T)
        m, r = self.params.m, self.params.r
        # every step writes its own row in place
        for j in range(p, t):  # b_{j+1} = shift(b_j ^ u)
            _xor_gather(B[j], B[j - 1], gens.take, next(cols))
            self._rotate(B[j], m, out=B[j])
        for j in range(p - 2, -1, -1):  # b_{j+1} = shift^-1(b_{j+2}) ^ u
            self._rotate(B[j + 1], r - m, out=B[j])
            _xor_gather(B[j], B[j], gens.take, next(cols))
        for j in range(pivot + 1, t + 1):
            _xor_gather(A[j], A[j - 1], self.hop, B[j - 1])
        for j in range(pivot - 1, -1, -1):
            _xor_gather(A[j], A[j + 1], self.hop, B[j])
        return A.T, B.T

    def walk_from_seed(self, a0: int, b1: int, u_indices: Sequence[int]) -> SWalk:
        """Expand one seed (a_0, b_1, (u_2, ..., u_t)) into its walk.

        Refuses a seed whose a_0, b_1 or some u is not an integer in range
        (a float, a bool or a negative index), rather than reading it as one.
        """
        (a0,) = _vertex_list((a0,), self.num_outer, "a_0")
        (b1,) = _vertex_list((b1,), self.num_inner, "b_1")
        us = tuple(_vertex_list(u_indices, self.params.d_inner, "generator index"))
        A, B = self.expand(a0, b1, np.array(us, dtype=np.int64)[None])
        return SWalk(tuple(A[0].tolist()), tuple(B[0].tolist()), (a0, b1, us))

    def seed_count(self, t: int) -> int:
        _check_walk_length(t)
        return self.num_outer * self.num_inner * self.params.d_inner ** (t - 1)


def _xor_gather(out: np.ndarray, base: np.ndarray, gather, index: np.ndarray) -> None:
    """out = base ^ gather(index), GATHER_ROWS rows at a time, so that the
    index copy and the gathered temporary stay one block whatever the rows
    (out may be base)."""
    for lo in range(0, len(index), GATHER_ROWS):
        rows = slice(lo, lo + GATHER_ROWS)
        np.bitwise_xor(base[rows], gather(index[rows]), out=out[rows])


def _seeds(sys: ReplacementSystem, t: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(b_1, u) of the t-step walks from a_0 = 0 with seed indices lo..hi-1.
    Index b_1*d_B**(t-1) + u_2*d_B**(t-2) + ... + u_t has d_B = 2**(2*ell),
    so each digit is a shift and a mask.  The index, and b_1 made from it
    in place, is in the smallest unsigned dtype that holds hi - 1 (numpy
    shifts past its width to 0); u, (hi - lo, t-1) with contiguous columns,
    in the smallest that holds d_B - 1."""
    w, d = 2 * sys.params.ell, sys.params.d_inner
    index = np.arange(lo, hi, dtype=np.min_scalar_type(hi - 1))
    u = np.empty((t - 1, hi - lo), np.min_scalar_type(d - 1))
    for j, col in enumerate(u, start=2):
        np.right_shift(index, w * (t - j), out=col, casting="unsafe")
        col &= d - 1
    index >>= w * (t - 1)
    return index, u.T


def _walk_blocks(sys: ReplacementSystem, t: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """The t-step walks from a_0 = 0 in seed order, decoded by :func:`_seeds`
    and expanded by ReplacementSystem.expand 2**16 at a time: (start, A, B)
    per block, start the seed index of its first walk, so that memory stays
    one block whatever the walk count."""
    total = sys.num_inner * sys.params.d_inner ** (t - 1)
    for lo in range(0, total, 1 << 16):
        yield (lo, *sys.expand(0, *_seeds(sys, t, lo, min(lo + (1 << 16), total))))


def _dense_ranks(x: np.ndarray) -> tuple[np.ndarray, int]:
    """The dense rank of every entry of x, and the bits the ranks take."""
    uniq, _ = _runs(np.sort(x))
    return np.searchsorted(uniq, x), (len(uniq) - 1).bit_length()


def multiset_tv(p: np.ndarray, q: np.ndarray) -> tuple[Fraction, Fraction]:
    """Exact distance between the empirical distributions of the rows of
    two nonnegative integer arrays with equal column counts: the total
    variation distance and the largest gap |P(x) - Q(x)| at one row x.

    Each row is packed into one int64 key, column by column by shift-or,
    each column as wide as its largest entry in p or q needs.  When the
    next column would take the keys past 63 bits, the keys so far are
    first replaced by their joint dense ranks (and so is the column, if it
    is still too wide), so keys stay injective for up to 2**31 rows.  The
    p keys and the q keys are sorted in place; equal multisets return 0 at
    once, and otherwise runs of equal keys are counted on each side and
    matched by binary search.  With L = lcm(|p|, |q|) every gap is an
    integer over L, and all of them sum to at most 2L.
    """
    n_p, n_q = len(p), len(q)
    if n_p + n_q > 1 << 31:
        raise ValueError(f"multiset_tv takes at most 2**31 rows, got {n_p + n_q}")
    if min(p.min(), q.min()) < 0:
        raise ValueError("multiset_tv needs nonnegative entries")
    keys, bits = np.zeros(n_p + n_q, np.int64), 0
    for col_p, col_q in zip(p.T, q.T):
        width = int(max(col_p.max(), col_q.max())).bit_length()
        if bits + width > 63:
            keys, bits = _dense_ranks(keys)
        if bits + width > 63:
            ranks, width = _dense_ranks(np.concatenate([col_p, col_q]))
            col_p, col_q = ranks[:n_p], ranks[n_p:]
        keys <<= width
        # entries fit 63 bits by now, so the cast of a uint64 column is exact
        for part, col in ((keys[:n_p], col_p), (keys[n_p:], col_q)):
            np.bitwise_or(part, col, out=part, dtype=np.int64, casting="unsafe")
        bits += width
    key_p, key_q = keys[:n_p], keys[n_p:]
    key_p.sort()
    key_q.sort()
    if n_p == n_q and np.array_equal(key_p, key_q):
        return Fraction(0), Fraction(0)
    # L <= |p| * |q| <= 2**60 under the row cap, so int64 gaps cannot wrap
    lcm = math.lcm(n_p, n_q)
    (val_p, c_p), (val_q, c_q) = _runs(key_p), _runs(key_q)
    # np.union1d and np.unique import numpy.ma (about 14 ms) on first use
    distinct, _ = _runs(np.sort(np.concatenate([val_p, val_q])))
    gap = np.zeros(len(distinct), np.int64)
    gap[np.searchsorted(distinct, val_p)] = c_p * (lcm // n_p)
    gap[np.searchsorted(distinct, val_q)] -= c_q * (lcm // n_q)
    return Fraction(int(np.abs(gap).sum()), 2 * lcm), Fraction(int(np.abs(gap).max()), lcm)


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of sorted keys and how often each occurs."""
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return keys[starts], np.diff(starts, append=len(keys))


@dataclass(frozen=True)
class DistributionCheck:
    """Exact comparison: equal on the exact TV; max_deviation is the largest |P(x) - Q(x)|."""

    equal: bool
    tv_distance: float
    max_deviation: float


def check_pseudorandomness(
    sys: ReplacementSystem, k: int, budget: int = DEFAULT_BUDGET
) -> DistributionCheck:
    """Compare k-vertex wide-walk trajectories with pure outer-graph walks.

    k counts vertices (so k-1 steps).  Returns the max over starts of the
    exact total-variation distance and of the largest single-trajectory
    gap.  Every start has the distances of a = 0 (the module docstring).
    From 0 a trajectory is fixed by the outer words of its k-1 steps, so
    :func:`_first_block_check` compares the wide walks' block-1 tuples, read
    as words, with the pure walks'.  The budget counts what that expands
    and holds: the walks from 0 and the 2**(m*(k-1)) histogram cells.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n_wide = sys.num_inner * sys.params.d_inner ** max(k - 2, 0)
    total = n_wide + (1 << (sys.params.m * (k - 1)))
    if total > budget:
        raise BudgetExceeded(total, budget)
    if k == 1:  # both sides are the one trajectory (a_0)
        return DistributionCheck(equal=True, tv_distance=0.0, max_deviation=0.0)
    return _first_block_check(sys, k - 1, words=True)


def _check_uniform_level(k: int, s: int) -> None:
    """Refuse k outside 1..s, the levels at which the first-block tuple is uniform."""
    if not 1 <= k <= s:
        raise ValueError(f"k must be in 1..s={s}, got {k}")


def check_first_coord_uniform(
    sys: ReplacementSystem, k: int, budget: int = DEFAULT_BUDGET
) -> DistributionCheck:
    """Exact distribution of (block 1 of b_1, ..., block 1 of b_k).

    Valid for k <= s only; that is the regime where the tuple is exactly
    uniform on [2**m]^k.  :func:`_first_block_check` compares the tuples of
    the walks from a_0 = 0 with the uniform count N / 2**(m*k), an integer
    since m*k <= m*s.
    """
    _check_uniform_level(k, sys.params.s)
    total = sys.num_inner * sys.params.d_inner ** (k - 1)
    if total > budget:
        raise BudgetExceeded(total, budget)
    return _first_block_check(sys, k, words=False)


def _first_block_check(sys: ReplacementSystem, k: int, words: bool) -> DistributionCheck:
    """Exact distance between the histogram of (block 1 of b_1, ..., block 1
    of b_k) over the k-step walks of :func:`_walk_blocks` and a product
    histogram over [2**m]^k whose factor counts each block value once, or
    with words, each outer word as often as it repeats (a block reads as
    its word's dense rank).  The memory is one block of walks plus
    8 * 2**(m*k) bytes; the values are those :func:`multiset_tv` gives."""
    m, d = sys.params.m, sys.params.d_outer
    dtype = sys._dtype if m * k <= sys.params.r else np.uint64  # the vertex dtype holds r bits
    read, mult = (lambda col: col & (d - 1)), np.ones(d, np.int64)
    if words and sys.outer.multigraph:
        rank = _dense_ranks(sys.outer.generators)[0].astype(dtype)
        read, mult = (lambda col: rank.take(col & (d - 1))), np.bincount(rank, minlength=d)
    counts = np.zeros(1 << (m * k), np.int64)
    for _, _, B in _walk_blocks(sys, k):
        keys = read(B[:, 0]).astype(dtype, copy=False)
        for col in B.T[1:]:
            keys <<= m
            keys |= read(col)
        counts += np.bincount(keys, minlength=len(counts))
    n, ref = int(counts.sum()), functools.reduce(np.multiply.outer, [mult] * k).ravel()
    lcm = math.lcm(n, len(ref))  # both totals are powers of two: the larger, so gaps fit int64
    gap = np.abs(counts * (lcm // n) - ref * (lcm // len(ref)))
    tv, dev = Fraction(int(gap.sum()), 2 * lcm), Fraction(int(gap.max()), lcm)
    return DistributionCheck(equal=(tv == 0), tv_distance=float(tv), max_deviation=float(dev))


def check_local_invertibility(sys: ReplacementSystem) -> bool:
    """Rotation twice with the same block-1 index returns the start vertex.

    Exhaustive over all outer vertices and all block-1 values.  For a
    Cayley graph over F_2 this holds by construction, since
    (a ^ u) ^ u = a for every generator u, so the check cannot fail on
    any system built here; it is kept as the stated precondition of
    backward walk generation.
    """
    a = np.arange(sys.num_outer, dtype=sys._dtype)[:, None]
    rot = a ^ sys.hop(np.arange(sys.params.d_outer))
    return bool((np.take_along_axis(rot, rot, axis=0) == a).all())


def middle_start_distribution_equal(
    sys: ReplacementSystem, t: int, i: int, budget: int = DEFAULT_BUDGET
) -> DistributionCheck:
    """Exact comparison of middle-start and standard walk distributions.

    Both procedures consume the same choices (an outer vertex, an inner
    vertex and t-1 generator indices), and both multisets of complete
    walks are invariant under translation by any outer vertex a (the
    module docstring).  So each inner choice row is expanded once in the
    standard order from a_0 = 0 and once outward from pivot vertex
    a_i = 0; each middle-start walk is translated by its own a_0, so that
    it starts at 0 too, and the two multisets are compared in exact
    arithmetic.  The distance is that of the full enumeration, and the
    largest gap is the one found divided by |A|.  The budget still
    counts both full enumerations.
    """
    total = sys.seed_count(t)
    if not 0 <= i <= t - 1:
        raise ValueError(f"pivot {i} out of range 0..{t - 1}")
    if 2 * total > budget:
        raise BudgetExceeded(2 * total, budget)
    # decoded once a side, so no choice row is held while the rows are compared
    rows = total // sys.num_outer
    standard = np.hstack(sys.expand(0, *_seeds(sys, t, 0, rows)))
    A, B = sys.expand(0, *_seeds(sys, t, 0, rows), pivot=i)
    tv, gap = multiset_tv(standard, np.hstack([A ^ A[:, :1], B]))
    gap /= sys.num_outer
    return DistributionCheck(equal=(tv == 0), tv_distance=float(tv), max_deviation=float(gap))
