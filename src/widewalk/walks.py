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

When a walk segment is generated backwards (for middle starts and reverse
dynamic programs) the inner step reverses as b_{j} = shift_inverse(b_{j+1})
^ u, i.e. the shift is undone before taking the neighbor step, and the
outer step reuses block 1 of b_{j+1} because generators are self-inverse.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .graphs import CayleyGraph

DEFAULT_BUDGET = 1 << 28


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


def shift(b: int, m: int, s: int, direction: str = "forward") -> int:
    """Cyclic block shift of an (m*s)-bit word.

    Forward moves block tuple (c_1, ..., c_s) to (c_2, ..., c_s, c_1),
    which is a rotate right by m bits; backward is the inverse.
    """
    r = m * s
    if not 0 <= b < (1 << r):
        raise ValueError(f"word {b} out of range for {r} bits")
    if direction == "forward":
        return (b >> m) | ((b & ((1 << m) - 1)) << (r - m))
    if direction == "backward":
        return ((b << m) & ((1 << r) - 1)) | (b >> (r - m))
    raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")


@dataclass(frozen=True)
class SWalk:
    """One realized walk: t+1 outer vertices, t inner vertices, and its seed."""

    a_vertices: tuple[int, ...]
    b_vertices: tuple[int, ...]
    seed: tuple[int, int, tuple[int, ...]]

    @property
    def steps(self) -> int:
        return len(self.a_vertices) - 1


class ReplacementSystem:
    """Outer graph + inner graph wired together by the rotation map.

    The outer graph must have exactly 2**m generators (block 1 of an inner
    vertex indexes them) and the inner graph must live over F_2^(m*s).
    """

    def __init__(self, outer: CayleyGraph, inner: CayleyGraph, params: WalkParams):
        if outer.degree != params.d_outer:
            raise ValueError(
                f"outer degree {outer.degree} != 2**m = {params.d_outer}"
            )
        if inner.dim != params.r:
            raise ValueError(f"inner dim {inner.dim} != m*s = {params.r}")
        self.outer = outer
        self.inner = inner
        self.params = params
        self._block_mask = params.d_outer - 1

    @property
    def num_outer(self) -> int:
        return self.outer.num_vertices

    @property
    def num_inner(self) -> int:
        return self.inner.num_vertices

    def block(self, b: int, j: int) -> int:
        """Block j (1-based) of inner vertex b."""
        if not 1 <= j <= self.params.s:
            raise ValueError(f"block index {j} out of range 1..{self.params.s}")
        return (b >> (self.params.m * (j - 1))) & self._block_mask

    def rotation(self, a: int, b: int) -> int:
        """Step the outer vertex along the generator indexed by block 1 of b."""
        return self.outer.neighbor(a, b & self._block_mask)

    def shift_fwd(self, b: int) -> int:
        return shift(b, self.params.m, self.params.s, "forward")

    def shift_bwd(self, b: int) -> int:
        return shift(b, self.params.m, self.params.s, "backward")

    def inner_step_fwd(self, b: int, u_index: int) -> int:
        """Next inner vertex: shift(b ^ u)."""
        return self.shift_fwd(b ^ self.inner.generators[u_index])

    def inner_step_bwd(self, b: int, u_index: int) -> int:
        """Previous inner vertex: shift_inverse(b) ^ u."""
        return self.shift_bwd(b) ^ self.inner.generators[u_index]

    def walk_from_seed(self, a0: int, b1: int, u_indices: Sequence[int]) -> SWalk:
        """Deterministically expand a seed into the full walk."""
        a = [a0]
        b = [b1]
        for u in u_indices:
            b.append(self.inner_step_fwd(b[-1], u))
        for bi in b:
            a.append(self.rotation(a[-1], bi))
        return SWalk(tuple(a), tuple(b), (a0, b1, tuple(u_indices)))

    def seed_count(self, t: int) -> int:
        if t < 1:
            raise ValueError("t must be at least 1")
        return self.num_outer * self.num_inner * self.params.d_inner ** (t - 1)


def walk_tables(sys: ReplacementSystem) -> tuple[np.ndarray, np.ndarray]:
    """rot[a, b], the outer vertex the rotation map reaches from a under
    inner vertex b (forward and backward alike: outer generators are
    self-inverse), and shift[b], the forward block shift of every b."""
    m, r = sys.params.m, sys.params.r
    b = np.arange(sys.num_inner, dtype=np.int64)
    block1 = b & (sys.params.d_outer - 1)
    gen_a = np.asarray(sys.outer.generators, dtype=np.int64)
    rot = np.arange(sys.num_outer, dtype=np.int64)[:, None] ^ gen_a[block1]
    return rot, (b >> m) | (block1 << (r - m))


def sample_swalk(
    sys: ReplacementSystem,
    t: int,
    rng: np.random.Generator,
    start: Optional[tuple[int, int]] = None,
) -> SWalk:
    """Draw one t-step walk; deterministic given the rng state.

    start optionally pins (a_0, b_1); otherwise both are uniform.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if start is None:
        a0 = int(rng.integers(sys.num_outer))
        b1 = int(rng.integers(sys.num_inner))
    else:
        a0, b1 = start
    us = tuple(int(u) for u in rng.integers(sys.params.d_inner, size=t - 1))
    return sys.walk_from_seed(a0, b1, us)


def enumerate_swalk_seeds(
    sys: ReplacementSystem, t: int, budget: int = DEFAULT_BUDGET
) -> Iterator[SWalk]:
    """Yield every walk seed exactly once, in lexicographic seed order.

    Each yielded walk has probability 1 / (|A| * |B| * d_B**(t-1)) under the
    walk distribution.  Refuses with the computed count if it would exceed
    the budget.
    """
    count = sys.seed_count(t)
    if count > budget:
        raise BudgetExceeded(count, budget)
    d = sys.params.d_inner
    for a0 in range(sys.num_outer):
        for b1 in range(sys.num_inner):
            for us in itertools.product(range(d), repeat=t - 1):
                yield sys.walk_from_seed(a0, b1, us)


def middle_start_sample(
    sys: ReplacementSystem, t: int, i: int, rng: np.random.Generator
) -> SWalk:
    """Draw a t-step walk by generating it outward from pivot position i.

    The pivot outer vertex a_i and an inner edge into position i+1 are drawn
    first; positions above i are generated forward and positions below i are
    generated backward (inverse shifts, and rotations reusing the same block
    because outer generators are self-inverse).  The output distribution is
    identical to :func:`sample_swalk`'s.  i = 0 reduces to the standard
    order.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if not 0 <= i <= t - 1:
        raise ValueError(f"pivot {i} out of range 0..{t - 1}")
    d = sys.params.d_inner
    a_pivot = int(rng.integers(sys.num_outer))
    b_pivot = int(rng.integers(sys.num_inner))
    u_edge = int(rng.integers(d))
    draws = tuple(int(u) for u in rng.integers(d, size=max(t - 2, 0)))
    return _middle_start_from_choices(sys, t, i, a_pivot, b_pivot, u_edge, draws)


def _middle_start_from_choices(
    sys: ReplacementSystem,
    t: int,
    i: int,
    a_pivot: int,
    b_pivot: int,
    u_edge: int,
    draws: Sequence[int],
) -> SWalk:
    """Deterministic middle-start expansion from explicit random choices.

    draws supplies the t-2 remaining inner steps (forward ones first, then
    backward ones for positions i-1 down to 1); exposing it keeps the whole
    randomness space enumerable for exact distribution comparison.  The
    returned walk's u-index seed field is a placeholder (indices cannot be
    recovered uniquely when the inner graph has repeated generators).
    """
    b: dict[int, int] = {}
    if i == 0:
        # pivot at the start degenerates to the standard order: u_edge is
        # simply the first inner step
        b[1] = b_pivot
        if t >= 2:
            b[2] = sys.inner_step_fwd(b_pivot, u_edge)
        start_fwd = 3
    else:
        b[i] = b_pivot
        b[i + 1] = sys.inner_step_fwd(b_pivot, u_edge)
        start_fwd = i + 2
    it = iter(draws)
    for j in range(start_fwd, t + 1):
        b[j] = sys.inner_step_fwd(b[j - 1], next(it))
    for j in range(i - 1, 0, -1):
        b[j] = sys.inner_step_bwd(b[j + 1], next(it))
    a: dict[int, int] = {i: a_pivot}
    for j in range(i + 1, t + 1):
        a[j] = sys.rotation(a[j - 1], b[j])
    for j in range(i - 1, -1, -1):
        a[j] = sys.rotation(a[j + 1], b[j + 1])
    a_list = tuple(a[j] for j in range(t + 1))
    b_list = tuple(b[j] for j in range(1, t + 1))
    return SWalk(a_list, b_list, (a_list[0], b_list[0], (-1,) * (t - 1)))


@dataclass(frozen=True)
class DistributionCheck:
    """Result of an exact distribution comparison."""

    equal: bool
    tv_distance: float
    max_deviation: float


def check_pseudorandomness(
    sys: ReplacementSystem, k: int, budget: int = DEFAULT_BUDGET
) -> DistributionCheck:
    """Compare k-vertex wide-walk trajectories with pure outer-graph walks.

    k counts vertices (so k-1 steps).  For every start a the distribution of
    (a_2, ..., a_k) under the wide walk is computed exactly by enumerating
    b_1 and the k-2 inner generator choices, and under the pure walk by
    enumerating the k-1 outer generator indices.  Returns the max over
    starts of the total-variation distance, computed in exact rationals.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n_wide = sys.num_inner * sys.params.d_inner ** max(k - 2, 0)
    n_pure = sys.outer.degree ** (k - 1)
    if sys.num_outer * (n_wide + n_pure) > budget:
        raise BudgetExceeded(sys.num_outer * (n_wide + n_pure), budget)
    d = sys.params.d_inner
    worst = Fraction(0)
    for a_start in range(sys.num_outer):
        wide: dict[tuple[int, ...], int] = {}
        for b1 in range(sys.num_inner):
            for us in itertools.product(range(d), repeat=max(k - 2, 0)):
                traj = []
                a_cur, b_cur = a_start, b1
                if k >= 2:
                    a_cur = sys.rotation(a_cur, b_cur)
                    traj.append(a_cur)
                    for u in us:
                        b_cur = sys.inner_step_fwd(b_cur, u)
                        a_cur = sys.rotation(a_cur, b_cur)
                        traj.append(a_cur)
                wide[tuple(traj)] = wide.get(tuple(traj), 0) + 1
        pure: dict[tuple[int, ...], int] = {}
        for idxs in itertools.product(range(sys.outer.degree), repeat=k - 1):
            a_cur = a_start
            traj = []
            for ix in idxs:
                a_cur = sys.outer.neighbor(a_cur, ix)
                traj.append(a_cur)
            pure[tuple(traj)] = pure.get(tuple(traj), 0) + 1
        tv = Fraction(0)
        for key in set(wide) | set(pure):
            p = Fraction(wide.get(key, 0), n_wide)
            q = Fraction(pure.get(key, 0), n_pure)
            tv += abs(p - q)
        worst = max(worst, tv / 2)
    return DistributionCheck(
        equal=(worst == 0), tv_distance=float(worst), max_deviation=float(worst)
    )


def check_first_coord_uniform(
    sys: ReplacementSystem, k: int, budget: int = DEFAULT_BUDGET
) -> DistributionCheck:
    """Exact distribution of (block 1 of b_1, ..., block 1 of b_k).

    Valid for k <= s only; that is the regime where the tuple is exactly
    uniform on [2**m]^k.  Enumeration is over b_1 and k-1 inner generator
    choices; counts are compared cell by cell with the uniform count.
    """
    if not 1 <= k <= sys.params.s:
        raise ValueError(f"k must be in 1..s={sys.params.s}, got {k}")
    d = sys.params.d_inner
    total = sys.num_inner * d ** (k - 1)
    if total > budget:
        raise BudgetExceeded(total, budget)
    d_out = sys.params.d_outer
    cells = d_out ** k
    if total % cells != 0:
        return DistributionCheck(equal=False, tv_distance=1.0, max_deviation=1.0)
    counts: dict[tuple[int, ...], int] = {}
    for b1 in range(sys.num_inner):
        for us in itertools.product(range(d), repeat=k - 1):
            b_cur = b1
            key = [b_cur & (d_out - 1)]
            for u in us:
                b_cur = sys.inner_step_fwd(b_cur, u)
                key.append(b_cur & (d_out - 1))
            counts[tuple(key)] = counts.get(tuple(key), 0) + 1
    target = total // cells
    tv = Fraction(0)
    max_dev = Fraction(0)
    for cell in itertools.product(range(d_out), repeat=k):
        c = counts.get(cell, 0)
        dev = abs(Fraction(c, total) - Fraction(1, cells))
        tv += dev
        max_dev = max(max_dev, dev)
    equal = all(counts.get(cell, 0) == target for cell in counts) and len(counts) <= cells
    return DistributionCheck(
        equal=equal and tv == 0, tv_distance=float(tv / 2), max_deviation=float(max_dev)
    )


def check_local_invertibility(sys: ReplacementSystem) -> bool:
    """Rotation twice with the same block-1 index returns the start vertex.

    Exhaustive over all outer vertices and all block-1 values.
    """
    for a in range(sys.num_outer):
        for bhat in range(sys.params.d_outer):
            if sys.outer.neighbor(sys.outer.neighbor(a, bhat), bhat) != a:
                return False
    return True


def middle_start_distribution_equal(
    sys: ReplacementSystem, t: int, i: int, budget: int = DEFAULT_BUDGET
) -> DistributionCheck:
    """Exact comparison of middle-start and standard walk distributions.

    Enumerates every random choice of both procedures and compares the
    resulting distributions over complete walk tuples in exact arithmetic.
    """
    d = sys.params.d_inner
    total = sys.num_outer * sys.num_inner * d ** (t - 1)
    if 2 * total > budget:
        raise BudgetExceeded(2 * total, budget)
    standard: dict[tuple, int] = {}
    for w in enumerate_swalk_seeds(sys, t, budget):
        key = (w.a_vertices, w.b_vertices)
        standard[key] = standard.get(key, 0) + 1
    middle: dict[tuple, int] = {}
    for a_pivot in range(sys.num_outer):
        for b_pivot in range(sys.num_inner):
            for u_edge in range(d):
                for draws in itertools.product(range(d), repeat=max(t - 2, 0)):
                    w = _middle_start_from_choices(
                        sys, t, i, a_pivot, b_pivot, u_edge, draws
                    )
                    key = (w.a_vertices, w.b_vertices)
                    middle[key] = middle.get(key, 0) + 1
    n_std = sum(standard.values())
    n_mid = sum(middle.values())
    tv = Fraction(0)
    for key in set(standard) | set(middle):
        tv += abs(Fraction(standard.get(key, 0), n_std) - Fraction(middle.get(key, 0), n_mid))
    tv = tv / 2
    return DistributionCheck(equal=(tv == 0), tv_distance=float(tv), max_deviation=float(tv))
