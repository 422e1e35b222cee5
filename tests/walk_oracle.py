"""Scalar reference for the wide-walk rule, one walk at a time.

Plain Python ints over the generator arrays of the outer and inner graphs,
with no call of the hop, shift, unshift or expand methods of
widewalk.walks.ReplacementSystem, so the tests can hold the array walk rule against an
independent statement of it:

* b_i = shift(b_{i-1} ^ u_i) for i >= 2, where shift moves the block tuple
  (c_1, ..., c_s) of an (m*s)-bit word to (c_2, ..., c_s, c_1);
* a_i = a_{i-1} ^ (outer generator indexed by block 1 of b_i).

It also holds the exact checks and the encoder without the outer
translation symmetry: every start a_0 is expanded through
ReplacementSystem.expand, so the tests can hold the a_0 = 0 enumerations
of widewalk.walks and widewalk.code.encode against the full ones.  Their
choice rows come from grid, an np.indices grid of this module, so they
share no enumeration code with the package's seed decoder.  They call
expand on the system, so a test that patches ReplacementSystem.expand
patches both sides.

cayley_average is the generator average that the reference DPs of the
tests step by, and sample_swalk draws one walk from a uniform seed through
ReplacementSystem.walk_from_seed.
"""

import itertools
import math

import numpy as np

from widewalk import walks as ww
from widewalk.graphs import _convolve


def cayley_average(values, graph):
    """Average of values[..., v ^ u] over the generators u of graph, for
    every vertex v of the last axis: the library's one Cayley convolution
    over n * degree, as the pure-walk levels divide it."""
    return _convolve(values, graph) / (graph.num_vertices * graph.degree)


def grid(*sizes):
    """Every tuple of range(sizes[0]) x range(sizes[1]) x ..., one int64
    row each, in lexicographic order; one empty row when sizes is empty."""
    return np.indices(sizes, dtype=np.int64).reshape(len(sizes), math.prod(sizes)).T


def sample_swalk(sys, t, rng):
    """Draw one t-step walk from a uniform seed; deterministic given the
    rng state.  The seed is expanded by ReplacementSystem.walk_from_seed."""
    if t < 1:
        raise ValueError("t must be at least 1")
    a0 = int(rng.integers(sys.num_outer))
    b1 = int(rng.integers(sys.num_inner))
    return sys.walk_from_seed(a0, b1, rng.integers(sys.params.d_inner, size=t - 1))


def neighbor(graph, v, i):
    """The i-th neighbor of v in a Cayley graph over F_2: v ^ generators[i]."""
    return v ^ int(graph.generators[i])


def shift(b, m, s, direction="forward"):
    """Cyclic block shift of an (m*s)-bit word: a rotate right by m bits
    forward, a rotate left backward."""
    r = m * s
    if direction == "forward":
        return (b >> m) | ((b & ((1 << m) - 1)) << (r - m))
    return ((b << m) & ((1 << r) - 1)) | (b >> (r - m))


def rotation(sys, a, b):
    """Step outer vertex a along the generator indexed by block 1 of b."""
    return neighbor(sys.outer, a, b & (sys.params.d_outer - 1))


def inner_step(sys, b, u):
    """The next inner vertex, shift(b ^ u) for inner generator index u."""
    return shift(b ^ int(sys.inner.generators[u]), sys.params.m, sys.params.s)


def inner_step_back(sys, b, u):
    """The previous inner vertex: undo the shift, then take generator u."""
    return shift(b, sys.params.m, sys.params.s, "backward") ^ int(sys.inner.generators[u])


def walk(sys, a0, b1, us):
    """The walk of seed (a_0, b_1, (u_2, ..., u_t)): (a_0..a_t, b_1..b_t)."""
    b = [b1]
    for u in us:
        b.append(inner_step(sys, b[-1], u))
    a = [a0]
    for bi in b:
        a.append(rotation(sys, a[-1], bi))
    return tuple(a), tuple(b)


def walks(sys, t):
    """(seed, a vertices, b vertices) of every t-step walk, each seed once
    in lexicographic order."""
    for a0, b1 in itertools.product(range(sys.num_outer), range(sys.num_inner)):
        for us in itertools.product(range(sys.params.d_inner), repeat=t - 1):
            yield ((a0, b1, us), *walk(sys, a0, b1, us))


def middle_start(sys, t, i, a_pivot, b_pivot, u_edge, draws):
    """A walk generated outward from pivot position i: b at position
    max(i, 1) is b_pivot and u_edge takes it one step forward; the draws
    take the forward steps above that, then the backward ones below."""
    p = max(i, 1)
    b = {p: b_pivot}
    if t >= 2:
        b[p + 1] = inner_step(sys, b_pivot, u_edge)
    it = iter(draws)
    for j in range(p + 2, t + 1):
        b[j] = inner_step(sys, b[j - 1], next(it))
    for j in range(i - 1, 0, -1):
        b[j] = inner_step_back(sys, b[j + 1], next(it))
    a = {i: a_pivot}
    for j in range(i + 1, t + 1):
        a[j] = rotation(sys, a[j - 1], b[j])
    for j in range(i - 1, -1, -1):
        a[j] = rotation(sys, a[j + 1], b[j + 1])
    return tuple(a[j] for j in range(t + 1)), tuple(b[j] for j in range(1, t + 1))


def encode_all_starts(amp, x):
    """Codeword bits of message x, every walk expanded from its own a_0:
    one a_0 and one block of about 2**18 b_1 rows at a time."""
    expand = amp.sys.expand
    bits = amp.f_for_message(x).bits.astype(np.uint8)
    d, n_b = amp.sys.params.d_inner, amp.sys.num_inner
    step = max(1, (1 << 18) // d ** (amp.t - 1))
    out = np.empty(amp.block_length, dtype=np.uint8)
    pos = 0
    for a0 in range(amp.sys.num_outer):
        for lo in range(0, n_b, step):
            seeds = grid(min(step, n_b - lo), *(d,) * (amp.t - 1))
            A, _ = expand(a0, seeds[:, 0] + lo, seeds[:, 1:])
            out[pos:pos + len(A)] = np.bitwise_xor.reduce(bits.take(A.T), axis=0)
            pos += len(A)
    return out


def pseudorandomness_all_starts(sys, k):
    """check_pseudorandomness with both sides enumerated from every start
    a: the max over a of the exact distances."""
    n_wide = sys.num_inner * sys.params.d_inner ** max(k - 2, 0)
    n_pure = sys.outer.degree ** (k - 1)
    seeds = grid(sys.num_outer, sys.num_inner, *(sys.params.d_inner,) * max(k - 2, 0))
    A, _ = sys.expand(seeds[:, 0], seeds[:, 1], seeds[:, 2:])
    wide = A[:, :k].reshape(sys.num_outer, n_wide, k)
    steps = sys.outer.generators[grid(*(sys.outer.degree,) * (k - 1))]
    pure = np.bitwise_xor.accumulate(np.hstack([np.zeros((n_pure, 1), np.int64), steps]), axis=1)
    tvs, gaps = zip(*(ww.multiset_tv(wide[a], pure ^ a) for a in range(sys.num_outer)))
    worst = max(tvs)
    return ww.DistributionCheck(
        equal=(worst == 0), tv_distance=float(worst), max_deviation=float(max(gaps))
    )


def middle_start_all_starts(sys, t, i):
    """middle_start_distribution_equal with every choice row (a, b, u)
    expanded once from a_0 = a and once from pivot vertex a_i = a."""
    expand = sys.expand
    seeds = grid(sys.num_outer, sys.num_inner, *(sys.params.d_inner,) * (t - 1))
    standard = np.hstack(expand(seeds[:, 0], seeds[:, 1], seeds[:, 2:]))
    middle = np.hstack(expand(seeds[:, 0], seeds[:, 1], seeds[:, 2:], pivot=i))
    tv, gap = ww.multiset_tv(standard, middle)
    return ww.DistributionCheck(equal=(tv == 0), tv_distance=float(tv), max_deviation=float(gap))
