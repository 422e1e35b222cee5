"""Scalar reference for the wide-walk rule, one walk at a time.

Plain Python ints over the generator arrays of the outer and inner graphs,
with no call into widewalk.walks.walk_tables or walk_expander, so the
tests can hold the array walk rule against an independent statement of it:

* b_i = shift(b_{i-1} ^ u_i) for i >= 2, where shift moves the block tuple
  (c_1, ..., c_s) of an (m*s)-bit word to (c_2, ..., c_s, c_1);
* a_i = a_{i-1} ^ (outer generator indexed by block 1 of b_i).
"""

import itertools


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
