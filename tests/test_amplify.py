"""Walk DP tables against brute-force enumeration, and the moment-bound
checkers on instances where every quantity is known.

The g8 fixture is the workhorse for identity tests: its conditional
means are nonzero at every level.  The flagship fixture exercises the
full bound chain; its means vanish identically (any balanced assignment
on a 4-vertex outer graph is a signed affine indicator), so the
deviation channel carries the signal there.
"""

import argparse
import hashlib
import itertools
import json
import math
from collections import defaultdict
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from widewalk import (
    ReplacementSystem,
    SignedFn,
    WalkParams,
    build_aghp,
    build_complete_selfloop,
    check_pseudorandomness,
)
from widewalk.amplify import (
    DpTable,
    _levels,
    _pure_levels,
    _wide_tables,
    check_base_case,
    check_bias_reduction_lemma,
    check_first_step_trick,
    check_induction_step,
    check_middle_start_identity,
    check_pure_walk_bounds,
    dp_backwards,
    dp_gk,
    lemma_hypotheses,
    moments,
    vacuous,
    verify_induction_arithmetic,
)
from widewalk.code import AmplifiedCode, LinearCode, code_bias, encode
from widewalk.graphs import TOL_BOUND, CayleyGraph, fwht

import walk_oracle as oracle
from conftest import traced_peak

G8_FROZEN_EPS = [0.25, 0.5, 0.5, 0.5, 0.5]
# SHA-256 of the 21 flagship dp_gk(..., 20) tables' float64 bytes, level
# order, as the per-generator gather DP produced them
FLAGSHIP_TABLES_SHA256 = "78bf62b5d94dd7c890aa4ae0a21da7c10f7a5c7e6d19aa3504f78310f6ae2c80"
# SHA-256 of the float64 bytes of pure-walk levels 1..12 (h), with f
# balanced, as the loop that rebuilt the character table at every level
# produced them
PURE_TABLES_SHA256 = {
    ("complete-nonzero-m4", "h"): "638ff1ecd56d5a7576cbff01f3195cd8ccdf4f2b1b7f6c799a4a74e0caa2cd8f",
    ("aghp-r10-l5", "h"): "5b01b6d8c3741c24ff4367a5d8cbd8091155c063f9b5aad069880cdca48955a9",
}


def test_signed_fn_basics():
    f = SignedFn.from_support(8, {0, 1, 2})
    assert f.n == 8
    assert list(f.bits) == [1, 1, 1, 0, 0, 0, 0, 0]
    assert list(f.signs) == [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert f.bias == 0.25
    assert f.bias_exact == Fraction(1, 4)
    z = SignedFn.zero(4)
    assert z.bias == 1.0
    assert list(z.signs) == [1.0, 1.0, 1.0, 1.0]


def test_signed_fn_refuses_non_integer_bits():
    # a float is refused, not truncated: [0.5, 1.9, 0, 1] is not bits 0, 1, 0, 1
    for bits in ([0.5, 1.9, 0, 1], np.array([0.0, 1.0]), [1, None]):
        with pytest.raises(ValueError, match="bits must be integers"):
            SignedFn(bits)
    for bits in ([0, 1, 0, 1], np.array([0, 1, 0, 1], np.uint8), np.array([0, 1, 0, 1]) == 1):
        f = SignedFn(bits)
        assert f.bits.tolist() == [0, 1, 0, 1] and f.signs.tolist() == [1.0, -1.0, 1.0, -1.0]


def test_signed_fn_balanced():
    b4 = SignedFn.balanced(4)
    assert list(b4.bits) == [1, 1, 0, 0]
    b16 = SignedFn.balanced(16)
    assert b16.bias_exact == 0
    # support dodges affine-subspace shape for n >= 8
    assert set(np.flatnonzero(b16.bits)) == {0, 1, 2, 3, 4, 5, 6, 9}
    with pytest.raises(ValueError):
        SignedFn.balanced(5)
    with pytest.raises(ValueError):
        SignedFn([0, 2, 1])
    with pytest.raises(ValueError):
        SignedFn([])


def enumeration_means(sys, f, t):
    """Conditional mean of the walk sign product given (a_0, b_1), by
    brute force over every seed."""
    sums = defaultdict(float)
    counts = defaultdict(int)
    for _, a_vertices, b_vertices in oracle.walks(sys, t):
        prod = 1.0
        for a in a_vertices:
            prod *= f.signs[a]
        key = (a_vertices[0], b_vertices[0])
        sums[key] += prod
        counts[key] += 1
    out = np.zeros((sys.num_outer, sys.num_inner))
    for (a, b), ssum in sums.items():
        out[a, b] = ssum / counts[(a, b)]
    return out


def test_dp_gk_matches_enumeration(g8_system, g8_f):
    tables = dp_gk(g8_system, g8_f, 4)
    for t in range(1, 5):
        brute = enumeration_means(g8_system, g8_f, t)
        assert np.max(np.abs(tables[t].values - brute)) <= 1e-12, t
    for t in range(5):
        assert abs(moments(tables[t]).eps - G8_FROZEN_EPS[t]) <= 1e-12


# seeded random systems, checked against walks enumerated from the rule
# alone; at most this many (walk, start) pairs a level, which keeps level
# s + 1 of every system (8 starts, 2^10 inner vertices, 4^5 walks at most)
ENUMERATED_PAIRS = 1 << 23


def random_system(seed):
    """m in {1, 2}, s in 3..5, ell = 1, outer dim m or m + 1, random
    multigraph words for both graphs and a random f."""
    rng = np.random.default_rng(seed)
    m, s = int(rng.integers(1, 3)), int(rng.integers(3, 6))
    dim = m + int(rng.integers(2))
    outer = CayleyGraph(dim, rng.integers(1 << dim, size=1 << m), name="outer", multigraph=True)
    inner = CayleyGraph(m * s, rng.integers(1 << (m * s), size=4), name="inner", multigraph=True)
    f = SignedFn(rng.integers(2, size=1 << dim))
    return ReplacementSystem(outer, inner, WalkParams(m, s, 1)), f


def enumerated_walks(sys, f, kmax):
    """(a_k, b_k, f(a_0)...f(a_k)) of every walk (a_0, b_1, u_2..u_k),
    k = 0..kmax, each as an (n_A, n_B, d_B^(k-1)) array in the seed's C
    order (level 0 as level 1, with b_1 and one factor).  Written from the
    rule of the widewalk.walks docstring in base-d digits, d = 2^m: block 1
    of b is b % d, a_i = a_(i-1) ^ (outer generator b_i % d), and
    b_i = shift(b_(i-1) ^ u_i), the block tuple (c_1..c_s) moved to
    (c_2..c_s, c_1)."""
    d, s = sys.params.d_outer, sys.params.s
    outer = sys.outer.generators.astype(np.uint16)
    inner = sys.inner.generators.astype(np.uint16)
    signs = (1 - 2 * f.bits).astype(np.int8)
    a, b = np.broadcast_arrays(np.arange(sys.num_outer, dtype=np.uint16)[:, None, None],
                               np.arange(sys.num_inner, dtype=np.uint16)[None, :, None])
    prod = signs[a]
    yield a, b, prod
    for k in range(1, kmax + 1):
        if k > 1:  # the seed's next inner choice u_k, along the last axis
            c = (b[..., None] ^ inner).reshape(b.shape[:2] + (-1,))
            b = c // d + c % d * d ** (s - 1)
            a, prod = (np.repeat(x, len(inner), axis=2) for x in (a, prod))
        a = a ^ outer[b % d]
        prod = prod * signs[a]
        yield a, b, prod


def enumerated_via(sys, f, gbar, g):
    """The via side of the middle-start identity from enumerated means: the
    mean over (a, b) of f(a) * gbar_s(a, b) times the average over inner
    generators u of g_(k-s)(a, shift(b ^ u)), the shift taken in base-d
    digits as in enumerated_walks."""
    d, s = sys.params.d_outer, sys.params.s
    c = np.arange(sys.num_inner)[:, None] ^ sys.inner.generators.astype(np.intp)
    average = g[:, c // d + c % d * d ** (s - 1)].mean(axis=2)
    return float((f.signs[:, None] * gbar * average).mean())


@pytest.mark.parametrize("seed", range(20))
def test_random_systems_match_an_independent_enumeration(seed):
    # every mean is a sum of +-1 over a power of two, and every DP sum and
    # scale is exact on such values, so the tables are equal, not close.
    # The middle-start identity's two sides are such sums too, each side of
    # it at a level k > s that the cap admits: direct is the mean of g_k,
    # and via is read from the backward level s and the forward level k - s
    sys, f = random_system(seed)
    s, n = sys.params.s, sys.num_outer * sys.num_inner
    kmax = min(2 * s + 1, 9)
    while n * sys.params.d_inner ** (kmax - 1) > ENUMERATED_PAIRS:
        kmax -= 1
    assert kmax > s
    forward, backward, means = dp_gk(sys, f, kmax), dp_backwards(sys, f, s), []
    for k, (a, b, prod) in enumerate(enumerated_walks(sys, f, kmax)):
        g = prod.sum(axis=2, dtype=np.int64) / prod.shape[2]
        assert np.array_equal(forward[k].values, g), ("forward", k)
        means.append(g)
        if k <= s:  # the same walks, grouped by their end pair (a_k, b_k)
            ends = (a.astype(np.intp) * sys.num_inner + b).ravel()
            sums = np.bincount(ends, prod.ravel().astype(np.float64), n)
            gbar = (sums / np.bincount(ends, minlength=n)).reshape(g.shape)
            assert np.array_equal(backward[k].values, gbar), ("backward", k)
    for k in range(s + 1, kmax + 1):
        chk = check_middle_start_identity(sys, f, k, forward)
        assert chk.direct == float(means[k].mean()), ("direct", k)
        assert chk.via == enumerated_via(sys, f, gbar, means[k - s]), ("via", k)  # gbar at level s
        assert chk.residual == 0.0 and chk.passed


@pytest.mark.parametrize("seed", range(20))
def test_encode_matches_an_independent_enumeration(seed):
    # a one-row code whose row is f: the codeword bit of seed (a_0, b_1, u)
    # is the XOR of f over a_0..a_t, (1 - prod) / 2 of the enumerated sign
    # product, in the same C order of seeds, at every level the cap admits
    sys, f = random_system(seed)
    base = LinearCode(1, sys.num_outer, [sum(int(v) << i for i, v in enumerate(f.bits))])
    n, tmax = sys.num_outer * sys.num_inner, 1
    while n * sys.params.d_inner ** tmax <= ENUMERATED_PAIRS:
        tmax += 1
    levels = enumerated_walks(sys, f, tmax)
    next(levels)  # level 0 takes no step
    for t, (_, _, prod) in enumerate(levels, 1):
        bits = encode(AmplifiedCode(base, sys, t), 1)
        assert np.array_equal(bits, (1 - prod.ravel()) // 2), t


@pytest.mark.parametrize("seed", range(20))
def test_pseudorandomness_matches_an_independent_enumeration(seed):
    # every start's k-vertex trajectories (a_0..a_(k-1)) of the enumerated
    # wide walks against the pure walks a_j = a_(j-1) ^ u_j over the outer
    # generators, enumerated here; the distances are exact Fractions, max
    # over starts, and the check returns their floats.  k runs to s + 2,
    # past the window, where four of the systems are at a nonzero distance
    sys, f = random_system(seed)
    n_a, s, d = sys.num_outer, sys.params.s, sys.params.d_inner
    bits = (n_a - 1).bit_length()  # a trajectory's key: a_j in bits j*bits up
    levels = enumerated_walks(sys, f, s + 1)
    keys = next(levels)[0].astype(np.int32)
    for k in range(2, s + 3):
        if n_a * sys.num_inner * d ** (k - 2) > ENUMERATED_PAIRS:
            break
        a = next(levels)[0]
        keys = np.repeat(keys, a.shape[2] // keys.shape[2], axis=2)
        keys |= a.astype(np.int32) << (bits * (k - 1))
        wide = np.bincount(keys.ravel(), minlength=n_a**k)
        paths = np.array([list(itertools.accumulate(us, lambda v, u: v ^ int(u), initial=0))
                          for us in itertools.product(sys.outer.generators, repeat=k - 1)])
        n_wide, n_pure = sys.num_inner * d ** (k - 2), len(paths)
        tv = gap = Fraction(0)
        for a0 in range(n_a):
            pure = np.bincount(((paths ^ a0) << (bits * np.arange(k))).sum(axis=1), minlength=n_a**k)
            diff = np.abs(wide[a0::n_a] * n_pure - pure[a0::n_a] * n_wide)
            tv = max(tv, Fraction(int(diff.sum()), 2 * n_wide * n_pure))
            gap = max(gap, Fraction(int(diff.max()), n_wide * n_pure))
        chk = check_pseudorandomness(sys, k)
        assert (chk.tv_distance, chk.max_deviation) == (float(tv), float(gap)), k
        assert chk.equal == (tv == 0), k


def test_dp_gk_flagship_moments(flagship_tables):
    # balanced f on the 4-vertex outer graph is a signed affine indicator,
    # so the means vanish identically; deviations are the live channel.
    # Rounding leaves ~1e-25 of dust at deep levels, hence the tolerance.
    for k in range(21):
        assert moments(flagship_tables[k]).eps <= 1e-20
    for k in range(6):
        assert moments(flagship_tables[k]).eps == 0.0
    assert moments(flagship_tables[2]).sigma == 0.03125
    assert moments(flagship_tables[3]).sigma == 0.0009765625


def test_dp_gk_validation(g8_system, g8_f):
    with pytest.raises(ValueError):
        dp_gk(g8_system, g8_f, -1)
    with pytest.raises(ValueError):
        dp_gk(g8_system, SignedFn.zero(4), 2)  # wrong domain size


def test_zero_assignment_gives_unit_tables(g8_system):
    tables = dp_gk(g8_system, SignedFn.zero(8), 3)
    for t in tables:
        assert np.all(t.values == 1.0)


def test_flagship_tables_are_pinned_bit_for_bit(flagship_tables):
    assert len(flagship_tables) == 21
    digest = hashlib.sha256()
    for t in flagship_tables:
        assert t.values.dtype == np.float64
        digest.update(t.values.tobytes())
    assert digest.hexdigest() == FLAGSHIP_TABLES_SHA256


def test_level_zero_mean_is_bias(g8_system, g8_f, flagship_tables, flagship_f):
    assert moments(dp_gk(g8_system, g8_f, 0)[0]).eps == g8_f.bias
    assert moments(flagship_tables[0]).eps == flagship_f.bias == 0.0


def test_tables_stay_in_unit_range(flagship_tables, g8_system, g8_f):
    for t in flagship_tables:
        assert np.abs(t.values).max() <= 1.0 + 1e-12
    for t in dp_gk(g8_system, g8_f, 6):
        assert np.abs(t.values).max() <= 1.0 + 1e-12


def test_moment_consistency(g8_system, g8_f):
    tables = dp_gk(g8_system, g8_f, 4)
    for t in tables:
        m = moments(t)
        mean = float(t.values.mean())
        assert abs(m.eps - abs(mean)) <= 1e-15
        assert abs(m.second_moment - (mean * mean + m.sigma**2)) <= 1e-12
        # per-vertex means average back to the global (signed) mean
        assert abs(float(m.eps_a.mean()) - mean) <= 1e-15


def whole_table_moments(t):
    """(eps, sigma, eps_a bytes, second moment) by the formula on the
    expanded (n_A, n_B) values, as moments took them before it read tiles."""
    v = t.values
    mean, second = float(v.mean()), float((v * v).mean())
    return abs(mean), math.sqrt(max(second - mean * mean, 0.0)), v.mean(axis=1).tobytes(), second


def test_moments_equal_the_whole_table_formula_bit_for_bit(flagship_tables, witness, skewed):
    # moments sums a compact level's cells, or a tile of them 128 columns
    # wide, never the whole table.  The DP tables' sums are exact in any
    # order, so random cells of every width and repeat count carry the
    # order: a 64-column tile misses on about half of them
    tables = list(flagship_tables) + dp_gk(witness, SignedFn.from_support(8, {0, 1, 2}), 6)
    tables += dp_gk(skewed, SignedFn.from_support(8, {0, 3, 5}), 5)
    for seed in range(20):
        sys, f = random_system(seed)
        tables += dp_gk(sys, f, sys.params.s + 1)
    rng = np.random.default_rng(17)
    for n_a in (1, 2, 8):
        for b_bits in range(16):
            for w_bits in range(b_bits + 1):
                shape = (n_a, 1 << w_bits)
                cells = rng.standard_normal(shape) * np.exp2(rng.integers(-20, 21, shape))
                tables.append(DpTable(cells, w_bits, "g", 1 << (b_bits - w_bits)))
    for t in tables:
        m = moments(t)
        assert (m.eps, m.sigma, m.eps_a.tobytes(), m.second_moment) == whole_table_moments(t), t.cells.shape


def test_moments_of_a_compact_level_hold_two_tiles(witness):
    # a tile is the cells from 128 columns up, else the cells repeated to
    # 128 columns: moments holds it and its square, where a read of the
    # values held two whole 2 MiB tables.  Traced at two tiles + 1.2 KiB
    # (8 KiB tiles), and at one tile + 1.1 KiB from 512 columns up, where
    # the tile is the cells themselves
    for t in dp_gk(witness, SignedFn.from_support(8, {0, 1, 2}), 4):
        tile = len(t.cells) * max(t.cells.shape[1], 128) * 8
        assert traced_peak(lambda: moments(t)) <= 2 * tile + (4 << 10), t.level


def test_tables_built_from_another_f_are_refused(g8_system, g8_f):
    # level 0 of a dp_gk list is f's sign table, so a list built from
    # another f is refused before anything is read, and before the
    # hypotheses (unmet on g8); the identity took such a list and reported
    # a false violation, direct 0.5 against via 0.0
    assert check_middle_start_identity(g8_system, g8_f, 4).passed
    foreign = dp_gk(g8_system, SignedFn.from_support(8, [5]), 6)
    own = dp_gk(g8_system, g8_f, 6)
    for tables in (foreign, own[1:]):
        for check in (
            lambda t: check_middle_start_identity(g8_system, g8_f, 4, t),
            lambda t: check_base_case(g8_system, g8_f, t),
            lambda t: check_induction_step(g8_system, g8_f, 4, t),
            lambda t: check_bias_reduction_lemma(g8_system, g8_f, 3, t),
            lambda t: check_first_step_trick(g8_system, g8_f, 3, t),
        ):
            with pytest.raises(ValueError, match="not built by dp_gk from this f") as err:
                check(tables)
            assert "\n" not in str(err.value)


def test_tables_built_on_another_system_are_refused(witness):
    # S = K8 x AGHP(12,4) at (3, 4, 4) has the witness's outer graph, so its
    # tables from the same f begin with f's signs; on them the induction
    # step read S's eps values and passed, and the identity reported a
    # false violation (residual 1.06e-6).  S's tables hold 2^12 inner
    # columns once expanded, the witness's 2^15; one such table among the
    # witness's own is refused too, wherever the check reads it
    f = SignedFn.from_support(8, {0, 1, 2})
    other = ReplacementSystem(build_complete_selfloop(3), build_aghp(12, 4), WalkParams(3, 4, 4))
    foreign = dp_gk(other, f, 8)
    mixed = dp_gk(witness, f, 6)
    mixed[1], mixed[5] = foreign[1], foreign[5]  # the identity reads 1, the first step 5
    for check in (
        lambda: check_induction_step(witness, f, 8, foreign),
        lambda: check_middle_start_identity(witness, f, 6, foreign),
        lambda: check_first_step_trick(witness, f, 6, mixed),
        lambda: check_middle_start_identity(witness, f, 6, mixed),
    ):
        with pytest.raises(ValueError, match="not built by dp_gk from this f"):
            check()


def full_transform_levels(sys, f, levels, kind):
    """Reference: the wide-walk levels with a full Walsh-Hadamard transform
    over all m*s bits of b on each side of every step, as dp_gk and
    dp_backwards took them before they kept blocks 2..s transformed.  A
    forward level averages the shifted table, a backward level averages
    and then undoes the shift; both take the rotation row and the sign.
    The rotation is the whole (n_A, n_B) table rot[a, b] = a ^ hop(b)."""
    b = np.arange(sys.num_inner)
    rot = np.arange(sys.num_outer)[:, None] ^ sys.hop(b)
    shift = sys.shift(b)
    unshift = np.argsort(shift)
    sign_col = f.signs[:, None]
    g = np.broadcast_to(f.signs[:, None], (sys.num_outer, sys.num_inner)).copy()
    tables = [DpTable(g, 0, kind)]
    for k in range(1, levels + 1):
        if kind == "g":
            avg = oracle.cayley_average(g[:, shift], sys.inner)
        else:
            avg = oracle.cayley_average(g, sys.inner)[:, unshift]
        g = sign_col * np.take_along_axis(avg, rot, axis=0)
        tables.append(DpTable(g, k, kind))
    return tables


def allocating_levels(sys, f, levels, kind, first=0):
    """Reference: the mixed-domain level loop as it stood before it kept one
    working set per call.  Every step allocates a moveaxis copy and the
    take, and transforms in place; every returned level a copy, a
    transform, a divide, a transposed copy and the sign product."""
    n_a, d, s = sys.num_outer, sys.params.d_outer, sys.params.s
    rest = sys.num_inner // d
    blocks = (n_a,) + (d,) * s
    chars = sys.inner.character_table.reshape((d,) * s).T / (d * sys.params.d_inner)
    if kind == "g":
        chars, roll = np.moveaxis(chars, 0, -1), (-1, 1)
    else:
        roll = (1, -1)
    chars = chars.reshape(d, rest)
    rows = ((np.arange(n_a)[:, None] ^ sys.outer.generators) * d + np.arange(d)).ravel()
    signs = np.repeat(f.signs, d)[:, None]

    def table(x, k):
        primal = (fwht(x.copy()) / rest).reshape(blocks).transpose(0, *range(s, 0, -1))
        return DpTable(f.signs[:, None] * primal.reshape(n_a, sys.num_inner), k, kind)

    x = np.zeros((n_a * d, rest))
    x[:, 0] = rest
    tables = []
    for k in range(levels + 1):
        if k:
            y = fwht(x.reshape(n_a, d, rest), axis=1)
            y *= chars
            y = np.moveaxis(y.reshape(blocks), *roll).reshape(n_a, d, rest)
            x = fwht(y, axis=1).reshape(n_a * d, rest).take(rows, axis=0)
        if k >= first:
            tables.append(table(x, k))
        x *= signs
    return tables


def test_wide_tables_equal_the_allocating_loop_byte_for_byte(flagship, witness):
    # m = 1, 2 and 3: block-1 transforms of odd and even stage counts
    tracer = ReplacementSystem(build_complete_selfloop(1), build_aghp(2, 1), WalkParams(1, 2, 1))
    cases = [(tracer, SignedFn.from_support(2, {0}), 8)]
    cases += [(flagship, SignedFn.from_support(4, sup), 20) for sup in ({0}, {0, 3}, {1, 2, 3})]
    cases += [(witness, SignedFn.from_support(8, sup), 6) for sup in ({0, 1, 2}, {2, 6, 7})]
    for sys, f, levels in cases:
        s = sys.params.s
        # all levels, the middle-start's k-s.., the first step's k-1.. and k alone
        runs = [(list(_wide_tables(sys, f, levels, first)),
                 allocating_levels(sys, f, levels, "g", first))
                for first in (0, levels - s, levels - 1, levels)]
        # the backward tables, the loop that averages and then unshifts, at
        # every length dp_backwards accepts
        runs += [(dp_backwards(sys, f, n), allocating_levels(sys, f, n, "gbar")) for n in range(s + 1)]
        for got, want in runs:
            assert [(t.level, t.kind) for t in got] == [(t.level, t.kind) for t in want]
            for a, b in zip(got, want):
                assert a.values.shape == b.values.shape and a.values.flags.c_contiguous
                assert a.values.tobytes() == b.values.tobytes(), (sys.params, a.kind, a.level)


def test_wide_walk_working_set_is_one_block_per_call(witness):
    # in units of one n_A * n_B float64 table (2 MiB on the witness): the
    # level loop holds two (x and the spare row; every transform runs in
    # place), the identity nothing more, code_bias's one-level read one
    # returned table more, and dp_gk the tables it keeps: levels 5 and 6
    # whole, level k < 5 only its n_A * 8^k cells (2.14 tables in all);
    # the one-row code's only codeword is f.  Traced at 3.17, 4.31 and
    # 2.26
    f = SignedFn.from_support(8, {0, 1, 2})
    tables = dp_gk(witness, f, 6)
    table = tables[0].values.nbytes
    n_a, d, s = witness.num_outer, witness.params.d_outer, witness.params.s
    for k, t in enumerate(tables):
        assert t.cells.shape == (n_a, d ** min(k, s)), k
    assert sum(t.cells.nbytes for t in tables) <= 2.5 * table
    # each read of a compact level's values is a fresh, writable table
    first = tables[2].values
    first.fill(7.0)
    assert np.all(tables[2].values != 7.0)
    amp = AmplifiedCode(LinearCode(1, 8, [0b111]), witness, 6)
    assert traced_peak(lambda: code_bias(amp)) < 3.5 * table
    assert traced_peak(lambda: dp_gk(witness, f, 6)) < 5 * table
    # dp_backwards keeps its six levels whole, as a backward level reads
    # blocks 1 and s-k+2..s, not the low bits of b, and the loop's block
    # (traced at 8.16)
    assert traced_peak(lambda: dp_backwards(witness, f, 5)) < 8.5 * table
    assert traced_peak(lambda: check_middle_start_identity(witness, f, 6, tables)) < 3 * table
    # without tables a check reads each level as the loop yields it and
    # drops it: the block, the level before, the new one and a moment's
    # temporary, whatever the level count (traced at 4.13 to 4.19)
    for kmax in (12, 24):
        assert traced_peak(lambda: check_induction_step(witness, f, kmax)) < 5 * table, kmax
    assert traced_peak(lambda: check_base_case(witness, f)) < 5 * table
    assert traced_peak(lambda: check_first_step_trick(witness, f, 12)) < 5 * table
    # the identity keeps g_{k-s} and g_k of the stream, and its own block
    # (traced at 4.16)
    assert traced_peak(lambda: check_middle_start_identity(witness, f, 12)) < 6 * table
    # the lemma reads its one level after the stream has freed the block
    # (traced at 3.16)
    assert traced_peak(lambda: check_bias_reduction_lemma(witness, f, 20)) < 3.5 * table
    # the pure walk streams its levels too, in units of one 2^16-entry
    # table; each step's convolution holds one array (traced at 3.01)
    graph = build_aghp(16, 8)
    f = SignedFn.balanced(graph.num_vertices)
    assert check_pure_walk_bounds(graph, f, 2).hypotheses_met  # builds the spectrum once
    table = graph.num_vertices * 8
    assert traced_peak(lambda: check_pure_walk_bounds(graph, f, 24)) < 5 * table


def test_moment_checks_agree_with_and_without_tables(
    flagship, flagship_f, flagship_tables, g8_system, g8_f, witness
):
    # a caller's dp_gk list and the checks' own streamed levels give equal
    # reports, at the levels the acceptance tests read and on the witness
    wf = SignedFn.from_support(8, {0, 1, 2})
    cases = [(flagship, flagship_f, flagship_tables, 15, (10, 15, 20)),
             (g8_system, g8_f, dp_gk(g8_system, g8_f, 4), 4, (3, 4)),
             (witness, wf, dp_gk(witness, wf, 12), 12, (6, 12))]
    for sys, f, tables, kmax, ts in cases:
        s = sys.params.s
        assert check_base_case(sys, f) == check_base_case(sys, f, tables)
        assert check_induction_step(sys, f, kmax) == check_induction_step(sys, f, kmax, tables)
        for t in ts:
            assert check_bias_reduction_lemma(sys, f, t) == check_bias_reduction_lemma(sys, f, t, tables)
        for k in range(1, kmax + 1):
            assert check_first_step_trick(sys, f, k) == check_first_step_trick(sys, f, k, tables), k
        for k in range(s + 1, kmax + 1):
            assert check_middle_start_identity(sys, f, k) == check_middle_start_identity(sys, f, k, tables), k


def test_wide_levels_equal_the_full_transform_reference(flagship, g8_system, mono_system, witness):
    # exact float equality at every level (a zero may change its sign: the
    # last operation that makes it differs); the flagship balanced tables
    # are also pinned byte for byte above
    cases = [(flagship, SignedFn.from_support(4, sup), 20) for sup in
             ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))]
    cases += [(sys, f, 12) for sys in (g8_system, mono_system)
              for f in (SignedFn.from_support(8, {0, 1, 2}), SignedFn.balanced(8))]
    cases += [(witness, SignedFn.from_support(8, sup), 6) for sup in ((0, 1, 2), (1, 4, 6), (3, 5, 7))]
    for sys, f, kmax in cases:
        s = sys.params.s
        forward = dp_gk(sys, f, kmax)
        for got, want in ((forward, full_transform_levels(sys, f, kmax, "g")),
                          (dp_backwards(sys, f, s), full_transform_levels(sys, f, s, "gbar"))):
            assert [(t.level, t.kind) for t in got] == [(t.level, t.kind) for t in want]
            for a, b in zip(got, want):
                assert np.array_equal(a.values, b.values), (sys.params, f.bits, a.kind, a.level)
        # the single-level stream runs the same levels and converts only the last
        (last,) = _levels(sys, f, kmax, None, kmax)
        assert last.values.tobytes() == forward[kmax].values.tobytes()


def test_closed_form_on_complete_outer_graphs(flagship, witness):
    # with self-loops, hop is a bijection from a block onto the outer
    # vertices, and the first s outer steps of a walk from (a_0, b_1) read
    # blocks 1..s of the uniform b_1: they are i.i.d. uniform, and
    # eps_k = Bias(f)^(k+1) exactly for k <= s
    cases = [(flagship, SignedFn.from_support(4, sup))
             for size in range(5) for sup in itertools.combinations(range(4), size)]
    cases += [(witness, SignedFn.from_support(8, sup))
              for sup in ({0, 1, 2}, {0, 3, 5}, {4}, {1, 6})]
    for sys, f in cases:
        s = sys.params.s
        for k, table in enumerate(dp_gk(sys, f, s)):
            assert abs(float(table.values.mean())) == f.bias_exact ** (k + 1), (sys.params, f.bits, k)
    # past s the inner walk enters: the closed form is off by 4.4e-6 relative;
    # code_bias reads eps_6 of the one-row code whose only codeword is f
    f = SignedFn.from_support(8, {0, 1, 2})
    eps = code_bias(AmplifiedCode(LinearCode(1, 8, [0b111]), witness, 6))
    assert eps != f.bias_exact**7 and abs(eps / float(f.bias_exact**7) - 1) < 1e-5


def constant_blocks(sys, values) -> set[int]:
    """The blocks j of b (bits (j-1)*m .. j*m-1) along which a table is constant."""
    d, s = sys.params.d_outer, sys.params.s
    v = values.reshape((sys.num_outer,) + (d,) * s)  # block j is axis s-j+1
    return {j for j in range(1, s + 1) if (v == v.take([0], axis=s - j + 1)).all()}


def test_levels_are_constant_along_the_blocks_the_walk_has_not_read(flagship, witness):
    # the compact levels of _wide_levels rest on this: a k-step walk reads
    # blocks 1..k of b ("g") or blocks 1 and s-k+2..s ("gbar"), and on these
    # supports every table varies along every block it reads (g_s and
    # gbar_s along all s)
    cases = [(flagship, SignedFn.from_support(4, {0}))]
    cases += [(witness, SignedFn.from_support(8, sup)) for sup in ({0, 1, 2}, {0, 3, 5})]
    for sys, f in cases:
        s = sys.params.s
        forward, backward = dp_gk(sys, f, s), dp_backwards(sys, f, s)
        for k in range(1, s + 1):
            assert constant_blocks(sys, forward[k].values) == set(range(k + 1, s + 1)), k
            assert constant_blocks(sys, backward[k].values) == set(range(2, s - k + 2)), k


def test_compact_levels_bound_the_transform_work(witness, monkeypatch):
    # a timing-free cost guard: cells times butterfly stages over every
    # fwht call of the wide-walk DP, in units of one n_A * n_B table.  Full
    # levels took 120 for dp_gk and 48 for the identity; compact ones 31.7
    # and 18.4
    import widewalk.amplify as amplify

    f = SignedFn.from_support(8, {0, 1, 2})
    tables = dp_gk(witness, f, 6)
    cost = []

    def counted(a, axis=-1):
        cost.append(a.size * (a.shape[axis].bit_length() - 1))
        return fwht(a, axis)

    monkeypatch.setattr(amplify, "fwht", counted)
    cells = witness.num_outer * witness.num_inner
    assert dp_gk(witness, f, 6)[6].values.tobytes() == tables[6].values.tobytes()
    assert sum(cost) <= 32 * cells
    cost.clear()
    check_middle_start_identity(witness, f, 6, tables)
    assert 0 < sum(cost) <= 19 * cells


def test_identity_without_tables_converts_two_levels(witness, monkeypatch):
    # the transforms along the last axis: one primal conversion per level
    # that leaves the loop, and the via side's R^.  Streaming levels k-s..k
    # converted s + 1 = 6 levels and kept 2
    import widewalk.amplify as amplify

    f = SignedFn.from_support(8, {0, 1, 2})
    want = check_middle_start_identity(witness, f, 6, dp_gk(witness, f, 6))
    last_axis = []

    def counted(a, axis=-1):
        last_axis.append(axis == -1)
        return fwht(a, axis)

    monkeypatch.setattr(amplify, "fwht", counted)
    assert check_middle_start_identity(witness, f, 6) == want
    assert sum(last_axis) == 3


def test_dp_backwards_matches_enumeration(g8_system, g8_f):
    # exact: every sum over walks and every division by d is a dyadic rational
    sys = g8_system
    d = sys.params.d_inner
    for f in (g8_f, SignedFn.balanced(8), SignedFn.from_support(8, {1, 4, 6})):
        for length in (1, 2):
            sums = defaultdict(float)
            for _, a_vertices, b_vertices in oracle.walks(sys, length):
                prod = 1.0
                for a in a_vertices:
                    prod *= f.signs[a]
                sums[(a_vertices[-1], b_vertices[-1])] += prod
            # every end state is reached by exactly d**(length-1) seeds
            brute = np.zeros((sys.num_outer, sys.num_inner))
            for (a, b), ssum in sums.items():
                brute[a, b] = ssum / d ** (length - 1)
            got = dp_backwards(sys, f, length)[length].values
            assert np.array_equal(got, brute), (f.bits, length)


def test_dp_backwards_validation(g8_system, g8_f):
    with pytest.raises(ValueError):
        dp_backwards(g8_system, g8_f, 3)  # length > s


def test_backward_forward_means_agree(g8_system, g8_f, flagship, flagship_f, witness):
    # level-j averages agree between the two orientations, float for float
    cases = [(g8_system, f) for f in (g8_f, SignedFn.balanced(8), SignedFn.from_support(8, {1, 4, 6}))]
    cases += [(flagship, f) for f in (flagship_f, SignedFn.from_support(4, {0}),
                                      SignedFn.from_support(4, {0, 3}))]
    cases += [(witness, SignedFn.from_support(8, sup)) for sup in ({0, 1, 2}, {2, 6, 7}, {1, 4, 6})]
    for sys, f in cases:
        s = sys.params.s
        fwd = dp_gk(sys, f, s)
        bwd = dp_backwards(sys, f, s)
        for j in range(s + 1):
            assert float(fwd[j].values.mean()) == float(bwd[j].values.mean()), (sys.params, f.bits, j)


def pure_tables(g, f, kmax):
    """The pure-walk levels 1..kmax as a list indexed by level (slot 0 None)."""
    return [None, *_pure_levels(g, f, kmax)]


def test_dp_hk_matches_enumeration(g8_system, g8_f):
    import itertools

    g = g8_system.outer
    f = g8_f
    tables = pure_tables(g, f, 4)
    for k in range(1, 5):
        brute = np.zeros(g.num_vertices)
        for a in range(g.num_vertices):
            total = 0.0
            for idxs in itertools.product(range(g.degree), repeat=k - 1):
                prod = f.signs[a]
                cur = a
                for i in idxs:
                    cur = oracle.neighbor(g, cur, i)
                    prod *= f.signs[cur]
                total += prod
            brute[a] = total / g.degree ** (k - 1)
        assert np.max(np.abs(tables[k].values - brute)) <= 1e-12, k


def test_pure_walk_tables_are_pinned_bit_for_bit(k16):
    for g in (k16, build_aghp(10, 5)):
        n = g.num_vertices
        f = SignedFn.balanced(n)
        tables = pure_tables(g, f, 12)
        # moments hand out a pure table's own array as eps_a, so level 1
        # is a copy of the signs, never f's own array
        assert not np.shares_memory(tables[1].values, f.signs)
        digest = hashlib.sha256()
        for t in tables[1:]:
            digest.update(t.values.tobytes())
        assert digest.hexdigest() == PURE_TABLES_SHA256[g.name, "h"], g.name


def test_pure_walk_dp_builds_the_character_table_once(table_builds):
    # a table rebuilt at every level would count once per level, and one
    # built for the spectrum and again for the DP twice; the check's
    # spectrum and levels share the graph's one table
    k16 = build_complete_selfloop(4, selfloop=False)
    f = SignedFn.balanced(16)
    assert check_pure_walk_bounds(k16, f, 8).all_passed
    assert table_builds == [k16.name]


def test_every_check_reads_one_table_per_graph(table_builds):
    # measured before each graph kept its table: one witness-dp round built
    # the inner table 6 times and the outer one 3, the identity without
    # tables the inner 3, check_hitting 2 and code_report at t = 2 the
    # inner 4; a fresh graph per case
    from widewalk.code import AmplifiedCode, LinearCode, code_report
    from widewalk.hitting import check_hitting

    def witness_system():
        return ReplacementSystem(build_complete_selfloop(3), build_aghp(15, 5), WalkParams(3, 5, 5))

    sys, f = witness_system(), SignedFn.from_support(8, {0, 1, 2})
    tables = dp_gk(sys, f, 6)
    check_base_case(sys, f, tables)
    check_induction_step(sys, f, 6, tables)
    check_bias_reduction_lemma(sys, f, 6, tables)
    check_middle_start_identity(sys, f, 6, tables)
    assert sorted(table_builds) == ["aghp-r15-l5", "complete-selfloop-m3"]
    table_builds.clear()
    check_middle_start_identity(witness_system(), f, 6)
    assert table_builds == ["aghp-r15-l5"]
    table_builds.clear()
    check_hitting(build_aghp(10, 5), range(512), 12)
    assert table_builds == ["aghp-r10-l5"]
    table_builds.clear()
    flagship = ReplacementSystem(build_complete_selfloop(2), build_aghp(10, 5), WalkParams(2, 5, 5))
    code_report(AmplifiedCode(LinearCode(2, 4, [0x3, 0x5]), flagship, 2))
    assert sorted(table_builds) == ["aghp-r10-l5", "complete-selfloop-m2"]


def test_dp_hk_validation(k16):
    with pytest.raises(ValueError, match="kmax must be at least 1"):
        check_pure_walk_bounds(k16, SignedFn.balanced(16), 0)
    with pytest.raises(ValueError, match="f size does not match the graph"):
        check_pure_walk_bounds(k16, SignedFn.balanced(4), 2)


def test_weighted_level_one_recovers_two_back(g8_system, g8_f, flagship, flagship_f, flagship_tables):
    # with terminal weight H(a) = eps_{k-1}(a), the level-1 weighted mean
    # |mean(f * H)| equals eps_{k-2}: stepping the pair (a, H) once undoes
    # one level
    for sys, f, tables in (
        (g8_system, g8_f, dp_gk(g8_system, g8_f, 6)),
        (flagship, flagship_f, flagship_tables),
    ):
        for k in range(2, 7):
            H = moments(tables[k - 1]).eps_a
            assert abs(abs(float((f.signs * H).mean())) - moments(tables[k - 2]).eps) <= 1e-12


def test_backwards_terminal_mean_is_pure_walk(g8_system, g8_f, flagship, flagship_f):
    # averaging the s-step backward table over its inner coordinate gives
    # the (s+1)-vertex pure-walk table exactly: within the window the wide
    # walk is distributed as the pure walk
    for sys, f in ((g8_system, g8_f), (flagship, flagship_f)):
        s = sys.params.s
        gbar = dp_backwards(sys, f, s)[s].values.mean(axis=1)
        h = pure_tables(sys.outer, f, s + 1)[s + 1].values
        assert np.max(np.abs(gbar - h)) <= 1e-12


def test_pure_walk_bounds_k16(k16):
    f = SignedFn.balanced(16)
    report = check_pure_walk_bounds(k16, f, 10)
    assert report.hypotheses_met
    assert report.all_passed
    assert len(report.rows) == 10
    assert not any(r.vacuous for r in report.rows)
    by_k = {r.k: r for r in report.rows}
    assert abs(by_k[2].epsilon - 1 / 15) <= 1e-12
    assert abs(by_k[4].epsilon - 1 / 225) <= 1e-12
    assert abs(by_k[2].bound_eps - 2 / 15) <= 1e-12


def test_pure_walk_hypothesis_gate(k16):
    # constant assignment has bias 1 > sqrt(1/15): refused, no rows
    report = check_pure_walk_bounds(k16, SignedFn.zero(16), 5)
    assert not report.hypotheses_met
    assert report.rows == [] and report.extra == {}
    assert not report.all_passed
    # the hypothesis Bias(f)^2 <= lambda is exact and holds at equality
    complete4 = build_complete_selfloop(2)
    assert check_pure_walk_bounds(complete4, SignedFn.balanced(4), 3).hypotheses_met


def test_argument_errors_come_before_the_hypotheses(k16, g8_system, g8_f):
    # every f and kmax below has unmet hypotheses (bias 1, or g8's
    # lambda_A = 1), so a check that read the spectra first would return
    # an unmet report in place of the error
    zero = SignedFn.zero(16)
    with pytest.raises(ValueError, match="kmax must be at least 1"):
        check_pure_walk_bounds(k16, zero, 0)
    with pytest.raises(ValueError, match="f size does not match"):
        check_pure_walk_bounds(k16, SignedFn.zero(8), 3)
    with pytest.raises(ValueError, match="kmax must exceed s=2"):
        check_induction_step(g8_system, g8_f, 2)
    # a wrong-sized f is refused with one message on every wide-walk path,
    # the DPs and the checks given a caller's tables too, before any reshape
    tables = dp_gk(g8_system, g8_f, 6)
    for check in (
        check_base_case,
        lambda sys, f: check_bias_reduction_lemma(sys, f, 3),
        lambda sys, f: dp_gk(sys, f, 3),
        lambda sys, f: dp_backwards(sys, f, 2),
        lambda sys, f: check_middle_start_identity(sys, f, 3),
        lambda sys, f: check_first_step_trick(sys, f, 3, tables),
    ):
        with pytest.raises(ValueError, match="f has 4 entries, outer graph has 8"):
            check(g8_system, SignedFn.zero(4))


def test_measured_lambdas(flagship, g8_system):
    # lemma_hypotheses returns the exact (lambda_A, lambda_B) it judged
    lam_a, lam_b = lemma_hypotheses(flagship, Fraction(0))[2:]
    assert lam_a == 0
    assert lam_b == Fraction(7, 32)
    lam_a8, lam_b8 = lemma_hypotheses(g8_system, Fraction(0))[2:]
    assert lam_a8 == 1  # generators span only the low bits: disconnected
    assert lam_b8 == Fraction(1, 2)


def test_base_case_flagship(flagship, flagship_f, flagship_tables):
    report = check_base_case(flagship, flagship_f, flagship_tables)
    assert report.hypotheses_met
    assert report.all_passed
    assert [r.k for r in report.rows] == [0, 1, 2, 3, 4, 5]
    by_k = {r.k: r for r in report.rows}
    assert abs(by_k[0].bound_eps - 7 / 32) <= 1e-15
    # sigma bound at k=0 is (2*lam)^(-1) scaled, above 1: flagged vacuous
    assert by_k[0].vacuous


def test_base_case_zero_lambda_inner():
    # inner graph with expansion exactly 0: the k=0 sigma bound is
    # undefined (negative power) and reported as None; k=1 uses 0**0 = 1
    params = WalkParams(m=1, s=2, ell=1)
    sys = ReplacementSystem(
        build_complete_selfloop(1), build_complete_selfloop(2), params
    )
    report = check_base_case(sys, SignedFn.balanced(2))
    assert report.all_passed
    by_k = {r.k: r for r in report.rows}
    assert by_k[0].bound_sigma is None
    assert by_k[1].bound_sigma == 2.0
    assert by_k[2].bound_sigma == 0.0


def test_base_case_and_induction_with_positive_lambda_a(skewed):
    # lambda_A = 1/8 <= lambda_B^2 = 225/1024: the outer graph's expansion
    # enters met hypotheses, and every eps_k is nonzero
    f = SignedFn.from_support(8, [0, 1, 2])
    assert lemma_hypotheses(skewed, f.bias_exact)[2:] == (Fraction(1, 8), Fraction(15, 32))
    tables = dp_gk(skewed, f, 10)
    base = check_base_case(skewed, f, tables)
    ind = check_induction_step(skewed, f, 10, tables)
    assert base.hypotheses_met and base.all_passed
    assert ind.hypotheses_met and ind.all_passed
    rows = base.rows + ind.rows
    assert [r.k for r in rows] == list(range(11))
    assert [r.k for r in rows if not r.vacuous] == [6, 7, 8, 9, 10]
    assert all(r.epsilon > 0 for r in rows)


def test_first_step_and_middle_start_with_positive_lambda_a(skewed):
    # lambda_A = 1/8: the outer graph's expansion enters both checks.  The
    # balanced support {0,1,2,4} has direct = 0 at even k, so only odd k
    # compare a nonzero mean
    for support, nonzero in (([0, 1, 2], range(5, 9)), ([0, 1, 2, 4], (5, 7))):
        f = SignedFn.from_support(8, support)
        tables = dp_gk(skewed, f, 8)
        for k in range(1, 9):
            assert check_first_step_trick(skewed, f, k, tables).passed, (support, k)
        for k in range(5, 9):
            chk = check_middle_start_identity(skewed, f, k, tables)
            assert chk.residual == 0.0 and chk.passed, (support, k)
            assert (chk.direct != 0.0) == (k in nonzero), (support, k)


def test_eps_is_invariant_under_translation_and_complement(witness, skewed):
    # on a Cayley outer graph the walk from a_0 ^ a is the walk from a_0
    # translated by a, and the complement flips all k+1 signs of g_k: eps_10
    # is one float, bit for bit, over all 8 translates of {1,3,4} and its
    # complement
    support = {1, 3, 4}
    supports = [{v ^ a for v in support} for a in range(8)] + [set(range(8)) - support]
    for sys in (witness, skewed):
        eps = {moments(*_levels(sys, SignedFn.from_support(8, sup), 10, None, 10)).eps
               for sup in supports}
        assert len(eps) == 1 and eps.pop() > 0, sys.outer.name


def test_translating_or_complementing_f_moves_every_table_bit_for_bit(witness, skewed):
    # the walks from a ^ c are the walks from a translated by c, forward
    # and backward alike, so f'(a) = f(a ^ c) gives every level of f with
    # its rows taken at a ^ c; the complement flips all k + 1 signs of a
    # level k.  dp_gk to k = 8 and dp_backwards at length s, over the 7
    # nonzero translates of {0,1,2} and its complement
    support = {0, 1, 2}
    for sys in (witness, skewed):
        n, s = sys.num_outer, sys.params.s

        def tables(sup):
            f = SignedFn.from_support(n, sup)
            return dp_gk(sys, f, 8) + dp_backwards(sys, f, s)

        base = [(t.kind, t.level, t.values) for t in tables(support)]
        for c in range(1, n):
            for (kind, k, v), t in zip(base, tables({a ^ c for a in support}), strict=True):
                assert t.values.tobytes() == v[np.arange(n) ^ c].tobytes(), (sys.outer.name, c, kind, k)
        for (kind, k, v), t in zip(base, tables(set(range(n)) - support), strict=True):
            assert t.values.tobytes() == (v if k % 2 else -v).tobytes(), (sys.outer.name, kind, k)


def test_hypothesis_gate_disconnected_outer(g8_system, g8_f):
    # lambda_A = 1 > lambda_B^2: every wide-walk checker must refuse
    report = check_base_case(g8_system, g8_f)
    assert not report.hypotheses_met
    assert "lambda_A=1" in report.hypothesis_detail
    assert check_induction_step(g8_system, g8_f, 5).hypotheses_met is False
    assert check_bias_reduction_lemma(g8_system, g8_f, 4).hypotheses_met is False


def test_induction_step_flagship(flagship, flagship_f, flagship_tables):
    report = check_induction_step(flagship, flagship_f, 15, flagship_tables)
    assert report.hypotheses_met
    assert report.all_passed
    assert [r.k for r in report.rows] == list(range(6, 16))
    with pytest.raises(ValueError):
        check_induction_step(flagship, flagship_f, 5, flagship_tables)


def test_bias_reduction_flagship(flagship, flagship_f, flagship_tables):
    report = check_bias_reduction_lemma(flagship, flagship_f, 10, flagship_tables)
    assert report.all_passed
    row = report.rows[0]
    assert row.k == 10
    # (2 * 7/32)^(10 * (1 - 4/5)) = (7/16)^2
    assert abs(row.bound_eps - 0.19140625) <= 1e-15
    assert not row.vacuous
    assert report.extra["eps_t_le_eps0"]
    with pytest.raises(ValueError):
        check_bias_reduction_lemma(flagship, flagship_f, 0)


def test_vacuous_is_one_rule_for_every_bound():
    # a bound informs only below 1; exactly 1 and NaN assert nothing
    assert not vacuous(0.999) and vacuous(1.0) and vacuous(math.nan) and vacuous(math.inf)
    # base-case rows flag eps and sigma: either at 1 or above makes the row vacuous
    assert not vacuous(0.5, 0.875) and vacuous(0.5, 1.0) and vacuous(2.0, 0.5)
    # the headline bound also needs s >= 5 and lambda_B < 1/2
    assert not vacuous(0.5, lam=0.375, s=5)
    assert vacuous(0.125, lam=1.0, s=2) and vacuous(0.5, lam=0.375, s=4)
    assert vacuous(0.5, lam=0.5, s=5) and vacuous(1.0, lam=0.375, s=5)


def test_bias_reduction_lemma_is_vacuous_below_s_5(skewed):
    # s = 4: the exponent t*(1-4/s) is 0, the bound reads 1 and asserts
    # nothing, although eps_t > 0 and the hypotheses hold
    report = check_bias_reduction_lemma(skewed, SignedFn.from_support(8, [0, 1, 2]), 6)
    assert report.hypotheses_met and report.all_passed
    (row,) = report.rows
    assert row.vacuous and row.bound_eps == 1.0 and row.epsilon > 0


def test_first_step_trick(flagship, flagship_f, flagship_tables, g8_system, g8_f):
    for k in range(6, 11):
        chk = check_first_step_trick(flagship, flagship_f, k, flagship_tables)
        assert chk.passed, k
    chk = check_first_step_trick(g8_system, g8_f, 3)
    assert chk.passed
    assert chk.lhs <= chk.rhs + 1e-12
    with pytest.raises(ValueError):
        check_first_step_trick(flagship, flagship_f, 0)


def bisect_flip(passed, lo, hi, steps=60):
    """The edge between lo, where passed is False, and hi, where it is True
    (either may be the larger), to within (hi - lo) / 2**steps."""
    assert not passed(lo) and passed(hi)
    for _ in range(steps):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if passed(mid) else (mid, hi)
    return hi


def sigma_sq(v):
    """The variance of a table's cells, E[g^2] - E[g]^2."""
    return float((v * v).mean()) - float(v.mean()) ** 2


def test_first_step_verdict_flips_where_the_inequality_does(witness, monkeypatch):
    # sigma_k^2 <= E_a[eps_{k-1}(a)^2] + lam^2 * sigma_{k-1}^2 with holds'
    # slack: lam enters only the bound, so a spectrum stand-in moves it, and
    # the verdict must flip at lam^2 = (sigma_k^2 - E_a[eps_{k-1}(a)^2] -
    # TOL_BOUND) / sigma_{k-1}^2, 0.0371731189423894 on the witness at k = 6
    # (lam * sigma^2 in the bound would put it near 1.4e-3, 1.01 * rhs
    # near 0.028)
    import widewalk.amplify as amplify

    f, k = SignedFn.from_support(8, {0, 1, 2}), 6
    tables = dp_gk(witness, f, k)
    g, prev = tables[k].values, tables[k - 1].values
    eps_a_sq = float((prev.mean(axis=1) ** 2).mean())
    flip = math.sqrt((sigma_sq(g) - eps_a_sq - TOL_BOUND) / sigma_sq(prev))

    def passed(lam):
        monkeypatch.setattr(amplify, "spectrum", lambda graph: SimpleNamespace(lam=lam))
        return check_first_step_trick(witness, f, k, tables).passed

    assert abs(bisect_flip(passed, 0.0, 1.0) - flip) <= 1e-12


def test_bias_lemma_verdict_flips_at_its_bound(witness):
    # the headline eps_t <= (2*lambda_B)^(t*(1-4/s)), asserted on the
    # witness at t = 12 (s = 5, lambda_B = 3/8), flips only at lambda_B
    # near 2.7e-4, far below the hypothesis Bias(f) = 1/4 <= lambda_B.  So
    # level t is scaled by c instead (level 0 stays f's signs, so the list
    # is accepted), and the verdict must flip at c = bound / eps_t
    f, t, s = SignedFn.from_support(8, {0, 1, 2}), 12, witness.params.s
    tables = dp_gk(witness, f, t)
    chars = witness.inner.character_table
    lam = float(np.abs(chars[1:]).max()) / witness.inner.degree
    bound = (2 * lam) ** (t * (1 - 4 / s))
    eps = abs(float(tables[t].values.mean()))
    assert lam == 0.375 and 0 < eps < bound < 1

    def passed(c):
        scaled = tables[:t] + [DpTable(tables[t].cells * c, t, "g")]
        report = check_bias_reduction_lemma(witness, f, t, scaled)
        (row,) = report.rows
        assert report.hypotheses_met and not row.vacuous and row.bound_eps == bound
        return row.passed

    flip = bound / eps
    assert abs(bisect_flip(passed, 4 * flip, 0.0) - flip) <= 1e-9 * flip


def test_middle_start_identity(flagship, flagship_f, flagship_tables, g8_system, g8_f):
    chk = check_middle_start_identity(flagship, flagship_f, 7, flagship_tables)
    assert chk.passed
    assert chk.residual <= 1e-9
    chk8 = check_middle_start_identity(g8_system, g8_f, 3)
    assert chk8.passed
    assert abs(chk8.direct - chk8.via) <= 1e-9
    with pytest.raises(ValueError):
        check_middle_start_identity(flagship, flagship_f, 5, flagship_tables)


def full_transform_via(sys, f, k, tables):
    """Reference: the via side as check_middle_start_identity took it before
    it used Parseval: the primal gbar_s times a full-transform
    cayley_average of the shifted g_{k-s}."""
    s = sys.params.s
    gbar = dp_backwards(sys, f, s)[s].values
    rest = tables[k - s].values[:, sys.shift(np.arange(sys.num_inner))]
    return float((f.signs[:, None] * gbar * oracle.cayley_average(rest, sys.inner)).mean())


def test_middle_start_identity_is_exact_on_the_witness(witness):
    # nonzero signed means that both sides reach exactly; a via side that
    # undoes the shift in place of applying it misses by 5e-6 or more
    for sup in ({0, 1, 2}, {0, 3, 5}, {2, 6, 7}):
        f = SignedFn.from_support(8, sup)
        tables = dp_gk(witness, f, 7)
        for k in (6, 7):
            chk = check_middle_start_identity(witness, f, k, tables)
            assert chk.direct != 0.0
            assert chk.residual == 0.0 and chk.passed
            assert chk.via == full_transform_via(witness, f, k, tables), (sup, k)
        # without tables the check runs its own levels and agrees
        assert check_middle_start_identity(witness, f, 6) == check_middle_start_identity(witness, f, 6, tables)


def test_identity_band_refuses_blocks_read_in_the_wrong_order(witness, flagship, monkeypatch):
    # the verdict is residual <= n * u * sum |terms| over the two sums, not
    # an absolute slack.  Reading blocks 2..s of G^ and R^ in the wrong
    # order (each permuted before the check's transposed view reads it,
    # which leaves the view's own order) misses by 2.3e-11, 1.4e-11 and
    # 2.6e-12, which the former 1e-9 passed; the true residuals are 0
    # there and 5.4e-20 on the flagship at k = 12
    import widewalk.amplify as amplify

    s, n_a, n_b = witness.params.s, witness.num_outer, witness.num_inner
    blocks = (0, 1, *range(s, 1, -1))  # the check's view, its own inverse
    cases = [((0, 1, 2), 7, 2.3e-11), ((0, 1, 2), 8, 1.4e-11), ((2, 6, 7), 7, 2.6e-12)]
    tables = {sup: dp_gk(witness, SignedFn.from_support(8, sup), 8) for sup in ((0, 1, 2), (2, 6, 7))}
    for sup, k, _ in cases:
        chk = check_middle_start_identity(witness, SignedFn.from_support(8, sup), k, tables[sup])
        assert chk.passed and chk.residual == 0.0
    f = SignedFn.from_support(4, {0})
    chk = check_middle_start_identity(flagship, f, 12, dp_gk(flagship, f, 12))
    assert chk.passed and 0.0 < chk.residual < 1e-19
    loop = amplify._wide_levels

    def misread(sys, f, levels, backward=False):
        for k, x, w in loop(sys, f, levels, backward):
            if k == levels:  # the level the check reads, blocks 2..s permuted
                np.copyto(w.reshape(x.shape), x.transpose(blocks))
                np.copyto(x, w.reshape(x.shape))
            yield k, x, w

    monkeypatch.setattr(amplify, "_wide_levels", misread)
    for sup, k, residual in cases:
        wrong = list(tables[sup])
        rest = wrong[k - s].values.reshape((n_a,) + (8,) * s).transpose(blocks)
        wrong[k - s] = DpTable(rest.reshape(n_a, n_b), k - s, "g")  # a C-order copy
        chk = check_middle_start_identity(witness, SignedFn.from_support(8, sup), k, wrong)
        assert not chk.passed and residual / 2 < chk.residual < 1e-9, (sup, k, chk.residual)


def test_eps_sequence_nonincreasing_on_admissible_instance(mono_system):
    # empirical observation, recorded as a regression: when the
    # hypotheses hold, the measured mean sequence has never increased.
    # No checker assumes this.
    base = LinearCode(3, 8, [0b11, 0b1100, 0b110000])
    f = AmplifiedCode(base, mono_system, 12).f_for_message(1)
    eps = [moments(t).eps for t in dp_gk(mono_system, f, 12)]
    assert eps[0] == 0.5
    for k in range(1, 13):
        assert eps[k] <= eps[k - 1] + 1e-15, k


def test_induction_arithmetic_grid():
    report = verify_induction_arithmetic(
        [0.01, 0.05, 0.1, 0.2, 0.25], [5, 8, 16, 32], 200
    )
    assert report.spot_checks_passed
    assert report.all_passed
    assert len(report.rows) == 20
    assert all(r.valid for r in report.rows)


def test_induction_arithmetic_matches_level_k_oracle():
    # independent oracle: the closed forms put into the original level-k
    # recurrences (check_induction_step's docstring) at 50 digits; k
    # cancels, so every level must give the k-free margin.  The default
    # grid is bound by the sigma recurrence; the rows outside the validity
    # region include some bound by the eps recurrence.
    lambdas, s_values = [0.01, 0.05, 0.1, 0.2, 0.25], [5, 8, 16, 32]
    report = verify_induction_arithmetic(lambdas, s_values, 200)
    assert verify_induction_arithmetic(lambdas, s_values, 33).rows == report.rows
    outside = verify_induction_arithmetic([0.3, 1.0], [2, 4, 5], 200)
    eps_bound = 0
    with mpmath.workdps(50):
        for row in report.rows + outside.rows:
            lam, s = mpmath.mpf(row.lam), row.s
            c = (2 * lam) ** (1 - mpmath.mpf(4) / s)

            def eps(j):
                return c**j

            def sig(j):
                return c ** (j - 2)

            for k in (s + 1, s + 7, 200):
                rhs_eps = (2 * lam) ** s * (eps(k - s) + 3 * sig(k - s)) / 2
                rhs_sig_sq = (
                    (2 * lam) ** (s - 2)
                    * (eps(k - 2) + lam * sig(k - 1))
                    * (eps(k - s) + (2 + lam) * sig(k - s))
                    / 2
                    + lam**s * sig(k - s) * sig(k - 1)
                    + lam**2 * sig(k - 1) ** 2
                )
                log_eps = mpmath.log(rhs_eps / eps(k))
                log_sig_sq = mpmath.log(rhs_sig_sq / sig(k) ** 2)
                margin = max(log_eps, log_sig_sq)
                assert abs(float(margin) - row.max_log_violation) <= 1e-12, (row, k)
                assert row.passed == (margin <= 0)
                eps_bound += log_eps > log_sig_sq
    assert eps_bound > 0


def test_induction_arithmetic_at_huge_s_stays_finite():
    # 2^-s and c^-s are far outside double range at s = 10^6; the margin
    # tends to log(23/32), the sigma ratio at lam = 1/4 as s -> infinity
    (row,) = verify_induction_arithmetic([0.25], [10**6], 10**6 + 1).rows
    assert row.valid and row.passed
    assert abs(row.max_log_violation - (-0.3302)) <= 1e-4
    assert abs(row.max_log_violation - math.log(23 / 32)) <= 1e-5


def test_induction_arithmetic_needs_a_level_above_every_s():
    verify_induction_arithmetic([0.25], [5, 8], 9)
    for kmax in (8, 5, 3):
        with pytest.raises(ValueError, match=f"below kmax={kmax}"):
            verify_induction_arithmetic([0.25], [5, 8], kmax)


def test_induction_arithmetic_flags_invalid_region():
    # lam > 1/4 and s < 5 are outside the proof's region: evaluated but
    # excluded from the pass gate
    report = verify_induction_arithmetic([0.3], [4, 8], 50)
    assert all(not r.valid for r in report.rows)
    assert report.all_passed  # only invalid rows present


def test_induction_arithmetic_validity_region_ends_at_s_5_and_a_quarter():
    # the proof covers 0 < lam <= 1/4 and s >= 5: both edges are valid, the
    # s below and the float above 1/4 are not
    up = math.nextafter(0.25, 1.0)
    rows = verify_induction_arithmetic([0.25, up], [4, 5], 50).rows
    assert {(r.lam, r.s): r.valid for r in rows} == {
        (0.25, 4): False, (0.25, 5): True, (up, 4): False, (up, 5): False,
    }


def test_moment_report_serialization(k16, capsys):
    # a MomentReport is written out only by the CLI's renderer
    from widewalk.cli import _emit_moment

    report = check_pure_walk_bounds(k16, SignedFn.balanced(16), 3)
    args = argparse.Namespace(
        command="verify", subcommand="base-case", format="csv", out=None,
        seed=0, budget=None, workers=None,
    )
    assert _emit_moment(args, {}, report) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "k,epsilon,sigma,bound_eps,bound_sigma,pass,vacuous"
    assert len(lines) == 5
    args.format = "json"
    assert _emit_moment(args, {}, report) == 0
    payload = json.loads(capsys.readouterr().out)["report"]
    assert payload["schema_version"] == 1
    assert payload["all_passed"] is True
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["k"] == 1
