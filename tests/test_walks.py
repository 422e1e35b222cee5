"""Wide walks on the replacement system: stepping, enumeration, sampling,
and the exact distribution checks, held against the scalar walk rule of
walk_oracle.
"""

import itertools
import math
import os
import subprocess
from collections import Counter
from fractions import Fraction
from pathlib import Path
from sys import executable

import numpy as np
import pytest

from widewalk import (
    BudgetExceeded,
    ReplacementSystem,
    WalkParams,
    build_aghp,
    build_complete_selfloop,
    check_first_coord_uniform,
    check_local_invertibility,
    check_pseudorandomness,
    middle_start_distribution_equal,
)
from widewalk.code import AmplifiedCode, LinearCode, encode
from widewalk.graphs import CayleyGraph
from widewalk import walks
from widewalk.walks import SWalk, choice_grid, multiset_tv

import walk_oracle as oracle
from conftest import traced_peak


def tiny_system():
    params = WalkParams(m=1, s=2, ell=1)
    return ReplacementSystem(build_complete_selfloop(1), build_aghp(2, 1), params)


def sys_22():
    params = WalkParams(m=2, s=2, ell=2)
    return ReplacementSystem(build_complete_selfloop(2), build_aghp(4, 2), params)


def sys_13():
    # s = 3, so the backward shift differs from the forward one
    params = WalkParams(m=1, s=3, ell=1)
    return ReplacementSystem(build_complete_selfloop(1), build_aghp(3, 1), params)


def test_walk_params_validation():
    WalkParams(m=1, s=2, ell=1)
    with pytest.raises(ValueError):
        WalkParams(m=0, s=2, ell=1)
    with pytest.raises(ValueError):
        WalkParams(m=1, s=1, ell=1)
    with pytest.raises(ValueError):
        WalkParams(m=1, s=2, ell=0)
    with pytest.raises(ValueError):
        WalkParams(m=1, s=2, ell=2)  # 2*ell > r


def test_walk_params_derived():
    p = WalkParams(m=2, s=5, ell=5)
    assert p.r == 10
    assert p.d_outer == 4
    assert p.d_inner == 1024


def sys_23():
    params = WalkParams(m=2, s=3, ell=3)
    return ReplacementSystem(build_complete_selfloop(2), build_aghp(6, 3), params)


def _seed_rows(sys, t):
    seeds = choice_grid(sys.num_outer, sys.num_inner, *(sys.params.d_inner,) * (t - 1))
    return seeds[:, 0], seeds[:, 1], seeds[:, 2:]


def test_shift_example():
    # m=1, s=3: block tuple (1, 0, 1) shifts forward to (0, 1, 1)
    sys = sys_13()
    assert sys.shift(0b101) == oracle.shift(0b101, 1, 3) == 0b110
    assert sys.unshift(0b110) == oracle.shift(0b110, 1, 3, "backward") == 0b101


def test_shift_bijection_and_order():
    for sys in (sys_13(), sys_22(), sys_23()):
        m, s = sys.params.m, sys.params.s
        fwd = sys.shift(np.arange(sys.num_inner))
        assert sorted(fwd.tolist()) == list(range(sys.num_inner))
        # s applications come back around
        cur = np.arange(sys.num_inner)
        for _ in range(s):
            cur = fwd[cur]
        assert cur.tolist() == list(range(sys.num_inner))
        for b in range(sys.num_inner):
            assert fwd[b] == sys.shift(b) == oracle.shift(b, m, s)
            assert oracle.shift(oracle.shift(b, m, s), m, s, "backward") == b


def test_shift_moves_blocks():
    sys = sys_23()
    fwd = sys.shift(np.arange(sys.num_inner))
    for b in range(sys.num_inner):
        assert fwd[b] == oracle.shift(b, 2, 3)
        blocks = [(b >> 2 * j) & 0b11 for j in range(3)]
        assert [(int(fwd[b]) >> 2 * j) & 0b11 for j in range(3)] == blocks[1:] + blocks[:1]


def test_block_indexing():
    # block 1 is the low m bits: the rotation reads it, and one forward
    # shift brings block 2 down into its place
    sys = sys_22()
    b = 0b1110  # blocks (low first): 10, 11
    assert sys.hop(b) == sys.outer.generators[0b10]
    assert sys.hop(sys.shift(b)) == sys.outer.generators[0b11]


def test_system_wiring_validation():
    params = WalkParams(m=2, s=2, ell=2)
    with pytest.raises(ValueError):
        # outer degree 2 but 2**m = 4
        ReplacementSystem(build_complete_selfloop(1), build_aghp(4, 2), params)
    with pytest.raises(ValueError):
        # inner lives over F_2^2, needs F_2^4
        ReplacementSystem(build_complete_selfloop(2), build_aghp(2, 1), params)
    # every walk draws its inner steps from 4**ell indices: a degree-16
    # inner graph at ell = 1 walked only its first 4 generators, and a
    # degree-4 one at ell = 2 indexed past its generators
    for inner, ell in ((build_complete_selfloop(4), 1), (build_aghp(4, 1), 2)):
        with pytest.raises(ValueError, match=f"inner degree {inner.degree} != 4[*][*]ell = {4 ** ell}"):
            ReplacementSystem(build_complete_selfloop(2), inner, WalkParams(m=2, s=2, ell=ell))


def test_rotation_uses_block_one():
    sys = sys_22()
    for a in range(sys.num_outer):
        for b in range(sys.num_inner):
            expect = a ^ int(sys.outer.generators[b & 0b11])
            assert a ^ sys.hop(b) == oracle.rotation(sys, a, b) == expect


def test_walk_tables_invert_and_select_the_outer_generators():
    for sys in (tiny_system(), sys_13(), sys_22(), sys_23(), sys_128()):
        # the system stores no array: the rule is computed on each call
        assert vars(sys).keys() == {"outer", "inner", "params"}
        n_b, dtype = sys.num_inner, np.min_scalar_type(max(sys.num_outer, sys.num_inner) - 1)
        b = np.arange(n_b, dtype=dtype)
        hop, shift, unshift = sys.hop(b), sys.shift(b), sys.unshift(b)
        assert np.array_equal(unshift[shift], b)
        assert np.array_equal(shift[unshift], b)
        assert np.array_equal(unshift, np.argsort(shift))
        assert np.array_equal(hop[: sys.params.d_outer], sys.outer.generators)
        for table in (hop, shift, unshift):
            assert table.dtype == dtype


def test_walk_expansion_memory_does_not_grow_with_the_outer_graph():
    # 2**14 outer vertices and 2**10 inner ones: an (n_A, n_B) int64
    # rotation table would take 128 MiB
    def system():
        outer = CayleyGraph(14, [0, 1, 2, 3])
        return ReplacementSystem(outer, build_aghp(10, 5), WalkParams(m=2, s=5, ell=5))

    for call in (
        lambda sys: check_pseudorandomness(sys, 1),
        lambda sys: check_first_coord_uniform(sys, 1),
        lambda sys: middle_start_distribution_equal(sys, 1, 0),
        lambda sys: sys.walk_from_seed(5, 6, ()),
    ):
        sys = system()
        assert traced_peak(lambda: call(sys)) < 4 << 20
    amp, bits = AmplifiedCode(LinearCode(2, 4, [0b0011, 0b0101]), system(), 1), []
    used = traced_peak(lambda: bits.append(encode(amp, 1)))
    assert bits[0].size == 1 << 24 and used < 2 * bits[0].nbytes


def test_walk_rule_needs_no_memory_that_grows_with_the_inner_graph():
    # hop, shift and unshift are computed, not tabulated: on (8, 5, 5) the
    # inner graph has 2**40 vertices, and on (4, 6, 5) one uint32 table
    # over its 2**24 would take 64 MiB
    for m, s, ell in ((8, 5, 5), (4, 6, 5)):
        sys = ReplacementSystem(build_complete_selfloop(m), build_aghp(m * s, ell), WalkParams(m, s, ell))
        rng = np.random.default_rng(3)
        a, b = int(rng.integers(sys.num_outer)), int(rng.integers(sys.num_inner))
        u = rng.integers(sys.params.d_inner, size=(1, 4))
        middle = (a, b, int(u[0, 0]), u[0, 1:].tolist())
        for draw in (lambda: oracle.sample_swalk(sys, 5, rng), lambda: sys.expand(a, b, u, pivot=2)):
            drawn = []
            peak = traced_peak(lambda: drawn.append(draw()))
            w = drawn.pop()
            if isinstance(w, SWalk):
                assert oracle.walk(sys, *w.seed) == (w.a_vertices, w.b_vertices), (m, s, ell)
            else:
                got = tuple(tuple(x[0].tolist()) for x in w)
                assert got == oracle.middle_start(sys, 5, 2, *middle), (m, s, ell)
            assert peak < 2 << 20, (m, s, ell, peak)
        assert check_local_invertibility(sys)


def test_vertex_dtype_is_the_inner_word_dtype(flagship, witness, skew16):
    # r = m*s bits hold every outer vertex of these systems, so the vertex
    # dtype is the inner graph's word dtype, and expand gathers from the
    # inner words themselves: a copy of AGHP(16, 8)'s would be 128 KiB
    wide = ReplacementSystem(build_complete_selfloop(2), build_aghp(16, 8), WalkParams(2, 8, 8))
    skewed = ReplacementSystem(skew16, build_aghp(16, 5), WalkParams(4, 4, 5))
    for sys in (flagship, witness, skewed, wide):
        assert sys._dtype == sys.inner.generators.dtype, sys.inner.name
    assert traced_peak(lambda: wide.expand(0, 0, np.zeros((1, 4), np.uint8))) < 16 << 10
    # an outer graph wider than the inner one sets the vertex dtype
    narrow = ReplacementSystem(CayleyGraph(9, [0, 1]), build_aghp(2, 1), WalkParams(1, 2, 1))
    assert narrow._dtype == np.uint16


def test_choice_grid_is_in_the_smallest_unsigned_dtype():
    # rows in C order, values in the smallest unsigned dtype that holds
    # them: uint8 up to 256 choices (int64 would be 6 MiB at 64**3 rows)
    for sizes, dtype in (((64, 64, 64), np.uint8), ((3, 256), np.uint8),
                         ((257, 2), np.uint16), ((2, 1), np.uint8), ((), np.uint8)):
        grid = choice_grid(*sizes)
        assert grid.dtype == dtype, sizes
        assert grid.tolist() == [list(row) for row in itertools.product(*map(range, sizes))]
    assert traced_peak(lambda: choice_grid(64, 64, 64)) <= 1 << 20


def test_rotation_is_involution():
    # stepping twice along the same block-1 index returns to the start;
    # this is the local invertibility the backward generation relies on
    for sys in (tiny_system(), sys_22()):
        assert check_local_invertibility(sys)


def test_walk_from_seed_hand_trace():
    sys = tiny_system()
    # inner AGHP(2,1) generators: pairs (x, y) over GF(2)
    assert sys.inner.generators.tolist() == [0, 1, 0, 3]
    w = sys.walk_from_seed(0, 0b01, (3,))
    # b_2 = shift(b_1 ^ u_3) = shift(01 ^ 11) = shift(10) = 01
    assert w.b_vertices == (0b01, 0b01)
    # a_1 = a_0 ^ block_1(b_1) = 0 ^ 1, a_2 = a_1 ^ block_1(b_2) = 1 ^ 1
    assert w.a_vertices == (0, 1, 0)
    assert w.seed == (0, 1, (3,))


def test_inner_step_round_trip():
    # the backward inner step undoes the shift, then takes the same
    # generator
    sys = sys_22()
    for b in range(sys.num_inner):
        assert sys.unshift(b) == oracle.shift(b, 2, 2, "backward")
        for u in range(sys.params.d_inner):
            nxt = oracle.inner_step(sys, b, u)
            assert sys.unshift(nxt) ^ sys.inner.generators[u] == b
            assert oracle.inner_step_back(sys, nxt, u) == b


def test_a_backward_walk_is_the_forward_walk_of_the_reversed_system(g8_system, flagship):
    # every seed at t = s + 1 on s222, g8 (both s = 2, where sigma is the
    # identity) and the s = 3 system, and 4096 seeded rows of the flagship
    # (s = 5): the walk read from its end with the generator indices
    # reversed, on the block-reversed system, is the walk reversed, with
    # sigma applied to its inner vertices
    cases = [(sys, sys.params.s + 1, _seed_rows(sys, sys.params.s + 1))
             for sys in (sys_22(), g8_system, sys_13())]
    rng = np.random.default_rng(32)
    n_a, n_b, d = flagship.num_outer, flagship.num_inner, flagship.params.d_inner
    seeds = rng.integers(n_a, size=4096), rng.integers(n_b, size=4096), rng.integers(d, size=(4096, 5))
    cases.append((flagship, 6, seeds))
    for sys, t, (a0, b1, u) in cases:
        rev, sigma = sys._reversed()
        A, B = sys.expand(a0, b1, u)
        RA, RB = rev.expand(A[:, t], sigma[B[:, t - 1]], u[:, ::-1])
        assert np.array_equal(RA, A[:, ::-1]), sys.params
        assert np.array_equal(RB, sigma[B[:, ::-1]]), sys.params
        assert np.array_equal(sigma[sigma], np.arange(sys.num_inner))
        # the seeded table is the one the reversed generators build
        fresh = CayleyGraph(rev.inner.dim, rev.inner.generators, multigraph=rev.inner.multigraph)
        assert np.array_equal(rev.inner.character_table, fresh.character_table)
        # reversing twice gives back the inner graph, generator for generator
        twice = rev._reversed()[0].inner
        assert twice == sys.inner and twice.generators.dtype == sys.inner.generators.dtype


def test_seed_count():
    sys = tiny_system()
    assert sys.seed_count(1) == 2 * 4
    assert sys.seed_count(3) == 2 * 4 * 16
    with pytest.raises(ValueError):
        sys.seed_count(0)


def test_enumeration_count_and_validity():
    sys = tiny_system()
    a0, b1, u = _seed_rows(sys, 3)
    A, B = sys.expand(a0, b1, u)
    assert len(A) == sys.seed_count(3)
    # seeds are distinct and walks are consistent chains
    assert len({tuple(row) for row in np.column_stack([a0, b1, u]).tolist()}) == len(A)
    for a_row, b_row in zip(A.tolist(), B.tolist()):
        for j in range(3):
            assert a_row[j + 1] == oracle.rotation(sys, a_row[j], b_row[j])
        for j in range(2):
            # some generator index explains each inner transition
            diffs = oracle.shift(b_row[j + 1], 1, 2, "backward") ^ b_row[j]
            assert diffs in sys.inner.generators


def test_enumeration_budget():
    # the exact enumeration refuses with the computed count before expanding
    sys = sys_22()
    with pytest.raises(BudgetExceeded) as info:
        middle_start_distribution_equal(sys, 5, 2, budget=1000)
    assert info.value.needed == 2 * sys.seed_count(5)


def test_sampler_matches_enumeration():
    # fixed seed; worst per-walk z-score measured at 2.39
    sys = tiny_system()
    rng = np.random.default_rng(1234)
    n_draws = 20000
    counts = Counter()
    for _ in range(n_draws):
        w = oracle.sample_swalk(sys, 3, rng)
        counts[(w.a_vertices, w.b_vertices)] += 1
    space = Counter((a, b) for _, a, b in oracle.walks(sys, 3))
    total = sum(space.values())
    assert set(counts) <= set(space)
    for key, mult in space.items():
        p = mult / total
        sd = (p * (1 - p) / n_draws) ** 0.5
        assert abs(counts[key] / n_draws - p) <= 4 * sd, key


def test_sampler_draws_are_pinned():
    # the first draws from default_rng(0), as the scalar sampler made them:
    # a change in how the sampler consumes the rng shows here
    sys = sys_22()
    rng = np.random.default_rng(0)
    assert [oracle.sample_swalk(sys, t, rng) for t in (1, 3, 4)] == [
        SWalk((3, 1), (10,), (3, 10, ())),
        SWalk((2, 2, 3, 3), (4, 1, 4), (2, 4, (4, 0))),
        SWalk((0, 0, 0, 2, 0), (0, 0, 14, 2), (0, 0, (2, 13, 10))),
    ]


def test_sampler_start_pin():
    # the walk starts at the seed's (a_0, b_1) and expands from its seed
    sys = sys_22()
    rng = np.random.default_rng(0)
    for t in range(1, 5):
        w = oracle.sample_swalk(sys, t, rng)
        assert (w.a_vertices[0], w.b_vertices[0]) == w.seed[:2]
        assert sys.walk_from_seed(*w.seed) == w
    with pytest.raises(ValueError, match="t must be at least 1"):
        oracle.sample_swalk(sys, 0, rng)


def test_pseudorandomness_within_window():
    # wide-walk outer trajectories are exactly the pure-walk distribution
    # for up to s+1 vertices
    sys = sys_22()
    for k in (1, 2, 3):
        chk = check_pseudorandomness(sys, k)
        assert chk.equal
        assert chk.tv_distance == 0.0


def test_pseudorandomness_breaks_past_window():
    # one vertex past the window the distributions separate; the gap is a
    # frozen regression value, exact
    sys = sys_22()
    chk = check_pseudorandomness(sys, 4)
    assert not chk.equal
    assert chk.tv_distance == float(Fraction(1, 16))
    # the largest single-row gap, not a copy of the TV
    assert chk.max_deviation == float(Fraction(3, 1024))


def test_pseudorandomness_past_window_on_an_outer_graph_of_uint64_words():
    # 2**40 outer vertices take uint64 words; past the window the keys
    # outgrow the r bits of the vertex dtype and are widened, and the
    # distances are those of the same four words on the 4-vertex graph
    outer = CayleyGraph(40, (0, 1, 2, 3))
    sys = ReplacementSystem(outer, build_aghp(4, 2), WalkParams(m=2, s=2, ell=2))
    for k in (3, 4):
        wide = check_pseudorandomness(sys, k, budget=1 << 62)
        assert wide == check_pseudorandomness(sys_22(), k), k


def test_pseudorandomness_validation_and_budget():
    sys = sys_22()
    with pytest.raises(ValueError):
        check_pseudorandomness(sys, 0)
    with pytest.raises(BudgetExceeded):
        check_pseudorandomness(sys, 3, budget=10)


def test_pseudorandomness_budget_counts_what_the_check_expands_and_holds():
    # the check expands the 16 * 16 walks from a_0 = 0 and holds one
    # histogram of 2**(2*2) cells, whatever |A|: 2**20 outer vertices fit
    # the default budget
    sys = ReplacementSystem(CayleyGraph(20, (1, 2, 4, 8)), build_aghp(4, 2), WalkParams(m=2, s=2, ell=2))
    assert check_pseudorandomness(sys, 3).equal
    assert check_pseudorandomness(sys, 3, budget=272).equal
    with pytest.raises(BudgetExceeded, match="needs 272 items, budget is 271"):
        check_pseudorandomness(sys, 3, budget=271)


def test_first_coord_uniform():
    sys = sys_22()
    for k in (1, 2):
        chk = check_first_coord_uniform(sys, k)
        assert chk.equal
        assert chk.max_deviation == 0.0
    with pytest.raises(ValueError):
        check_first_coord_uniform(sys, 3)  # k > s
    with pytest.raises(BudgetExceeded):
        check_first_coord_uniform(sys, 2, budget=10)


def test_first_coord_uniform_larger_window():
    params = WalkParams(m=2, s=3, ell=3)
    sys = ReplacementSystem(build_complete_selfloop(2), build_aghp(6, 3), params)
    for k in (1, 2, 3):
        assert check_first_coord_uniform(sys, k).equal


def test_first_coord_uniform_fails_on_a_walk_that_does_not_shift(monkeypatch):
    # with a rotation that leaves b as it is, block 1 of b_k is block 1 of
    # b_1 ^ u_2 ^ ... ^ u_k: no longer uniform.  The streamed histogram
    # gives the distance and the largest gap that multiset_tv gives on the
    # full rows of the same broken expansion
    def no_rotate(self, b, k, out=None):
        if out is None:
            return b
        out[...] = b
        return out

    monkeypatch.setattr(ReplacementSystem, "_rotate", no_rotate)
    sys = ReplacementSystem(build_complete_selfloop(2), build_aghp(6, 3), WalkParams(2, 3, 3))
    for k, tv, gap in ((2, 0.0625, 0.015625), (3, 0.09765625, 0.0087890625)):
        seeds = choice_grid(sys.num_inner, *(sys.params.d_inner,) * (k - 1))
        _, B = sys.expand(0, seeds[:, 0], seeds[:, 1:])
        want = multiset_tv(B & 3, choice_grid(*(4,) * k))
        chk = check_first_coord_uniform(sys, k)
        assert not chk.equal, k
        assert (chk.tv_distance, chk.max_deviation) == tuple(map(float, want)) == (tv, gap), k


def test_first_coord_uniform_holds_one_block_of_walks():
    # (5, 3, 2) at k = 3 enumerates 2**23 walks, 288 MiB traced if every
    # row were held at once; one block of 2**16 walks and the 2**15-cell
    # histogram take about 3 MiB
    params = WalkParams(m=5, s=3, ell=2)
    sys = ReplacementSystem(build_complete_selfloop(5), build_aghp(15, 2), params)
    assert traced_peak(lambda: check_first_coord_uniform(sys, 3)) < 8 << 20


def test_pseudorandomness_holds_one_block_of_walks():
    # (4, 3, 2) at k = 4 enumerates 2**20 wide trajectories; holding and
    # sorting one key a row took 30 MiB traced, one block of walks and the
    # 2**12-cell histogram take about 3 MiB
    params = WalkParams(m=4, s=3, ell=2)
    sys = ReplacementSystem(build_complete_selfloop(4), build_aghp(12, 2), params)
    assert traced_peak(lambda: check_pseudorandomness(sys, 4)) < 8 << 20


def test_walk_blocks_tile_the_seeds_in_blocks_of_at_most_2_16_walks():
    # (1, 2, 1) has 4**(t-1) walks per b_1: at t = 9 that is one block per
    # b_1, and past it the first generator axis (t = 10) or the first two
    # (t = 11) are sliced with the axes before them held fixed
    sys = tiny_system()
    for t in (1, 2, 9, 10, 11):
        sizes = (sys.num_inner, *(sys.params.d_inner,) * (t - 1))
        at = 0
        for start, A, B in walks._walk_blocks(sys, t):
            assert start == at and 0 < len(A) <= 1 << 16, (t, start)
            for row in (0, len(A) - 1):
                b1, *u = np.unravel_index(start + row, sizes)
                w = sys.walk_from_seed(0, int(b1), [int(x) for x in u])
                got = tuple(A[row].tolist()), tuple(B[row].tolist())
                assert got == (w.a_vertices, w.b_vertices), (t, start)
            at += len(A)
        assert at == math.prod(sizes), t


def test_encode_holds_one_block_of_walks_past_2_16_walks_per_b1():
    # (1, 2, 1) at t = 10 has 2**18 walks per b_1: blocks of one b_1 each
    # took 16 MiB traced, blocks of 2**16 walks take about 7 MiB
    amp, bits = AmplifiedCode(LinearCode(1, 2, [0b11]), tiny_system(), 10), []
    assert traced_peak(lambda: bits.append(encode(amp, 1))) < 10 << 20
    assert bits[0].size == amp.block_length == 1 << 21


def test_middle_start_distribution_all_pivots():
    sys = tiny_system()
    for i in (0, 1, 2):
        chk = middle_start_distribution_equal(sys, 3, i)
        assert chk.equal, i
        assert chk.tv_distance == 0.0 and chk.max_deviation == 0.0
    # t=1 edge case: the only pivot is 0
    chk = middle_start_distribution_equal(sys, 1, 0)
    assert chk.equal
    # a bad pivot or t is refused before the budget is weighed or the
    # choice grid is built
    for t, i in ((3, 3), (3, -1), (0, 0)):
        with pytest.raises(ValueError):
            middle_start_distribution_equal(sys, t, i, budget=0)


def sys_128():
    # 128 outer vertices: more than one 64-lane group of starts
    outer = CayleyGraph(7, (1, 2), name="g128")
    return ReplacementSystem(outer, build_aghp(2, 1), WalkParams(m=1, s=2, ell=1))


def sys_repeated_words():
    # four outer generators that are two words, each twice
    outer = CayleyGraph(dim=2, generators=(1, 1, 2, 2), multigraph=True)
    return ReplacementSystem(outer, build_aghp(4, 1), WalkParams(2, 2, 1))


def test_checks_from_start_zero_equal_the_all_starts_enumeration():
    for sys in (tiny_system(), sys_13(), sys_22(), sys_128(), sys_repeated_words()):
        for k in (1, 2, 3, 4):
            assert check_pseudorandomness(sys, k) == oracle.pseudorandomness_all_starts(sys, k)
        for t in (1, 2, 3):
            for i in range(t):
                assert middle_start_distribution_equal(sys, t, i) == \
                    oracle.middle_start_all_starts(sys, t, i), (t, i)
    # repeated words at k = 4: counting raw generator indices, not words,
    # would give 1/4 and 3/256
    chk = check_pseudorandomness(sys_repeated_words(), 4)
    assert (chk.tv_distance, chk.max_deviation) == (1 / 8, 1 / 32)


def test_middle_start_translation_keeps_a_nonzero_distance(monkeypatch):
    # reversing the B columns of every middle-start walk makes the two
    # multisets differ; the a_0 = 0 comparison must still give the full
    # enumeration's TV and largest gap (the gap scaled by 1/|A|)
    expand = ReplacementSystem.expand

    def reversed_middle(sys, a, b, u, pivot=None):
        if pivot is None:
            return expand(sys, a, b, u)
        A, B = expand(sys, a, b, u, pivot=pivot)
        return A, B[:, ::-1]

    monkeypatch.setattr(ReplacementSystem, "expand", reversed_middle)
    for sys in (sys_22(), sys_128()):
        for t in (2, 3):
            for i in range(t):
                chk = middle_start_distribution_equal(sys, t, i)
                assert not chk.equal and chk.max_deviation > 0, (t, i)
                assert chk == oracle.middle_start_all_starts(sys, t, i), (t, i)


def test_invertibility_holds_with_selfloop_multigraph():
    # generators over F_2 are always self-inverse, so the check holds even
    # for multigraphs with repeated self-loops
    outer = CayleyGraph(dim=1, generators=(0, 1), multigraph=True)
    params = WalkParams(m=1, s=2, ell=1)
    sys = ReplacementSystem(outer, build_aghp(2, 1), params)
    assert check_local_invertibility(sys)


def test_walk_expander_matches_seed_enumeration():
    for sys, tmax in ((tiny_system(), 4), (sys_22(), 3), (sys_13(), 4)):
        for t in range(1, tmax + 1):
            A, B = sys.expand(*_seed_rows(sys, t))
            walks = list(oracle.walks(sys, t))
            assert len(walks) == len(A)
            for (_, a, b), a_row, b_row in zip(walks, A.tolist(), B.tolist()):
                assert (a, b) == (tuple(a_row), tuple(b_row))


def test_expand_in_small_gather_blocks_gives_the_same_bytes(monkeypatch):
    cases = [(sys, t, _seed_rows(sys, t)) for sys, t in ((sys_22(), 3), (sys_13(), 4))]
    whole = [[sys.expand(*rows, pivot=i) for i in range(t)] for sys, t, rows in cases]
    # blocks of 5 rows: every step crosses block edges and leaves 4 rows over
    monkeypatch.setattr(walks, "GATHER_ROWS", 5)
    for (sys, t, rows), unblocked in zip(cases, whole):
        for i in range(t):
            for blocked, want in zip(sys.expand(*rows, pivot=i), unblocked[i]):
                assert blocked.tobytes() == want.tobytes()


def test_expand_peaks_near_its_output():
    # on 2**20 uint16 walks of t = 4, A and B hold 9 rows and the rotation
    # takes one more; a gather that copied a whole column into intp would
    # add 4 rows, so each gathers one block of rows at a time
    sys = ReplacementSystem(build_complete_selfloop(2), build_aghp(10, 5), WalkParams(2, 5, 5))
    n = 1 << 20
    rng = np.random.default_rng(1)
    u = rng.integers(0, sys.params.d_inner, (n, 3)).astype(np.uint8)
    b = rng.integers(0, sys.num_inner, n).astype(np.uint16)
    for pivot in (0, 2):
        assert traced_peak(lambda: sys.expand(0, b, u, pivot=pivot)) <= 10.5 * 2 * n, pivot


def test_walk_from_seed_matches_oracle():
    for sys in (tiny_system(), sys_22(), sys_13()):
        for t in (1, 2, 3):
            for seed, a, b in oracle.walks(sys, t):
                w = sys.walk_from_seed(*seed)
                assert (w.a_vertices, w.b_vertices, w.seed) == (a, b, seed)


def test_middle_start_expansion_matches_scalar_reference():
    for sys, tmax in ((tiny_system(), 4), (sys_22(), 3), (sys_13(), 4)):
        for t in range(1, tmax + 1):
            a, b, u = _seed_rows(sys, t)
            for i in range(t):
                A, B = sys.expand(a, b, u, pivot=i)
                for n in range(len(A)):
                    us = u[n].tolist()
                    u_edge, draws = (us[0], us[1:]) if us else (0, ())
                    expect = oracle.middle_start(sys, t, i, int(a[n]), int(b[n]), u_edge, draws)
                    assert (tuple(A[n].tolist()), tuple(B[n].tolist())) == expect
            with pytest.raises(ValueError):
                sys.expand(a, b, u, pivot=t)


def test_middle_start_sample_seed_expands_to_the_walk():
    # a backward step b_j = unshift(b_(j+1)) ^ u takes the same generator
    # index as the forward step b_(j+1) = shift(b_j ^ u), so the backward
    # indices, reversed, then the forward ones, form the standard-order seed
    # that expands from (a_0, b_1) to the same walk, whatever the pivot;
    # AGHP(4,2) repeats generators, so the walk alone does not give the
    # indices back
    for sys, tmax in ((tiny_system(), 4), (sys_22(), 3), (sys_13(), 4)):
        for t in range(1, tmax + 1):
            a, b, u = _seed_rows(sys, t)
            for i in range(t):
                A, B = sys.expand(a, b, u, pivot=i)
                forward = t - max(i, 1)
                seed_u = np.hstack([u[:, forward:][:, ::-1], u[:, :forward]])
                for got, want in zip(sys.expand(A[:, 0], B[:, 0], seed_u), (A, B)):
                    assert np.array_equal(got, want), (t, i)


def test_multiset_tv_hand_values():
    # P puts 3/4 on x and 1/4 on y; Q puts 1/3 on each of x, z and w.
    # Entries above 255 need two bytes, and z is x with its bytes swapped.
    x, y, z, w = [1, 256], [0, 0], [256, 1], [3, 3]
    p = np.array([x, x, x, y])
    q = np.array([x, z, w])
    tv, gap = multiset_tv(p, q)
    # (|3/4 - 1/3| + 1/4 + 1/3 + 1/3) / 2 and the largest single gap
    assert (tv, gap) == (Fraction(2, 3), Fraction(5, 12))
    assert multiset_tv(q, p) == (tv, gap)
    # the same distribution at another multiplicity is at distance 0
    assert multiset_tv(p, np.concatenate([p, p[::-1]])) == (0, 0)


def counter_tv(p, q):
    """Reference: exact TV and largest gap from Counters over row tuples."""
    cp, cq = Counter(map(tuple, p.tolist())), Counter(map(tuple, q.tolist()))
    gaps = [abs(Fraction(cp[x], len(p)) - Fraction(cq[x], len(q))) for x in cp.keys() | cq.keys()]
    return sum(gaps) / 2, max(gaps)


def test_multiset_tv_matches_counter_oracle():
    rng = np.random.default_rng(5)
    tops = {np.uint8: 1 << 8, np.uint16: 1 << 16, np.int64: 1 << 63, np.uint64: 1 << 64}
    for dtype, top in tops.items():
        for cols in (1, 2, 5):
            # five rows drawn at unequal rates, which differ only in the
            # first column, the one shifted furthest; at top 2**63 and 2**64
            # two columns already exceed 63 bits, so keys are ranked
            pool = rng.integers(0, top, size=(5, cols), dtype=np.uint64).astype(dtype)
            pool[:, 1:] = pool[0, 1:]
            for n_p, n_q in ((40, 40), (12, 30), (7, 1)):
                p = pool[rng.integers(0, 5, n_p)]
                q = pool[rng.integers(0, 3, n_q)]
                assert multiset_tv(p, q) == counter_tv(p, q)
                assert multiset_tv(q, p) == counter_tv(q, p)
    # 20 columns of 5 bits each take 100 bits: the dense-rank path with
    # many distinct rows, against rows that differ only in the first column
    p = rng.integers(0, 32, size=(300, 20))
    q = np.concatenate([p[:100] ^ np.eye(20, dtype=np.int64)[0], p[100:]])
    tv, gap = multiset_tv(p, q)
    assert (tv, gap) == counter_tv(p, q) == (Fraction(1, 3), Fraction(1, 300))
    assert multiset_tv(q, p) == (tv, gap)
    with pytest.raises(ValueError, match="nonnegative"):
        multiset_tv(np.array([[0, 1]]), np.array([[0, -1]]))
    # past 2**31 rows dense ranks could take more than 63 bits; a
    # zero-stride view of that many rows is refused before any pass
    huge = np.broadcast_to(np.zeros((1, 1), np.int64), (1 << 31, 1))
    with pytest.raises(ValueError, match="at most 2"):
        multiset_tv(huge, huge[:1])


NO_MASKED_ARRAYS = """
import sys

import numpy as np
from widewalk.walks import multiset_tv

# unequal sizes, so the distinct keys of both sides are merged
assert multiset_tv(np.array([[1], [2], [2]]), np.array([[2], [3]]))[0] > 0
# 2 columns of 40 bits each: the dense-rank path
wide = np.array([[1 << 39, 5], [3, 1 << 39]])
assert multiset_tv(wide, wide[:1])[0] > 0
print("numpy.ma" in sys.modules)
"""


def test_multiset_tv_does_not_import_numpy_ma():
    # np.unique and np.union1d import numpy.ma on first use, about 14 ms
    # of every fresh process that runs an exact check
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [executable, "-c", NO_MASKED_ARRAYS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
