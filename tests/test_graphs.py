"""Cayley graph constructions and their exact spectra.

The headline numbers here are the inner-expander eigenvalues.  They are
recomputed by an independent oracle: for the pair-indexed generator
family the character sum at alpha equals the fraction of field elements
x on which the polynomial with coefficient word alpha vanishes, so the
expansion is a root count divided by the field size.
"""

import ast
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from widewalk.amplify import SignedFn
from widewalk.gf2core import field_mul, hex_encode
from widewalk.graphs import (
    FWHT_SCRATCH,
    GENERATOR_BATCH,
    SPECTRUM_SCAN_LIMIT,
    TOL_BOUND,
    CayleyGraph,
    _convolve,
    _first_of,
    build_aghp,
    build_complete_selfloop,
    fwht,
    holds,
    spectrum,
)
from widewalk.hitting import HittingInstance, check_hitting
from widewalk.walks import ReplacementSystem, WalkParams

import walk_oracle as oracle
from conftest import traced_peak

FROZEN_LAMBDA = {
    (2, 1): Fraction(1, 2),
    (4, 2): Fraction(3, 4),
    (6, 3): Fraction(5, 8),
    (8, 4): Fraction(7, 16),
    (10, 5): Fraction(7, 32),
}


def field_powers(x, r, ell):
    """[x^0, ..., x^(r-1)] in GF(2^ell) by scalar field_mul, with x^0 = 1."""
    powers = [1]
    for _ in range(r - 1):
        powers.append(field_mul(powers[-1], x, ell))
    return powers


def root_count_lambda(r, ell):
    """max over nonzero alpha of #{x : sum_{i in alpha} x^i = 0} / 2^ell."""
    q = 1 << ell
    table = [field_powers(x, r, ell) for x in range(q)]
    best = 0
    for alpha in range(1, 1 << r):
        roots = 0
        for powers in table:
            acc = 0
            for i, p in enumerate(powers):
                if (alpha >> i) & 1:
                    acc ^= p
            if acc == 0:
                roots += 1
        best = max(best, roots)
    return Fraction(best, q)


def aghp_loop_reference(r, ell):
    """AGHP(r, ell) generators one word at a time: bit i of word (x, y),
    x major, is the parity of x^i & y."""
    gens = []
    for x in range(1 << ell):
        powers = field_powers(x, r, ell)
        for y in range(1 << ell):
            gens.append(sum((bin(p & y).count("1") & 1) << i for i, p in enumerate(powers)))
    return tuple(gens)


def test_aghp_matches_loop_reference():
    for r, ell in [(2, 1), (4, 2), (6, 3), (9, 4), (10, 5), (12, 3), (12, 6), (62, 1)]:
        assert build_aghp(r, ell).generators.tolist() == list(aghp_loop_reference(r, ell)), (r, ell)


def aghp_parity_reference(r, ell):
    """AGHP(r, ell) generators as build_aghp made them before it used
    linearity in y: a parity over all of y, for every bit i of every word."""
    elems = np.arange(1 << ell, dtype=np.int64)
    powers = [np.ones_like(elems)]
    for _ in range(r - 1):
        powers.append(field_mul(powers[-1], elems, ell))
    words = np.zeros((elems.size, elems.size), dtype=np.int64)
    for i, power in enumerate(powers):
        words |= (np.bitwise_count(power[:, None] & elems) & 1).astype(np.int64) << i
    return words.ravel()


def test_aghp_matches_parity_reference():
    # (20, 10) and up are too large for the one-word-at-a-time loop reference
    for r, ell in [(12, 6), (20, 10), (40, 10), (62, 5)]:
        assert np.array_equal(build_aghp(r, ell).generators, aghp_parity_reference(r, ell)), (r, ell)


def test_aghp_16_8_generators_are_pinned():
    # SHA-256 of the int64 generator words, computed with the FieldElem
    # loop build that build_aghp replaced
    gens = np.asarray(build_aghp(16, 8).generators, dtype=np.int64)
    assert hashlib.sha256(gens.tobytes()).hexdigest() == (
        "1bd338481cb2fd13f374943d1e8908d9fcc4ab3a96f7540a7e233be4ce1c7f20"
    )


def test_aghp_lambda_matches_root_count_oracle():
    for (r, ell), expect in FROZEN_LAMBDA.items():
        g = build_aghp(r, ell)
        rep = spectrum(g)
        assert rep.lambda_exact == expect, (r, ell)
        assert root_count_lambda(r, ell) == expect, (r, ell)


def test_aghp_lambda_bound():
    # degree-(r-1) polynomials have at most r-1 roots
    for (r, ell), expect in FROZEN_LAMBDA.items():
        assert expect <= Fraction(r - 1, 1 << ell)


def test_aghp_shape():
    g = build_aghp(6, 3)
    assert g.dim == 6
    assert g.degree == 64  # one generator per (x, y) pair
    assert g.multigraph
    assert g.name == "aghp-r6-l3"
    # every pair with y = 0 contributes the zero word
    assert np.count_nonzero(g.generators == 0) >= 8


def test_aghp_first_generators_lex_order():
    # x = 0 block: bit i of word(0, y) is <0^i, y>, nonzero only at i = 0
    g = build_aghp(4, 2)
    assert g.generators[0:4].tolist() == [0, 1, 0, 1]
    # x = 1 block: every power is the element 1, so bit i of word(1, y)
    # is <1, y> = y_0 for all i
    assert g.generators[4:8].tolist() == [0, 0b1111, 0, 0b1111]


def test_aghp_validation():
    with pytest.raises(ValueError):
        build_aghp(4, 3)  # needs ell <= r/2
    with pytest.raises(ValueError):
        build_aghp(0, 1)
    with pytest.raises(ValueError):
        build_aghp(4, 0)
    with pytest.raises(ValueError):
        build_aghp(63, 1)  # r is at most 62
    with pytest.raises(ValueError):
        build_aghp(32, 16)  # 4**16 generators, refused before allocating
    with pytest.raises(ValueError, match="no baked-in modulus for ell=17"):
        build_aghp(40, 17)


def test_complete_selfloop_lambda_zero():
    for m in (1, 2, 3):
        g = build_complete_selfloop(m)
        assert g.degree == 1 << m
        assert spectrum(g).lambda_exact == 0


def test_complete_validation():
    with pytest.raises(ValueError):
        build_complete_selfloop(0)
    with pytest.raises(ValueError):
        build_complete_selfloop(40)  # 2**40 generators, refused before allocating


def test_complete_no_selfloop_lambda():
    # K_{2^m}: second eigenvalue is -1/(2^m - 1)
    for m in (2, 3, 4):
        g = build_complete_selfloop(m, selfloop=False)
        assert g.degree == (1 << m) - 1
        assert spectrum(g).lambda_exact == Fraction(1, (1 << m) - 1)


def _dense_lambda(G):
    """The largest eigenvalue magnitude of G's normalized adjacency matrix
    on the complement of the constant vector, by a dense eigensolver: an
    independent reference for spectrum, quadratic in memory."""
    n = G.num_vertices
    M = np.zeros((n, n))
    idx = np.arange(n)[:, None]
    np.add.at(M, (idx, idx ^ G.generators), 1.0 / G.degree)
    P = np.eye(n) - np.full((n, n), 1.0 / n)
    return float(np.max(np.abs(np.linalg.eigvalsh(P @ M @ P))))


def test_character_sum_agrees_with_dense_eigen():
    graphs = [
        build_aghp(4, 2),
        build_aghp(6, 3),
        build_aghp(8, 4),
        build_complete_selfloop(3),
        build_complete_selfloop(4, selfloop=False),
        CayleyGraph(dim=3, generators=(1, 2), name="g8"),
    ]
    for g in graphs:
        assert abs(spectrum(g).lam - _dense_lambda(g)) <= 1e-9, g.name


def test_character_table_row_zero_is_degree():
    g = build_aghp(4, 2)
    tab = g.character_table
    assert tab[0] == g.degree
    assert tab.dtype == np.int32


def test_character_table_is_the_transform_of_the_generator_counts():
    # the counts built by add.at, transformed in place, equal the bincount
    # that character_table used before, cast and transformed
    graphs = [build_aghp(r, ell) for r, ell in FROZEN_LAMBDA] + [
        build_aghp(16, 8), build_complete_selfloop(3), build_complete_selfloop(4, selfloop=False),
        CayleyGraph(1, (1,)), CayleyGraph(3, (5, 5, 5, 0), multigraph=True)]
    for g in graphs:
        want = fwht(np.bincount(g.generators, minlength=g.num_vertices).astype(np.int32))
        got = g.character_table
        assert got.dtype == np.int32 and got.tobytes() == want.tobytes(), g.name
        assert not g.generators.flags.writeable


def test_character_table_peaks_at_one_table():
    # the counts, which become the table in place, and an eighth of a table
    # beside them, add.at's intp slice or the transform's scratch: no int64
    # bincount, no copy of the read-only generators, no cast (4 tables
    # before, 2 with an out-of-place transform); traced on the graph's
    # first call, the one that builds its table.  Traced at 1.15
    g = build_aghp(16, 8)
    peak = traced_peak(lambda: g.character_table)
    assert peak <= 1.2 * g.character_table.nbytes


def test_aghp_words_are_built_in_the_word_dtype():
    # the uint16 words and a few small field arrays: int64 words on the
    # way would be 4 times the words
    words = 2 * build_aghp(16, 8).degree
    assert traced_peak(lambda: build_aghp(16, 8)) <= 1.5 * words


def test_aghp_20_10_build_and_first_table_peak_at_words_and_two_tables():
    # 4 MiB of uint32 words, kept, beside the character table's build, one
    # table and an eighth (two tables with an out-of-place transform); traced
    # at words + 1.13 tables
    def build_and_read():
        build_aghp(20, 10).character_table

    words, table = 4 << 20, 4 << 20
    assert traced_peak(build_and_read) <= words + 1.2 * table


def test_each_graph_keeps_one_read_only_table(table_builds):
    # the first spectrum builds the table and keeps the array the transform
    # wrote; later calls read it.  This 16 KiB table is within FWHT_SCRATCH,
    # so its transform runs through one copy of it: two tables at the peak
    # (traced at 2.14), where a table of 64 KiB and up peaks at one and an
    # eighth (test_character_table_peaks_at_one_table)
    g = build_aghp(12, 6)
    table = 4 * g.num_vertices  # int32
    assert traced_peak(lambda: spectrum(g)) <= 2.25 * table
    # a later call holds one slice of the argmax scan, here all n - 1
    # nontrivial characters as bools (traced at 5,043 bytes)
    assert traced_peak(lambda: spectrum(g)) <= min(g.num_vertices, FWHT_SCRATCH) + (1 << 11)
    assert traced_peak(lambda: g.character_table) < table
    assert table_builds == [g.name]
    chars = g.character_table
    assert chars is g.character_table and chars.nbytes == table
    assert not chars.flags.writeable
    with pytest.raises(ValueError):
        chars[0] = 0
    assert chars[0] == g.degree and spectrum(g).lambda_exact == Fraction(11, 64)


def test_spectrum_argmax_breaks_ties_as_argmax_of_abs():
    # +v before -v, -v before +v, ties among negatives, an all-zero
    # nontrivial spectrum (complete graph), then random multisets
    graphs = [CayleyGraph(2, (2,)), CayleyGraph(2, (1,)), CayleyGraph(2, (1, 2, 3)),
              build_complete_selfloop(3), build_aghp(6, 3)]
    rng = np.random.default_rng(11)
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        degree = int(rng.integers(1, 9))
        gens = tuple(rng.integers(0, 1 << dim, degree).tolist())
        graphs.append(CayleyGraph(dim, gens, multigraph=True))
    for g in graphs:
        numer = g.character_table.astype(np.int64)
        numer[0] = 0
        want = int(np.argmax(np.abs(numer)))
        rep = spectrum(g)
        assert rep.argmax_character == want, g.generators
        assert rep.lambda_exact == Fraction(int(abs(numer[want])), g.degree)


def test_spectrum_scans_the_table_in_slices():
    # AGHP(20,10)'s argmax lies in the ninth slice of 2**16 characters: one
    # slice's mask at the peak (traced at 65 KiB), where a mask over every
    # nontrivial character held 1 MiB
    g = build_aghp(20, 10)
    rep = spectrum(g)
    assert (rep.argmax_character, rep.lambda_exact) == (524434, Fraction(19, 1024))
    assert traced_peak(lambda: spectrum(g)) <= FWHT_SCRATCH + (1 << 11)


def test_first_of_finds_the_first_index_holding_any_value():
    # slices of 1 to 7 cells, so that a first +v and a first -v fall in one
    # slice, in two, or on a slice's edge
    rng = np.random.default_rng(40)
    for _ in range(300):
        a = rng.integers(-4, 5, int(rng.integers(1, 40)))
        v = int(rng.choice(a))
        values = {v, -v} & set(a.tolist())
        want = int(np.flatnonzero(np.isin(a, list(values)))[0])
        for step in range(1, 8):
            assert _first_of(a, values, step) == want, (a.tolist(), values, step)


def test_character_table_matches_character_sums():
    g = build_aghp(6, 3)
    tab = g.character_table
    for alpha in range(g.num_vertices):
        assert tab[alpha] == sum(
            -1 if bin(alpha & u).count("1") % 2 else 1 for u in g.generators
        )


def sylvester(n):
    H = np.ones((1, 1), dtype=np.int64)
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def test_fwht_matches_dense_hadamard():
    rng = np.random.default_rng(7)
    for n in (1, 2, 8, 64):
        H = sylvester(n)
        x = rng.integers(-50, 50, size=n)
        y = fwht(x.copy())
        assert y.dtype == np.int64
        assert np.array_equal(y, H @ x)
        X = rng.uniform(-1, 1, size=(3, n))
        X0 = X.copy()
        Y = fwht(X.copy())
        assert Y.dtype == np.float64 and Y.shape == (3, n)
        assert np.allclose(Y, X @ H.T, rtol=0, atol=1e-12)
        assert np.array_equal(X, X0)  # input left untouched


def strided_fwht(a):
    """Reference: the strided butterfly (Fino & Algazi 1976) that graphs.fwht
    replaced.  Stage h views the axis as (n/2h, 2, h) blocks and replaces
    each (lo, hi) pair by (lo + hi, lo - hi)."""
    shape, n = a.shape, a.shape[-1]
    h = 1
    while h < n:
        v = a.reshape(shape[:-1] + (n // (2 * h), 2, h))
        lo, hi = v[..., 0, :], v[..., 1, :]
        a = np.empty_like(v)
        np.add(lo, hi, out=a[..., 0, :])
        np.subtract(lo, hi, out=a[..., 1, :])
        h *= 2
    return a.reshape(shape)


def test_fwht_is_bit_identical_to_the_strided_butterfly():
    rng = np.random.default_rng(8)
    for r in range(13):
        n = 1 << r
        for lead in ((), (3,), (2, 3)):
            shape = lead + (n,)
            wide = rng.standard_normal(shape) * np.exp2(rng.integers(-40, 41, shape))
            ints = rng.integers(-(1 << 40), 1 << 40, shape)
            # sums that wrap modulo 2**64, in any order to the same bits
            wraps = ints << 23
            # Python ints above 2**63, for which only object arrays are exact
            big = np.array([(1 << 70) + int(v) for v in ints.ravel()], dtype=object)
            for x in (wide, ints, wraps, big.reshape(shape)):
                x0 = x.copy()
                y = fwht(x.copy())
                assert y.dtype == x.dtype and y.shape == shape
                if x.dtype == object:
                    assert y.tolist() == strided_fwht(x).tolist()
                else:
                    assert y.tobytes() == strided_fwht(x).tobytes()
                assert np.array_equal(x, x0)  # input left unchanged
    for n in (0, 3, 6, 12):
        with pytest.raises(ValueError, match="power-of-two"):
            fwht(np.ones((2, n)))


def test_fwht_along_any_axis_is_the_strided_butterfly_on_that_axis():
    rng = np.random.default_rng(9)
    for shape in ((8,), (3, 8), (4, 2, 5), (2, 16, 3, 4)):
        x = rng.standard_normal(shape) * np.exp2(rng.integers(-40, 41, shape))
        for axis in range(-len(shape), len(shape)):
            if shape[axis] & (shape[axis] - 1):
                with pytest.raises(ValueError, match="power-of-two"):
                    fwht(x, axis=axis)
                continue
            want = np.moveaxis(strided_fwht(np.moveaxis(x, axis, -1)), -1, axis)
            got = fwht(x.copy(), axis=axis)
            assert got.shape == shape
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def fwht_cases(rng, shape):
    """An int32, int64, float64 and object array of one shape, with values
    whose sums round in float64 and outgrow int64 in the object array."""
    ints = rng.integers(-(1 << 20), 1 << 20, shape)
    wide = rng.standard_normal(shape) * np.exp2(rng.integers(-40, 41, shape))
    big = np.array([(1 << 70) + int(v) for v in ints.ravel()], dtype=object).reshape(shape)
    return [ints.astype(np.int32), ints * (1 << 30), wide, big]


def assert_same_cells(got, want):
    if got.dtype == object:
        assert got.tolist() == want.tolist()
    else:
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def test_fwht_transforms_its_input_in_place_along_every_axis():
    # the result is the input array itself, bit-identical to the strided
    # butterfly, for every dtype and axis: arrays within FWHT_SCRATCH bytes,
    # which run every stage in constant geometry, and larger ones, whose
    # low bits run in tiles of whole rows (one or several) and the rest as
    # in-place butterflies (every bit when post > 1)
    rng = np.random.default_rng(10)
    shapes = [(1,), (2,), (16,), (3, 8), (4, 2, 5), (2, 16, 3, 4), (3, 4096), (1 << 15,),
              (3, 1 << 14), (1 << 12, 4), (8, 64, 32), (2, 1 << 14, 2)]
    for shape in shapes:
        for x in fwht_cases(rng, shape):
            for axis in range(len(shape)):
                if shape[axis] & (shape[axis] - 1) or (x.dtype == object and x.size > 1 << 14):
                    continue
                want = np.moveaxis(strided_fwht(np.moveaxis(x, axis, -1)), -1, axis)
                a = x.copy()
                got = fwht(a, axis=axis)
                assert got is a and got.dtype == x.dtype, (shape, axis, x.dtype)
                assert_same_cells(got, want)


def test_fwht_transforms_a_strided_view_and_nothing_else():
    # views whose (pre, n, post) reshape is itself a view: transposes,
    # every other column, a strided transform axis, and the moved axis of
    # the level loop's roll; only the view's cells change
    rng = np.random.default_rng(11)
    views = [(lambda b: b[:, 0, :].T, 0), (lambda b: b[:, :, 0].T, 1), (lambda b: b[:, ::2], 2),
             (lambda b: b[:, :, ::2], 2), (lambda b: np.moveaxis(b, -1, 0), 0),
             (lambda b: np.moveaxis(b, -1, 1), 1), (lambda b: np.moveaxis(b, 0, -1), 1)]
    cases = [(x, views) for x in fwht_cases(rng, (8, 6, 16))]
    # past FWHT_SCRATCH: rows that do not merge run one at a time, and a
    # transpose runs every bit as butterflies
    big = [(lambda b: b[:, :2048], 1), (lambda b: b[:, 1::2], 1), (lambda b: b.T, 0)]
    cases += [(x, big) for x in fwht_cases(rng, (16, 4096))[:3]]
    for x, views in cases:
        for make, axis in views:
            base = x.copy()
            view = make(base)
            want = np.moveaxis(strided_fwht(np.moveaxis(view, axis, -1)), -1, axis)
            assert fwht(view, axis=axis) is view
            assert_same_cells(view, want)
            make(base)[...] = 0
            outside = x.copy()
            make(outside)[...] = 0
            assert_same_cells(base, outside)  # every cell outside the view as it was


def test_fwht_refuses_a_read_only_array_and_a_view_it_would_copy():
    x = np.arange(64.0).reshape(4, 16)
    x.flags.writeable = False
    with pytest.raises(ValueError, match="read-only") as err:
        fwht(x)
    assert "\n" not in str(err.value)
    # the two leading axes of a transposed view do not merge into one
    base = np.arange(64.0)
    view = base.reshape(4, 4, 4).transpose(1, 0, 2)
    with pytest.raises(ValueError, match="merge") as err:
        fwht(view)
    assert "\n" not in str(err.value)
    assert np.array_equal(base, np.arange(64.0))  # nothing was written


def test_fwht_scratch_stays_within_its_cap():
    # an array of at most FWHT_SCRATCH bytes takes one array of its size,
    # a larger one at most an eighth of its size and FWHT_SCRATCH bytes;
    # the rest is Python objects, the views and the chunk loop's index
    # tuples (traced at 25 KiB at most)
    slack = 32 << 10
    for shape, dtype in (((1 << 20,), np.int32), ((8, 1 << 15), np.float64), ((8, 8, 4096), np.float64),
                         ((64, 4096), np.float64), ((1 << 16,), np.float64), ((1 << 12,), np.float64),
                         ((1024,), object)):
        a = np.ones(shape, dtype)
        cap = a.nbytes if a.nbytes <= FWHT_SCRATCH else min(FWHT_SCRATCH, a.nbytes // 8)
        for axis in range(len(shape)):
            assert traced_peak(lambda: fwht(a, axis=axis)) <= cap + slack, (shape, axis)


def test_convolve_holds_one_array():
    # both transforms and the product run in place on one copy of values:
    # one array and the transform's scratch at the peak, where an
    # out-of-place pair held two and a product and a fresh pair three; the
    # graph's character table is built once, before the traced call, and
    # values is left as it was.  Traced at 1.14
    g = build_aghp(16, 8)
    values = np.random.default_rng(13).standard_normal(g.num_vertices)
    before = values.copy()
    want = fwht(fwht(values.copy()) * g.character_table)
    assert _convolve(values, g).tobytes() == want.tobytes()
    assert traced_peak(lambda: _convolve(values, g)) <= 1.2 * values.nbytes
    assert values.tobytes() == before.tobytes()
    big = np.array([(1 << 70) + v for v in range(16)], dtype=object)
    k16 = build_complete_selfloop(4, selfloop=False)
    assert _convolve(big, k16).tolist() == (fwht(fwht(big.copy()) * k16.character_table)).tolist()
    assert big.tolist() == [(1 << 70) + v for v in range(16)]


def test_residue_convolve_is_the_exact_one_modulo_each_prime():
    # residues below three primes near 2**31, on graphs where only the
    # second transform is reduced (k16), the product too (AGHP(12,6),
    # n * n * d = 2**36) and the first transform as well (AGHP(16,8),
    # n * d = 2**32): each row is the exact object-int convolution of the
    # same values modulo its prime, in [0, p)
    primes = [2147483497, 2147483489, 2147483477]
    moduli = np.array(primes, np.int64)[:, None]
    rng = np.random.default_rng(42)
    for g in (build_complete_selfloop(4, selfloop=False), build_aghp(12, 6), build_aghp(16, 8)):
        values = rng.integers(0, moduli, (3, g.num_vertices))
        before = values.copy()
        got = _convolve(values, g, moduli)
        assert got.dtype == np.int64 and np.array_equal(values, before)
        for row, p, v in zip(got, primes, values):
            assert row.tolist() == [c % p for c in _convolve(v.astype(object), g)], g.name
    # rows of p - 1 on AGHP(18,9), whose sum over the generators times n,
    # n * d * (p - 1) = 2**36 * (p - 1), would pass 2**63 on the way if the
    # first transform, n * (p - 1) at character 0, were not reduced
    g = build_aghp(18, 9)
    got = _convolve(np.repeat(moduli - 1, g.num_vertices, axis=1), g, moduli)
    for row, p in zip(got, primes):
        assert set(row.tolist()) == {g.num_vertices * g.degree * (p - 1) % p}


def brute_average(values, g):
    idx = np.arange(g.num_vertices)
    return sum(values[..., idx ^ u] for u in g.generators) / g.degree


def test_cayley_average_matches_generator_loop():
    rng = np.random.default_rng(11)
    k16 = build_complete_selfloop(4, selfloop=False)
    assert k16.degree == 15
    for g in (build_aghp(4, 2), k16):
        x = rng.uniform(-1, 1, size=g.num_vertices)
        assert np.allclose(oracle.cayley_average(x, g), brute_average(x, g), rtol=0, atol=1e-14)
        X = rng.uniform(-1, 1, size=(5, g.num_vertices))
        got = oracle.cayley_average(X, g)
        assert got.shape == X.shape
        assert np.allclose(got, brute_average(X, g), rtol=0, atol=1e-14)
    # AGHP(4,2) repeats the zero word: every repeat counts
    g = build_aghp(4, 2)
    assert len(set(g.generators)) < g.degree
    e0 = np.zeros(g.num_vertices)
    e0[0] = 1.0
    assert oracle.cayley_average(e0, g)[0] == np.count_nonzero(g.generators == 0) / g.degree


def test_neighbor_involution():
    # the scalar neighbor step of walk_oracle, which the brute-force
    # oracles walk by, is an involution and averages as cayley_average does
    rng = np.random.default_rng(3)
    for g in (build_aghp(4, 2), CayleyGraph(dim=3, generators=(1, 2, 4))):
        x = rng.uniform(-1, 1, size=g.num_vertices)
        avg = oracle.cayley_average(x, g)
        for v in range(g.num_vertices):
            for i in range(g.degree):
                w = oracle.neighbor(g, v, i)
                assert oracle.neighbor(g, w, i) == v
            steps = [x[oracle.neighbor(g, v, i)] for i in range(g.degree)]
            assert abs(avg[v] - sum(steps) / g.degree) <= 1e-14


def test_graph_validation():
    with pytest.raises(ValueError):
        CayleyGraph(dim=0, generators=(1,))
    with pytest.raises(ValueError):
        CayleyGraph(dim=2, generators=())
    with pytest.raises(ValueError):
        CayleyGraph(dim=2, generators=(4,))
    with pytest.raises(ValueError):
        CayleyGraph(dim=2, generators=(1, 1))  # duplicates need multigraph
    CayleyGraph(dim=2, generators=(1, 1), multigraph=True)
    with pytest.raises(ValueError):
        CayleyGraph(dim=63, generators=(1,))  # dim is at most 62
    with pytest.raises(ValueError):
        CayleyGraph(dim=70, generators=(1 << 69,))  # ValueError, not OverflowError
    with pytest.raises(ValueError):
        CayleyGraph(dim=2, generators=(1.5,))
    with pytest.raises(ValueError):
        CayleyGraph(dim=2, generators=((1, 2),))


def test_generators_are_read_only_words_in_the_smallest_unsigned_dtype():
    widths = {1: np.uint8, 8: np.uint8, 9: np.uint16, 16: np.uint16,
              17: np.uint32, 32: np.uint32, 33: np.uint64, 62: np.uint64}
    for dim, dtype in widths.items():
        top = (1 << dim) - 1
        for gens in ((top, 0), np.array([top, 0], dtype=np.uint64)):
            g = CayleyGraph(dim=dim, generators=gens)
            assert g.generators.dtype == dtype and g.generators.tolist() == [top, 0], dim
    for g in (build_aghp(4, 2), build_aghp(20, 3), build_aghp(40, 3), build_complete_selfloop(2),
              build_complete_selfloop(9), CayleyGraph(dim=3, generators=(1, 2))):
        assert g.generators.dtype == np.min_scalar_type(g.num_vertices - 1), g.name
        with pytest.raises(ValueError):
            g.generators[0] = 1
    words = np.array([1, 2, 4], dtype=np.uint8)
    g = CayleyGraph(dim=3, generators=words)
    assert np.shares_memory(g.generators, words)  # an array in the word dtype is not copied
    assert words.flags.writeable and not g.generators.flags.writeable
    for same in ((1, 2, 4), [1, 2, 4], np.array([1, 2, 4], dtype=np.int64),
                 np.array([1, 2, 4], dtype=np.int8), np.array([1, 2, 4], dtype=np.uint64)):
        h = CayleyGraph(dim=3, generators=same)
        assert h == g and hash(h) == hash(g)
        assert h.generators.dtype == np.uint8
    assert g != CayleyGraph(dim=3, generators=(1, 4, 2))
    assert g != CayleyGraph(dim=3, generators=(1, 2, 4), name="other")
    assert g != CayleyGraph(dim=3, generators=(1, 2, 4), multigraph=True)
    assert g != CayleyGraph(dim=4, generators=(1, 2, 4))
    # a non-graph is left to the other operand, so == falls back to identity
    assert g.__eq__((1, 2, 4)) is NotImplemented
    assert g != (1, 2, 4) and g != "g" and g != None  # noqa: E711


def test_json_round_trip():
    for g in (build_aghp(6, 3), build_complete_selfloop(3), CayleyGraph(dim=3, generators=(1, 2))):
        assert CayleyGraph.from_json(g.to_json()) == g


def test_words_out_of_range_are_refused_before_the_cast():
    # cast to the word dtype, -1 would wrap to the top word and 2**dim to 0
    for dim in (3, 8, 16, 32, 62):
        for bad in (np.array([1, -1], dtype=np.int8), np.array([1, -1], dtype=np.int64),
                    np.array([1, 1 << dim], dtype=np.uint64), (1, 1 << dim)):
            with pytest.raises(ValueError, match="out of range"):
                CayleyGraph(dim=dim, generators=bad)


def test_json_round_trip_at_dim_62_keeps_uint64_words():
    g = CayleyGraph(dim=62, generators=((1 << 62) - 1, 0, 1 << 61, 12345), name="wide")
    text = g.to_json()
    h = CayleyGraph.from_json(text)
    assert h.generators.dtype == np.uint64
    assert h == g and hash(h) == hash(g) and h.to_json() == text


def test_to_json_is_json_dumps_of_the_scalar_hex_strings():
    # the generator list is written from the word array in chunks of
    # GENERATOR_BATCH words: one, several and an inexact number of chunks,
    # digit counts 1..16, dims that are not a multiple of 4, and a name
    # that quotes the field the list is spliced into
    rng = np.random.default_rng(11)
    top = (1 << 62) - 1
    wide = np.concatenate([[0, 1, top], rng.integers(0, top, size=5000, endpoint=True)])
    graphs = [build_aghp(r, ell) for r, ell in ((2, 1), (4, 2), (9, 4), (16, 8), (25, 6))]
    graphs += [build_complete_selfloop(m, selfloop=m != 13) for m in (1, 3, 13)]
    graphs.append(CayleyGraph(dim=62, generators=wide, name='w "generators": null \u00e9'))
    assert any(g.degree > GENERATOR_BATCH and g.degree % GENERATOR_BATCH for g in graphs)
    for g in graphs:
        fields = {"name": g.name, "dim": g.dim,
                  "generators": [hex_encode(int(w), g.dim) for w in g.generators],
                  "multigraph": g.multigraph}
        text = g.to_json()
        assert text == json.dumps(fields, indent=2), g.name
        assert CayleyGraph.from_json(text) == g


def test_holds_is_value_at_most_bound_plus_the_slack():
    assert holds(1.0, 1.0) and holds(1.0 + 5e-13, 1.0) and holds(-math.inf, 0.0)
    assert holds(2.0, math.inf) and holds(TOL_BOUND, 0.0)
    assert not holds(1.0 + 2e-12, 1.0)
    assert not holds(math.nan, 1.0) and not holds(0.0, math.nan)


def _nodes_by_function(tree: ast.AST):
    """(name of the innermost enclosing function or None, node) for every node."""
    def visit(node, func):
        yield func, node
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        for child in ast.iter_child_nodes(node):
            yield from visit(child, inner)

    yield from visit(tree, None)


def _is_float(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def test_every_float_bound_verdict_goes_through_holds():
    """TOL_BOUND is assigned once, in graphs, and read only by holds, and no
    comparison in the package adds a float literal as its slack.  The
    comparison with another slack is a different rule: the rounding band
    of check_middle_start_identity, derived from the two sums it compares.
    No comparison is allowed a tolerance-sized float literal."""
    import widewalk

    offenders = []
    for path in sorted(Path(widewalk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func, node in _nodes_by_function(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.alias) and node.name == "TOL_BOUND":
                offenders.append(f"{where} imports TOL_BOUND")
            if isinstance(node, ast.Name) and node.id == "TOL_BOUND":
                defined = isinstance(node.ctx, ast.Store) and func is None
                if path.name != "graphs.py" or not (defined or func == "holds"):
                    offenders.append(f"{where} uses TOL_BOUND outside holds")
            if not isinstance(node, ast.Compare):
                continue
            for operand in (node.left, *node.comparators):
                for sub in ast.walk(operand):
                    if isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Add, ast.Sub)) \
                            and any(map(_is_float, (sub.left, sub.right))):
                        offenders.append(f"{where} adds a float literal in a comparison")
                if _is_float(operand) and 0 < abs(operand.value) < 1e-6:
                    offenders.append(f"{where} compares with a tolerance literal")
    assert offenders == []


_VERDICT_EXITS = {"EXIT_PASS", "EXIT_VIOLATION", "EXIT_HYPOTHESES"}


def _mentions_bound(node: ast.AST) -> bool:
    """Whether a name, attribute or string key under node says "bound"."""
    for sub in ast.walk(node):
        text = getattr(sub, "id", None) or getattr(sub, "attr", None) or getattr(sub, "value", None)
        if isinstance(text, str) and "bound" in text:
            return True
    return False


def _verdict_exits(node: ast.AST) -> set[str]:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and sub.id in _VERDICT_EXITS}


def test_the_assertion_policy_has_one_owner():
    """Whether a bound row is asserted is decided by amplify.vacuous alone:
    no other comparison in the package sets a float against the literal
    1.0, or anything named a bound against 1.  Which of exit 0, 1 and 4 a
    verdict earns is decided by cli._exit_code alone: elsewhere no `if`
    returns one of them, no conditional expression picks between two of
    them, and exit 4 is not named at all.  A command that judges nothing
    returns EXIT_PASS, and a failed base-code search EXIT_VIOLATION."""
    import widewalk

    offenders = []
    for path in sorted(Path(widewalk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func, node in _nodes_by_function(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.alias) and node.name in _VERDICT_EXITS:
                offenders.append(f"{where} imports {node.name}")
            if (path.name, func) != ("cli.py", "_exit_code"):
                if isinstance(node, ast.Name) and node.id in _VERDICT_EXITS:
                    defined = isinstance(node.ctx, ast.Store) and func is None
                    if path.name != "cli.py" or node.id == "EXIT_HYPOTHESES" and not defined:
                        offenders.append(f"{where} names {node.id} outside _exit_code")
                if isinstance(node, ast.IfExp) and all(map(_verdict_exits, (node.body, node.orelse))):
                    offenders.append(f"{where} picks an exit code outside _exit_code")
                if isinstance(node, ast.If) and any(
                        isinstance(sub, ast.Return) and _verdict_exits(sub) for sub in ast.walk(node)):
                    offenders.append(f"{where} returns an exit code under an if outside _exit_code")
            if not isinstance(node, ast.Compare) or (path.name, func) == ("amplify.py", "vacuous"):
                continue
            operands = [node.left, *node.comparators]
            ones = [o.value for o in operands
                    if isinstance(o, ast.Constant) and type(o.value) in (int, float) and o.value == 1]
            if any(isinstance(v, float) for v in ones) or ones and any(map(_mentions_bound, operands)):
                offenders.append(f"{where} compares a bound with 1 outside vacuous")
    assert offenders == []


# numpy entry points that call BLAS; "inner" only as np.inner, since
# .inner is also the inner graph of a replacement system
_BLAS_ANYWHERE = {"dot", "vdot", "matmul", "tensordot", "einsum", "linalg"}
_BLAS_ON_NUMPY = _BLAS_ANYWHERE | {"inner"}


def test_no_blas_call_in_the_package():
    """BLAS's thread pool, once started, slows every later numpy call of
    the process, so the package sums with elementwise products and .sum()
    (see check_middle_start_identity).  No np.dot, vdot, matmul, inner,
    tensordot, einsum, np.linalg, .dot( or @ appears anywhere in it."""
    import widewalk

    offenders = []
    for path in sorted(Path(widewalk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                offenders.append(f"{where} uses @")
            elif isinstance(node, ast.Attribute):
                on_numpy = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                if node.attr in (_BLAS_ON_NUMPY if on_numpy else _BLAS_ANYWHERE):
                    offenders.append(f"{where} reads .{node.attr}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                for alias in node.names:
                    parts = {*module.split("."), *alias.name.split(".")}
                    if "numpy" in parts and parts & _BLAS_ON_NUMPY:
                        offenders.append(f"{where} imports {alias.name} from {module or 'numpy'}")
    assert offenders == []


def mixing_check(G, f, g):
    """The expander mixing lemma in floats, as (lhs, rhs) of
    |E_{a~a'}[f(a) g(a')] - mu_f mu_g| <= lam * sigma_f * sigma_g for
    per-vertex arrays f and g and the measured expansion lam of G: a test
    of spectrum and of _convolve, whose generator average over n * degree
    gives the edge expectation."""
    fv, gv = np.asarray(f, np.float64), np.asarray(g, np.float64)
    n = G.num_vertices
    edge_mean = float((fv * (_convolve(gv, G) / (n * G.degree))).sum()) / n
    mu_f, mu_g = float(fv.mean()), float(gv.mean())
    sigma_f = math.sqrt(max(float((fv * fv).mean()) - mu_f * mu_f, 0.0))
    sigma_g = math.sqrt(max(float((gv * gv).mean()) - mu_g * mu_g, 0.0))
    return abs(edge_mean - mu_f * mu_g), spectrum(G).lam * sigma_f * sigma_g


def test_mixing_check_equality_at_top_character():
    # the bound is tight when f = g = the argmax character
    for g in (build_aghp(4, 2), build_complete_selfloop(4, selfloop=False)):
        rep = spectrum(g)
        alpha = rep.argmax_character
        chi = [(-1.0) ** bin(alpha & v).count("1") for v in range(g.num_vertices)]
        lhs, rhs = mixing_check(g, chi, chi)
        assert holds(lhs, rhs)
        assert abs(lhs - rhs) <= 1e-12


def test_mixing_check_random_functions():
    rng = np.random.default_rng(42)
    g = build_aghp(6, 3)
    for _ in range(20):
        f = rng.uniform(-1, 1, size=g.num_vertices)
        h = rng.uniform(-1, 1, size=g.num_vertices)
        assert holds(*mixing_check(g, f, h))


def test_mixing_check_callable_and_lam_override():
    # at the measured lambda: the complete graph with self-loops has
    # lambda 0, so the edge average of f(a) g(a') is the product of the
    # means
    g = build_complete_selfloop(2)
    f = np.arange(g.num_vertices) % 2
    lhs, rhs = mixing_check(g, f, 1 - f)
    assert rhs == 0.0 and lhs <= 1e-12


def test_spectrum_scan_limit_enforced():
    g = CayleyGraph(dim=SPECTRUM_SCAN_LIMIT + 1, generators=(1, 2))
    with pytest.raises(ValueError):
        spectrum(g)


# Every caller of the one vertex rule, graphs._vertex_list: what its
# messages call a vertex, how many vertices there are, whether a set is
# meant, and a call that puts a list of vertices where the caller reads one
# and returns what it read.
_K16 = build_complete_selfloop(4, selfloop=False)
_SYS = ReplacementSystem(build_complete_selfloop(2), build_aghp(4, 1), WalkParams(2, 2, 1))
_VERTEX_CALLERS = {
    "from_support": ("support vertex", 16, True, lambda vs: SignedFn.from_support(16, vs).bits.tolist()),
    "HittingInstance": ("subset vertex", 16, True, lambda vs: HittingInstance(_K16, vs, 3).subset),
    "check_hitting": ("subset vertex", 16, True,
                      lambda vs: [r.exact for r in check_hitting(_K16, vs, 3).rows]),
    "walk_from_seed a_0": ("a_0", 4, False, lambda vs: _SYS.walk_from_seed(vs[0], 0, ()).seed),
    "walk_from_seed b_1": ("b_1", 16, False, lambda vs: _SYS.walk_from_seed(0, vs[0], ()).seed),
    "walk_from_seed u": ("generator index", 4, False, lambda vs: _SYS.walk_from_seed(0, 0, vs).seed),
}
# a bad vertex (None stands for n, the vertex count) and how its message ends
_BAD_VERTICES = {
    "bool": (True, "True must be an integer"),
    "numpy bool": (np.True_, f"{np.True_!r} must be an integer"),
    "float": (1.0, "1.0 must be an integer"),
    "float one ulp above an integer": (1.0 + 2**-52, f"{1.0 + 2**-52!r} must be an integer"),
    "half": (0.5, "0.5 must be an integer"),
    "numpy float": (np.float64(2), f"{np.float64(2)!r} must be an integer"),
    "str": ("2", "'2' must be an integer"),
    "negative": (-1, "-1 out of range 0..{top}"),
    "n": (None, "{n} out of range 0..{top}"),
}


@pytest.mark.parametrize("bad", _BAD_VERTICES)
@pytest.mark.parametrize("caller", _VERTEX_CALLERS)
def test_one_vertex_rule_refuses_each_bad_vertex(caller, bad):
    # the bools used to pass as vertex 1: check_hitting(k16, [True], 3) raised
    # numpy's IndexError, and walk_from_seed ran the seed (1, 0, (1,))
    what, n, _, call = _VERTEX_CALLERS[caller]
    v, tail = _BAD_VERTICES[bad]
    with pytest.raises(ValueError) as info:
        call([n if v is None else v])
    assert str(info.value) == f"{what} " + tail.format(n=n, top=n - 1)


@pytest.mark.parametrize("caller", [c for c, spec in _VERTEX_CALLERS.items() if spec[2]])
def test_one_vertex_rule_refuses_a_repeat_where_a_set_is_meant(caller):
    what, _, _, call = _VERTEX_CALLERS[caller]
    with pytest.raises(ValueError) as info:
        call([1, 3, 1])
    assert str(info.value) == f"{what} 1 is repeated"


@pytest.mark.parametrize("caller", _VERTEX_CALLERS)
def test_one_vertex_rule_reads_numpy_integers_as_ints(caller):
    # numpy integer scalars and an integer array are read as the plain ints
    # they hold (the reprs match, so no numpy scalar is kept), up to the
    # top vertex n - 1
    _, n, _, call = _VERTEX_CALLERS[caller]
    want = call([n - 1])
    for vs in ([np.int64(n - 1)], [np.uint8(n - 1)], np.array([n - 1])):
        got = call(vs)
        assert got == want and repr(got) == repr(want), vs
    assert repr(call([np.int64(1), np.uint8(3)])) == repr(call([1, 3]))


def test_a_walk_may_repeat_a_generator_index():
    _, _, _, call = _VERTEX_CALLERS["walk_from_seed u"]
    assert call([1, 3, 1]) == (0, 0, (1, 3, 1))
