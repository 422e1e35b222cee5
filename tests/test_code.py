"""Base codes, the walk-based amplifier, and the exact bias machinery.

The deterministic k=8 base code below is built from quadratic forms: on
F_2^6 = F_2^3 x F_2^3 the functions <x, y> and <x, My> (M invertible,
I + M invertible) are bent, so every nonzero combination of the six
coordinate functions and the two forms has bias exactly 2^-3.  This
gives a reproducible low-bias generator matrix without any search.
"""

import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from widewalk import BudgetExceeded, ReplacementSystem, WalkParams
from widewalk import build_aghp, build_complete_selfloop
from widewalk.graphs import CayleyGraph
from widewalk.code import (
    AmplifiedCode,
    BaseCodeSearchFailed,
    LinearCode,
    code_bias,
    code_report,
    encode,
    gen_base_code,
)

import walk_oracle as oracle

MONO_CHAIN = {
    5: 0.019550323486328125,
    10: 0.000921367944101803,
    20: 2.0247429828697666e-06,
}


def tiny_amp(t=2):
    params = WalkParams(m=1, s=2, ell=1)
    sys = ReplacementSystem(build_complete_selfloop(1), build_aghp(2, 1), params)
    base = LinearCode(1, 2, [0b01])
    return AmplifiedCode(base, sys, t)


def flagship_k2_amp(flagship, t=10):
    base = LinearCode(2, 4, [0b0011, 0b0101])
    assert base.measured_bias_exact == 0
    return AmplifiedCode(base, flagship, t)


def bent_k8_code():
    def m_apply(y):
        # multiplication by the companion matrix of z^3 + z + 1
        y0, y1, y2 = y & 1, (y >> 1) & 1, (y >> 2) & 1
        return y2 | ((y0 ^ y2) << 1) | (y1 << 2)

    rows = []
    for i in range(6):
        rows.append(sum(((j >> i) & 1) << j for j in range(64)))
    b1 = sum((((j & 7) & (j >> 3)).bit_count() & 1) << j for j in range(64))
    b2 = sum((((j & 7) & m_apply(j >> 3)).bit_count() & 1) << j for j in range(64))
    rows.extend([b1, b2])
    return LinearCode(8, 64, rows)


def oracle_bias(rows, n0):
    """The largest |n0 - 2*weight| / n0 over the nonzero messages, each
    codeword the XOR of the rows its bits select."""
    worst = 0
    for x in range(1, 1 << len(rows)):
        word = 0
        for i, row in enumerate(rows):
            if (x >> i) & 1:
                word ^= row
        worst = max(worst, abs(n0 - 2 * bin(word).count("1")))
    return Fraction(worst, n0)


def test_one_row_code_has_its_row_bias():
    assert LinearCode(1, 4, [0]).measured_bias_exact == 1
    assert LinearCode(1, 4, [0b1111]).measured_bias_exact == 1
    assert LinearCode(1, 4, [0b0011]).measured_bias_exact == 0
    assert LinearCode(1, 4, [0b0001]).measured_bias_exact == Fraction(1, 2)
    with pytest.raises(ValueError):
        LinearCode(1, 4, [16])


def test_gray_code_bias_matches_the_message_oracle():
    # seeded random codes, k = 1..12, with codewords of one, two and several
    # 64-bit words
    rng = random.Random(29)
    for k in range(1, 13):
        for n0 in (k, 64 + k, 200 + 7 * k):
            rows = [rng.getrandbits(n0) for _ in range(k)]
            code = LinearCode(k, n0, rows)
            assert code.measured_bias_exact == oracle_bias(rows, n0), (k, n0)


def test_linear_code_basics():
    code = LinearCode(2, 4, [0b0011, 0b0101])
    assert code.encode(0) == 0
    assert code.encode(1) == 0b0011
    assert code.encode(2) == 0b0101
    assert code.encode(3) == 0b0110
    assert code.measured_bias_exact == 0
    with pytest.raises(ValueError):
        code.encode(4)


def test_linear_code_bias_is_max_over_messages():
    # weight-1 rows are balanced on 2 bits, but their sum is the all-ones
    # word with bias 1; the max over nonzero messages wins
    code = LinearCode(2, 2, [0b01, 0b10])
    assert code.measured_bias_exact == 1
    assert code.measured_bias == 1.0


def test_linear_code_validation():
    with pytest.raises(ValueError):
        LinearCode(0, 4, [])
    with pytest.raises(ValueError):
        LinearCode(17, 32, [1] * 17)  # exhaustive bias cap
    with pytest.raises(ValueError):
        LinearCode(2, 1, [1, 1])  # n0 < k
    with pytest.raises(ValueError):
        LinearCode(1, 2, [1, 2])  # row count mismatch
    with pytest.raises(ValueError):
        LinearCode(1, 2, [4])  # row out of range


def test_linearity_exhaustive():
    code = LinearCode(3, 8, [0b11, 0b1100, 0b110000])
    for x in range(8):
        for y in range(8):
            assert code.encode(x ^ y) == code.encode(x) ^ code.encode(y)


def test_json_round_trip():
    code = LinearCode(3, 8, [0b11, 0b1100, 0b110000])
    again = LinearCode.from_json(code.to_json())
    assert again.rows == code.rows
    assert again.k == code.k and again.n0 == code.n0
    assert again.measured_bias_exact == code.measured_bias_exact


def test_json_bias_cross_check():
    payload = json.loads(LinearCode(1, 2, [0b01]).to_json())
    payload["bias"] = 0.75  # tampered
    with pytest.raises(ValueError):
        LinearCode.from_json(json.dumps(payload))


def test_gen_base_code_pinned_seed():
    # seed 3 is the first seed whose draw meets the 0.28 target for
    # (k, n0) = (8, 64); the accepted matrix has bias exactly 1/4
    rng = np.random.default_rng(3)
    code = gen_base_code(8, 64, 0.28, rng)
    assert code.measured_bias_exact == Fraction(1, 4)
    # determinism: same seed, same matrix
    rng2 = np.random.default_rng(3)
    assert gen_base_code(8, 64, 0.28, rng2).rows == code.rows


def test_gen_base_code_fraction_target():
    rng = np.random.default_rng(0)
    code = gen_base_code(2, 8, Fraction(1, 2), rng)
    assert code.measured_bias_exact <= Fraction(1, 2)


def test_gen_base_code_impossible_target():
    # three nonzero codewords cannot all have weight exactly n0/2 = 1
    rng = np.random.default_rng(0)
    with pytest.raises(BaseCodeSearchFailed) as info:
        gen_base_code(2, 2, 0.0, rng, max_tries=50)
    assert info.value.tries == 50
    assert info.value.best_bias > 0
    with pytest.raises(ValueError):
        gen_base_code(4, 2, 0.5, rng)


def test_gen_base_code_argument_errors_draw_nothing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for k, n0, max_tries, message in ((2, 8, 0, "max_tries must be at least 1, got 0"),
                                      (2, 8, -3, "max_tries must be at least 1, got -3"),
                                      (17, 10**12, 1, "k must be in 1..16")):
        with pytest.raises(ValueError, match=message):
            gen_base_code(k, n0, 0.5, rng, max_tries=max_tries)
    # no code has a negative bias, so such a target fails at once, not
    # after max_tries draws
    for target in (-0.5, Fraction(-1, 2), -1e-300):
        with pytest.raises(ValueError, match="target bias must be nonnegative"):
            gen_base_code(2, 4, target, rng, max_tries=50)
    # nor can one meet a target that is not a finite number
    for target in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"target bias must be a finite number, got {target}"):
            gen_base_code(2, 4, target, rng, max_tries=50)
    assert rng.bit_generator.state == state


def test_bent_code_bias():
    code = bent_k8_code()
    assert code.k == 8 and code.n0 == 64
    assert code.measured_bias_exact == Fraction(1, 8)
    # comfortably below the flagship inner expansion 7/32
    assert code.measured_bias_exact <= Fraction(7, 32)


def test_f_for_message_pads_to_the_outer_graph(mono_system):
    # snug embedding preserves the bias exactly
    base = LinearCode(1, 8, [0b00001111])
    f = AmplifiedCode(base, mono_system, 1).f_for_message(1)
    assert f.bias_exact == 0
    assert list(f.bits) == [1, 1, 1, 1, 0, 0, 0, 0]
    # padding a balanced 8-bit word into 16 vertices forces 8 zeros: the
    # assignment's bias becomes 1/2 even though the word is balanced
    params = WalkParams(m=4, s=2, ell=4)
    sys16 = ReplacementSystem(build_complete_selfloop(4), build_aghp(8, 4), params)
    g = AmplifiedCode(base, sys16, 1).f_for_message(1)
    assert list(g.bits) == [1] * 4 + [0] * 12
    assert g.bias_exact == Fraction(1, 2)
    # the zero message: constant assignment, bias 1
    assert AmplifiedCode(base, mono_system, 1).f_for_message(0).bias_exact == 1


def test_amplified_code_embedding_guard(flagship):
    code = bent_k8_code()
    with pytest.raises(ValueError) as info:
        AmplifiedCode(code, flagship, 10)
    assert "outer graph has 4 vertices, base code needs 64" in str(info.value)
    with pytest.raises(ValueError):
        AmplifiedCode(LinearCode(1, 2, [0b01]), flagship, 0)


def test_encode_zero_message_is_zero():
    amp = tiny_amp()
    bits = encode(amp, 0)
    assert bits.shape == (amp.block_length,)
    assert not bits.any()


def walk_xor_reference(amp, x):
    """Codeword bits one enumerated walk at a time."""
    f = amp.f_for_message(x)
    out = []
    for _, a_vertices, _ in oracle.walks(amp.sys, amp.t):
        acc = 0
        for a in a_vertices:
            acc ^= int(f.bits[a])
        out.append(acc)
    return out


def test_encode_matches_walk_xor():
    # full blocks: two outer vertices, and four with a two-block shift
    wide = ReplacementSystem(build_complete_selfloop(2), build_aghp(4, 1), WalkParams(2, 2, 1))
    wide_amps = [AmplifiedCode(LinearCode(2, 4, [0b0011, 0b0101]), wide, t) for t in (2, 3)]
    for amp in [tiny_amp(t) for t in (1, 2, 3, 4)] + wide_amps:
        for x in range(1, 1 << amp.base.k):
            assert encode(amp, x).tolist() == walk_xor_reference(amp, x), (amp.t, x)


def test_encode_flagship_digest_is_pinned(flagship):
    # t = 2, message 1: SHA-256 of the little-endian packed bits, as
    # computed by the per-walk encoder that the level-by-level one replaced
    amp = AmplifiedCode(LinearCode(2, 4, [0b0011, 0b0101]), flagship, 2)
    packed = np.packbits(encode(amp, 1), bitorder="little")
    assert hashlib.sha256(packed.tobytes()).hexdigest() == (
        "c59b865897b7e93743e908fe307b2d2a3e4105beea998984f70aa43de38a2dd4"
    )


def test_encode_with_b1_blocks_past_the_grid_dtype():
    # 2**9 inner vertices and 2**8 generators, so encode's b_1 blocks start
    # past 255, the largest b_1 of its uint8 choice grid: the pinned digest
    # is that of the encoder before the grid was narrowed
    sys = ReplacementSystem(build_complete_selfloop(3), build_aghp(9, 4), WalkParams(3, 3, 4))
    amp = AmplifiedCode(LinearCode(2, 8, [0x0F, 0x33]), sys, 2)
    packed = np.packbits(encode(amp, 3), bitorder="little")
    assert hashlib.sha256(packed.tobytes()).hexdigest() == (
        "8f6677e81eb4c728295ac9cf6fd626ba3478b7ca8100312423ac11aa020a8bdb"
    )


def random_code(k, n0, seed):
    rng = np.random.default_rng(seed)
    return LinearCode(k, n0, [int.from_bytes(rng.bytes(n0 // 8), "little") for _ in range(k)])


def test_encode_equals_the_all_starts_encoder(flagship):
    # the flagship at t = 1 and 2 (t = 3 would be 2**32 bits; the
    # (2, 3, 3) system takes it), a 128-vertex outer graph, which needs
    # two 64-lane groups of starts, and a 2**12-vertex one with 4 and 8
    # walks from a_0 = 0, far fewer than its 64 lane groups
    base = LinearCode(2, 4, [0b0011, 0b0101])
    s233 = ReplacementSystem(build_complete_selfloop(2), build_aghp(6, 3), WalkParams(2, 3, 3))
    g128 = ReplacementSystem(
        CayleyGraph(7, (1, 2), name="g128"), build_aghp(2, 1), WalkParams(1, 2, 1)
    )
    g4096 = ReplacementSystem(CayleyGraph(12, (1, 2)), build_aghp(2, 1), WalkParams(1, 2, 1))
    amps = [AmplifiedCode(base, flagship, t) for t in (1, 2)] + [AmplifiedCode(base, s233, 3)]
    amps += [AmplifiedCode(random_code(3, 128, 7), g128, t) for t in (1, 2, 3)]
    amps += [AmplifiedCode(random_code(2, 1 << 12, 11), g4096, t) for t in (1, 2)]
    for amp in amps:
        for x in range(1 << amp.base.k):
            assert np.array_equal(encode(amp, x), oracle.encode_all_starts(amp, x)), (amp.t, x)


def test_encode_million_vertex_outer_graph_at_t1():
    # 2**20 starts, 4 walks from 0, 2**22 bits: bit (a_0, b_1) is
    # f(a_0) ^ f(a_1), held against the scalar rotation on whole columns
    sys = ReplacementSystem(CayleyGraph(20, (1, 2)), build_aghp(2, 1), WalkParams(1, 2, 1))
    amp = AmplifiedCode(random_code(2, 1 << 20, 12), sys, 1)
    f = amp.f_for_message(3).bits
    a0 = np.arange(sys.num_outer)
    want = np.stack([f ^ f[oracle.rotation(sys, a0, b1)] for b1 in range(sys.num_inner)], axis=1)
    assert np.array_equal(encode(amp, 3), want.ravel())


def test_encode_is_linear():
    amp = flagship_like_small()
    words = {x: encode(amp, x) for x in range(1 << amp.base.k)}
    for x in range(1 << amp.base.k):
        for y in range(1 << amp.base.k):
            assert np.array_equal(words[x ^ y], words[x] ^ words[y])


def flagship_like_small():
    params = WalkParams(m=1, s=2, ell=1)
    sys = ReplacementSystem(build_complete_selfloop(1), build_aghp(2, 1), params)
    return AmplifiedCode(LinearCode(2, 2, [0b01, 0b10]), sys, 2)


def test_encode_budget():
    amp = tiny_amp()
    with pytest.raises(BudgetExceeded):
        encode(amp, 1, budget=10)
    assert encode(amp, 1, budget=amp.block_length).shape == (amp.block_length,)
    # a message out of range is refused by LinearCode.encode before the budget
    for x in (-1, 1 << amp.base.k):
        with pytest.raises(ValueError, match=f"message {x:#x} out of range for "):
            encode(amp, x, budget=0)


def test_code_bias_matches_materialized():
    # the DP result must equal the bias computed from explicit codewords
    amp = flagship_like_small()
    dp = code_bias(amp)
    brute = 0.0
    for x in range(1, 1 << amp.base.k):
        bits = encode(amp, x)
        brute = max(brute, abs(1.0 - 2.0 * float(bits.mean())))
    assert abs(dp - brute) <= 1e-12


def test_code_bias_scan_cap():
    params = WalkParams(m=4, s=2, ell=4)
    sys = ReplacementSystem(build_complete_selfloop(4), build_aghp(8, 4), params)
    rows = [1 << i for i in range(13)]
    amp = AmplifiedCode(LinearCode(13, 16, rows), sys, 2)
    with pytest.raises(ValueError):
        code_bias(amp)


def rate(amp):
    return Fraction(code_report(amp)["rate"])


def test_rate_examples(flagship):
    # tiny instance: 2 outer vertices, 4 inner vertices, degree 4, t=2
    assert rate(tiny_amp()) == Fraction(1, 2 * 4 * 4)
    amp = flagship_k2_amp(flagship)
    # 2 / (4 * 1024 * 1024^9) = 2 / 2^102
    assert rate(amp) == Fraction(2, 2**102)
    # each extra step divides the rate by the inner degree
    amp1 = flagship_k2_amp(flagship, t=1)
    assert rate(amp1) == Fraction(2, 4 * 1024)
    assert rate(flagship_k2_amp(flagship, t=2)) == rate(amp1) / 1024


def test_flagship_run(flagship):
    amp = flagship_k2_amp(flagship)
    bias = code_bias(amp)
    # balanced base codewords embed to signed affine indicators on the
    # 4-vertex outer graph, so the amplified bias is exactly 0
    assert bias <= 1e-20
    assert bias <= (2 * 7 / 32) ** 2
    report = code_report(amp)
    assert report["schema_version"] == 1
    # 2/2^102 in lowest terms
    assert report["rate"] == f"1/{2**101}"
    assert abs(report["bias_bound"] - 0.19140625) <= 1e-15
    assert not report["bias_bound_vacuous"]
    assert report["lambda_B"] == 7 / 32
    assert abs(report["distance_lower_bound"] - 0.5) <= 1e-12


def test_bias_decreases_with_walk_length(mono_system):
    # frozen regression chain on an instance with nonzero biases
    base = LinearCode(3, 8, [0b11, 0b1100, 0b110000])
    assert base.measured_bias_exact == Fraction(1, 2)
    measured = {}
    for t in (5, 10, 20):
        measured[t] = code_bias(AmplifiedCode(base, mono_system, t))
        assert abs(measured[t] - MONO_CHAIN[t]) <= 1e-12, t
    assert measured[20] < measured[10] < measured[5] < 0.5


def test_code_report_keys(mono_system):
    base = LinearCode(3, 8, [0b11, 0b1100, 0b110000])
    report = code_report(AmplifiedCode(base, mono_system, 5))
    expected = {
        "schema_version", "k", "n0", "base_bias", "t", "block_length",
        "rate", "bias", "bias_bound", "bias_bound_vacuous",
        "distance_lower_bound", "lambda_A", "lambda_B", "hypotheses_met",
    }
    assert set(report) == expected
    assert report["k"] == 3 and report["n0"] == 8
    assert report["block_length"] == 8 * 64 * 64**4
    json.dumps(report)  # must be serializable as-is


def test_gen_base_code_rows_are_the_draws_low_bit_first():
    # a target of 1 accepts the first draw; n0 = 70 ends in a partial byte
    code = gen_base_code(3, 70, 1.0, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    want = [sum(int(b) << i for i, b in enumerate(rng.integers(0, 2, size=70))) for _ in range(3)]
    assert code.rows == want
