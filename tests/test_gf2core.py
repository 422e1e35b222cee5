"""Field and integer-word primitives checked against from-scratch oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest

from widewalk.gf2core import (
    IRREDUCIBLE_MODULI,
    field_mul,
    hex_decode,
    hex_decode_array,
    hex_encode,
    parse_hex,
)
from widewalk.graphs import CayleyGraph, spectrum


def oracle_mul(a, b):
    # schoolbook carryless multiply
    out = 0
    i = 0
    while b >> i:
        if (b >> i) & 1:
            out ^= a << i
        i += 1
    return out


def oracle_mod(a, m):
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def oracle_irreducible(p):
    d = p.bit_length() - 1
    if d <= 0:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if q.bit_length() - 1 >= 1 and oracle_mod(p, q) == 0:
            return False
    return True


def test_oracle_irreducible_hand_values():
    # x, x + 1, x^2 + x + 1, x^3 + x + 1 are irreducible; 0, 1, x^2 = x * x
    # and x^2 + 1 = (x + 1)^2 are not
    for p in (0b10, 0b11, 0b111, 0b1011):
        assert oracle_irreducible(p), bin(p)
    for p in (0, 1, 0b100, 0b101):
        assert not oracle_irreducible(p), bin(p)


def test_moduli_table_is_lex_minimal():
    # each baked-in modulus has degree ell, is irreducible, and no smaller
    # polynomial of degree ell is
    assert sorted(IRREDUCIBLE_MODULI) == list(range(1, 17))
    for ell, m in IRREDUCIBLE_MODULI.items():
        assert m.bit_length() - 1 == ell
        assert oracle_irreducible(m), ell
        assert not any(oracle_irreducible(p) for p in range(1 << ell, m)), ell


def test_hex_round_trip():
    for length in (1, 3, 4, 7, 8, 10):
        width = (length + 3) // 4
        for w in range(1 << length):
            text = hex_encode(w, length)
            assert len(text) == width
            assert hex_decode(text, length) == w
    with pytest.raises(ValueError):
        hex_encode(1 << 3, 3)
    with pytest.raises(ValueError):
        hex_encode(-1, 3)


def test_hex_encode_matches_the_per_digit_reference():
    def per_digit(value, length):
        return "".join("0123456789abcdef"[(value >> (4 * j)) & 0xF] for j in range((length + 3) // 4))

    rng = random.Random(5)
    for length in (1, 4, 5, 63, 64, 65, 4097):
        for w in [0, 1, (1 << length) - 1] + [rng.getrandbits(length) for _ in range(20)]:
            assert hex_encode(w, length) == per_digit(w, length), (length, w)


def test_hex_is_lsb_nibble_first():
    assert hex_encode(1, 8) == "10"
    assert hex_encode(0x2f, 8) == "f2"
    assert hex_decode("f2", 8) == 0x2F
    with pytest.raises(ValueError):
        hex_decode("100", 8)
    with pytest.raises(ValueError):
        hex_decode("f", 1)  # decodes to 15, out of range for 1 bit


def test_parse_hex_takes_ascii_digits_only():
    assert parse_hex("1aF", "word") == 0x1AF
    # all of these are accepted by int(text, 16)
    for text in ("", "0x1", "1_0", "+1", "-1", " 1", "\u0663", "\uff11"):
        with pytest.raises(ValueError, match="is not a string of ASCII hex digits"):
            parse_hex(text, "word")
        with pytest.raises(ValueError):
            hex_decode(text, 4 * max(len(text), 1))


def test_hex_array_codec_matches_scalar_codec():
    rng = np.random.default_rng(7)
    cases = [(length, np.arange(1 << length)) for length in (1, 3, 5, 8, 13)]
    top = (1 << 62) - 1
    cases.append((62, np.concatenate([[0, 1, top], rng.integers(0, top, size=2000, endpoint=True)])))
    # the array encoder is checked through the graph JSON it writes (test_graphs)
    for length, words in cases:
        texts = [hex_encode(int(w), length) for w in words]
        decoded = hex_decode_array(texts, length)
        assert decoded.dtype == np.min_scalar_type((1 << length) - 1)
        assert decoded.tolist() == [hex_decode(h, length) for h in texts], length
        assert np.array_equal(hex_decode_array([h.upper() for h in texts], length), decoded)
    assert hex_decode_array([], 4).tolist() == []
    # the widest array word, 63 bits, decodes into uint64
    assert hex_decode_array(["f" * 15 + "7"], 63).tolist() == [(1 << 63) - 1]
    for texts, length in ((["1"], 5), (["ff"], 5), (["0g"], 5), (["0\u0663"], 5),
                          (["1", "23"], 4), (["f" * 16], 63), (["1"], 64), (["1"], 0)):
        with pytest.raises(ValueError):
            hex_decode_array(texts, length)


def test_character_sum_hand_values():
    # character sums of integer words are the graph's character table
    # divided by its degree; single generator u: (-1)^<alpha, u>
    u = 0b011
    tab = CayleyGraph(3, (u,)).character_table
    for alpha in range(8):
        assert tab[alpha] == (-1) ** (bin(alpha & u).count("1") % 2)
    # full group as generators: 1 at alpha = 0, exactly 0 elsewhere
    tab = CayleyGraph(3, tuple(range(8))).character_table
    assert tab.tolist() == [8] + [0] * 7


def test_character_sum_is_exact_fraction():
    rep = spectrum(CayleyGraph(2, (1, 2, 3)))
    assert rep.lambda_exact == Fraction(1, 3)


def power(x, i, ell):
    """x**i in GF(2^ell) by repeated field_mul, with x**0 = 1 for every x."""
    p = 1
    for _ in range(i):
        p = field_mul(p, x, ell)
    return p


def test_gf4_multiplication_table():
    # GF(4) with modulus x^2 + x + 1: elements 0, 1, x, x+1
    x, x1 = 0b10, 0b11
    assert field_mul(x, x, 2) == x1  # x^2 = x + 1
    assert field_mul(x, x1, 2) == 1  # x * (x+1) = 1
    assert field_mul(x1, x1, 2) == x
    assert field_mul(np.array([x, x1, x1]), np.array([x, x, x1]), 2).tolist() == [x1, 1, x]


def test_gf8_cube_identity():
    # modulus x^3 + x + 1, so x^3 = x + 1
    assert IRREDUCIBLE_MODULI[3] == 0b1011
    assert power(0b010, 3, 3) == 0b011


def test_field_mul_matches_oracle_mod_of_oracle_mul():
    for ell in range(1, 17):
        rng = random.Random(ell)
        for _ in range(50):
            a, b = rng.randrange(1 << ell), rng.randrange(1 << ell)
            assert field_mul(a, b, ell) == oracle_mod(oracle_mul(a, b), IRREDUCIBLE_MODULI[ell])


def test_field_axioms_exhaustive_small():
    # every (a, b, c) of GF(2^ell) for ell <= 4, scalar and array calls alike
    for ell in (1, 2, 3, 4):
        q = 1 << ell
        a, b, c = (v.ravel() for v in np.meshgrid(*[np.arange(q, dtype=np.int64)] * 3, indexing="ij"))
        ab = field_mul(a, b, ell)
        assert ab.dtype == np.int64
        assert ab.tolist() == [field_mul(int(x), int(y), ell) for x, y in zip(a, b)]
        assert np.array_equal(field_mul(a, 1, ell), a)
        assert np.array_equal(ab, field_mul(b, a, ell))
        assert np.array_equal(field_mul(ab, c, ell), field_mul(a, field_mul(b, c, ell), ell))
        assert np.array_equal(field_mul(a, b ^ c, ell), ab ^ field_mul(a, c, ell))


def test_field_inverses_exist():
    for ell in (1, 2, 3, 4):
        q = 1 << ell
        for v in range(1, q):
            inverses = [u for u in range(1, q) if field_mul(v, u, ell) == 1]
            assert len(inverses) == 1


def test_field_pow_conventions():
    assert power(0, 0, 4) == 1
    assert power(0, 5, 4) == 0
    for v in range(1, 16):
        assert power(v, 15, 4) == 1  # multiplicative group has order 15
        assert power(v, 16, 4) == v


def test_multiplicative_group_is_cyclic():
    for ell in (2, 3, 4):
        q = 1 << ell
        orders = []
        for a in range(1, q):
            k = 1
            p = a
            while p != 1:
                p = field_mul(p, a, ell)
                k += 1
            orders.append(k)
        assert max(orders) == q - 1


def test_field_mismatch_rejected():
    # an element of GF(8) is not an operand of GF(4) multiplication
    with pytest.raises(ValueError):
        field_mul(0b100, 1, 2)
    with pytest.raises(ValueError):
        field_mul(np.array([1, 0b100]), 1, 2)


def test_field_elem_validation():
    with pytest.raises(ValueError):
        field_mul(8, 1, 3)
    with pytest.raises(ValueError):
        field_mul(-1, 1, 3)
    with pytest.raises(ValueError):
        field_mul(0, 0, 40)  # no baked-in modulus that large
