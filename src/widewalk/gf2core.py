"""Plain-integer arithmetic over F_2^r and GF(2^ell).

A word of F_2^r is a nonnegative integer below 2**r (or an integer numpy
array of them), bit 0 the least significant position: addition is ``^``
and the inner product <x, y> is the parity of ``x & y``.  Serialization
is lowercase hex with the least significant nibble first, so the wire
format is bit-exact and independent of word length padding; one word at a
time for Python ints, or a whole array at once (decoding to an array in the
smallest unsigned dtype that holds a length-bit word, or encoding an array
of words to an array of ASCII digits).

Field elements of GF(2^ell) are polynomials over F_2 encoded the same way
(bit i is the coefficient of x^i), reduced modulo a fixed irreducible
polynomial of degree ell.  The moduli for ell = 1..16 are baked in;
tests/test_gf2core.py proves each is the smallest irreducible of its degree.
"""
from __future__ import annotations

import numpy as np

# Lexicographically smallest irreducible polynomial of each degree.  Keeping
# a fixed table (rather than searching at run time) pins the field, and with
# it every derived generator set, across versions and platforms.
IRREDUCIBLE_MODULI: dict[int, int] = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000000011,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000000001001,
    13: 0b10000000011011,
    14: 0b100000000100001,
    15: 0b1000000000000011,
    16: 0b10000000000101011,
}


def field_mul(a, b, ell: int):
    """Product of a and b in GF(2^ell), elementwise if either is an integer
    numpy array; both must be reduced (below 2**ell).

    Shift and add with the reduction folded into each doubling of a.  No
    step branches on a value, so Python ints and int64 arrays run the
    same code.
    """
    if ell not in IRREDUCIBLE_MODULI:
        raise ValueError(f"no baked-in modulus for ell={ell}")
    if np.any((a | b) >> ell):
        raise ValueError(f"operands must be field elements in 0..{(1 << ell) - 1}")
    modulus = IRREDUCIBLE_MODULI[ell]
    acc = a & 0
    for i in range(ell):
        acc = acc ^ (a * ((b >> i) & 1))
        a = a << 1
        a = a ^ (modulus * (a >> ell))
    return acc


def hex_encode(value: int, length: int) -> str:
    """Lowercase hex, least significant nibble first.

    Nibble j of the output covers bits 4j..4j+3.  The number of hex digits
    is ceil(length / 4), so the encoding is fixed width for a fixed length.
    """
    if not 0 <= value < (1 << length):
        raise ValueError(f"value {value} out of range for {length}-bit word")
    # format writes the most significant digit first
    return f"{value:0{(length + 3) // 4}x}"[::-1]


_HEX_CHARS = frozenset("0123456789abcdefABCDEF")


def parse_hex(text: str, what: str) -> int:
    """Value of nonempty ASCII hex, most significant digit first; unlike
    int(text, 16) it refuses a sign, 0x, _, whitespace and non-ASCII digits."""
    if not text or not _HEX_CHARS.issuperset(text):
        raise ValueError(f"{what} {text!r} is not a string of ASCII hex digits")
    return int(text, 16)


def hex_decode(text: str, length: int) -> int:
    """Inverse of :func:`hex_encode`."""
    ndigits = (length + 3) // 4
    if len(text) != ndigits:
        raise ValueError(f"expected {ndigits} hex digits for a {length}-bit word, got {len(text)}")
    value = parse_hex(text[::-1], "word (digits reversed)")
    if value >= (1 << length):
        raise ValueError(f"decoded value {value} out of range for {length}-bit word")
    return value


_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_HEX_VALUES = np.full(256, 255, dtype=np.uint8)  # ASCII byte -> nibble, 255 if not hex
_HEX_VALUES[_HEX_DIGITS] = np.arange(16)
_HEX_VALUES[np.frombuffer(b"ABCDEF", dtype=np.uint8)] = np.arange(10, 16)


def _word_dtype(length: int) -> np.dtype:
    """The dtype of every array of length-bit words: the smallest unsigned
    dtype that holds one (uint8 up to 8 bits, then uint16, uint32, uint64)."""
    return np.min_scalar_type((1 << length) - 1)


def hex_digits_array(words: np.ndarray, length: int) -> np.ndarray:
    """The ASCII digits of :func:`hex_encode` of every entry of a 1-D
    unsigned array of length-bit words, as a (words, digits) uint8 array:
    one nibble gather per digit.  The words must be in range, as a
    CayleyGraph's are; they are not checked here."""
    ndigits = (length + 3) // 4
    chars = np.empty((words.size, ndigits), dtype=np.uint8)
    for j in range(ndigits):
        chars[:, j] = _HEX_DIGITS[(words >> (4 * j)) & 0xF]
    return chars


def hex_decode_array(texts: list[str], length: int) -> np.ndarray:
    """:func:`hex_decode` of every string at once (ASCII hex digits only),
    as an array in the smallest unsigned dtype that holds a length-bit
    word.  The range is checked on the top digit, before any word is
    formed, so nothing wraps."""
    if not 0 < length < 64:
        raise ValueError(f"array words must be 1..63 bits long, got {length}")
    ndigits = (length + 3) // 4
    if any(len(h) != ndigits for h in texts):
        raise ValueError(f"expected {ndigits} hex digits for every {length}-bit word")
    try:
        raw = "".join(texts).encode("ascii")
    except UnicodeEncodeError:
        raise ValueError("words must be ASCII hex strings") from None
    nibbles = _HEX_VALUES[np.frombuffer(raw, dtype=np.uint8)].reshape(len(texts), ndigits)
    if np.any(nibbles == 255):
        raise ValueError("words must be ASCII hex strings")
    if np.any(nibbles[:, -1] >> (length - 4 * (ndigits - 1))):
        raise ValueError(f"a decoded word is out of range for {length}-bit words")
    dtype = _word_dtype(length)
    words = np.zeros(len(texts), dtype=dtype)
    for j in range(ndigits):
        words |= nibbles[:, j].astype(dtype) << (4 * j)
    return words
