"""Distance amplification for binary linear codes.

A small random linear base code (bias verified exhaustively) is embedded
on the outer graph's vertices and each message's codeword is re-encoded as
the XOR of the embedded bits along every enumerated wide walk.  Bit order
is the enumeration order of walk seeds, which is the code's coordinate
order everywhere.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from . import gf2core
from .amplify import SignedFn, _levels, bias_bound, lemma_hypotheses, moments, vacuous
from .graphs import _check_walk_length, _json_object, json_field
from .walks import DEFAULT_BUDGET, BudgetExceeded, ReplacementSystem, _walk_blocks

MAX_EXHAUSTIVE_K = 16
MAX_DP_SCAN_K = 12


class BaseCodeSearchFailed(Exception):
    """Random search exhausted its tries; carries the best bias found."""

    def __init__(self, tries: int, best_bias: Fraction):
        super().__init__(
            f"no generator matrix with bias <= target in {tries} tries; "
            f"best found {float(best_bias)!r}"
        )
        self.tries = tries
        self.best_bias = best_bias


def _check_shape(k: int, n0: int) -> None:
    """The one shape rule of a base code: k in 1..MAX_EXHAUSTIVE_K, the cap
    of the exhaustive bias scan, and n0 at least k."""
    if not 1 <= k <= MAX_EXHAUSTIVE_K:
        raise ValueError(f"k must be in 1..{MAX_EXHAUSTIVE_K} for exhaustive bias")
    if n0 < k:
        raise ValueError("n0 must be at least k")


class LinearCode:
    """Binary linear code given by k generator rows of n0 bits each.

    Bit i of a row is coordinate i of the codeword (low bit first).  The
    maximum codeword bias is verified exhaustively at construction, which
    caps k at 16: one Gray-code pass visits every nonzero message, step i
    XORing row ctz(i) into the one codeword it holds, and keeps the
    largest |n0 - 2*weight|, so the bias is that over n0.
    """

    def __init__(self, k: int, n0: int, rows: list[int]):
        _check_shape(k, n0)
        if len(rows) != k:
            raise ValueError(f"expected {k} rows, got {len(rows)}")
        for row in rows:
            if not 0 <= row < (1 << n0):
                raise ValueError(f"row {row:#x} out of range for {n0} bits")
        self.k = k
        self.n0 = n0
        self.rows = list(rows)
        word = worst = 0
        for i in range(1, 1 << k):
            word ^= self.rows[(i & -i).bit_length() - 1]
            worst = max(worst, abs(n0 - 2 * word.bit_count()))
        self.measured_bias_exact = Fraction(worst, n0)

    @property
    def measured_bias(self) -> float:
        return float(self.measured_bias_exact)

    def encode(self, x: int) -> int:
        if not 0 <= x < (1 << self.k):
            raise ValueError(f"message {x:#x} out of range for {self.k} bits")
        word = 0
        for i in range(self.k):
            if (x >> i) & 1:
                word ^= self.rows[i]
        return word

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n0": self.n0,
            "rows": [gf2core.hex_encode(r, self.n0) for r in self.rows],
            "bias": self.measured_bias,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LinearCode":
        data = _json_object(text, "a base code")
        k, n0 = json_field(data, "k", int), json_field(data, "n0", int)
        code = cls(k, n0, [gf2core.hex_decode(h, n0) for h in json_field(data, "rows", list)])
        bias = json_field(data, "bias", float, code.measured_bias)
        if bias != code.measured_bias:  # the float to_json_dict writes; NaN equals nothing
            raise ValueError(f"stored bias {bias} disagrees with recomputed {code.measured_bias}")
        return code


def gen_base_code(
    k: int,
    n0: int,
    target_bias: Union[float, Fraction],
    rng: np.random.Generator,
    max_tries: int = 1000,
) -> LinearCode:
    """Draw random generator matrices until the exhaustive bias meets the
    target.  Deterministic given the rng state; raises with the best bias
    found if max_tries is exhausted.  Each try draws k * n0 bits and
    scans the 2^k - 1 nonzero codewords of n0 bits."""
    _check_shape(k, n0)
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")
    if isinstance(target_bias, Fraction):
        target = target_bias
    elif not np.isfinite(target_bias):
        raise ValueError(f"target bias must be a finite number, got {target_bias}")
    else:
        # str() round-trips the shortest decimal, so 0.28 means 28/100
        # rather than the nearest binary double
        target = Fraction(str(float(target_bias)))
    if target < 0:  # no code has a negative bias: refused before anything is drawn
        raise ValueError(f"target bias must be nonnegative, got {target_bias}")
    best = Fraction(1)
    for _ in range(max_tries):
        rows = []
        for _ in range(k):
            bits = rng.integers(0, 2, size=n0)  # bit i of the row is bits[i]
            rows.append(int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"))
        code = LinearCode(k, n0, rows)
        if code.measured_bias_exact <= target:
            return code
        best = min(best, code.measured_bias_exact)
    raise BaseCodeSearchFailed(max_tries, best)


@dataclass(frozen=True)
class AmplifiedCode:
    """Base code + walk system + walk length; the embedding is vertex i
    <- coordinate i (see f_for_message)."""

    base: LinearCode
    sys: ReplacementSystem
    t: int

    def __post_init__(self) -> None:
        _check_walk_length(self.t)
        if self.sys.num_outer < self.base.n0:
            raise ValueError(
                f"outer graph has {self.sys.num_outer} vertices, "
                f"base code needs {self.base.n0}"
            )

    def f_for_message(self, x: int) -> SignedFn:
        """The codeword of x as an assignment on the outer graph:
        coordinate i lands on vertex i, every vertex past n0 gets 0.

        With a snug embedding (|A| = n0) the assignment's bias equals the
        codeword's bias exactly; padding dilutes the codeword and adds
        |A| - n0 forced zeros, so the bias relation degrades as |A| grows
        past n0.
        """
        n0 = self.base.n0
        bits = np.zeros(self.sys.num_outer, dtype=np.int64)
        packed = np.frombuffer(self.base.encode(x).to_bytes(-(-n0 // 8), "little"), dtype=np.uint8)
        bits[:n0] = np.unpackbits(packed, count=n0, bitorder="little")
        return SignedFn(bits)

    @property
    def block_length(self) -> int:
        return self.sys.seed_count(self.t)


def encode(amp: AmplifiedCode, x: int, budget: int = DEFAULT_BUDGET) -> np.ndarray:
    """Codeword bits in walk-seed enumeration order: each bit XORs the
    embedded assignment f over the t+1 outer vertices of one walk.

    The outer graph is a Cayley graph over F_2, so the walk of seed
    (a_0, b_1, u) has outer vertices a_j = a_0 ^ c_j, where c_j is a_j of
    the walk (0, b_1, u).  Each inner walk is therefore expanded once, by
    ReplacementSystem.expand from a_0 = 0, and every a_0 is read off it at
    once.  The starts go in lanes of w = min(64, |A|) bits, where bit i of
    mask[c] is f(i ^ c).  As |A| is a power of two and a lane starts at a
    multiple g of w, bit i of mask[c ^ g] is f((g + i) ^ c), so bit i of
    the XOR of mask[c_j ^ g] over j is the codeword bit of start g + i.
    mask[q w + r] is the word of f on vertices q w .. q w + w-1 with bit i
    moved to bit i ^ r, which log2 w block swaps build.

    With N = |B| * d_B**(t-1) walks from 0, the work is O(|A|) to build
    mask, (t+1) N |A| / w gathers and |A| N bytes written: linear in the
    block length plus |A|.  The walks come from walks._walk_blocks in
    blocks of about 2**16 and the lanes go in batches of about 2**16
    words, so peak memory stays flat.
    """
    f = amp.f_for_message(x)  # LinearCode.encode refuses x before the budget
    count = amp.block_length
    if count > budget:
        raise BudgetExceeded(count, budget)
    sys, t = amp.sys, amp.t
    n_a = sys.num_outer
    width = min(64, n_a)
    lane_type = np.dtype(f"<u{max(8, width) // 8}")
    words = np.packbits(f.bits.astype(np.uint8), bitorder="little")
    mask = np.repeat(words.view(lane_type), width).reshape(-1, width)
    for k in range(width.bit_length() - 1):
        s = 1 << k
        low = lane_type.type(sum(1 << i for i in range(width) if not i & s))
        moved = mask.reshape(len(mask), -1, 2, s)[:, :, 1]  # the columns r with bit k set
        moved[...] = (moved >> s) & low | (moved & low) << s
    mask = mask.ravel()
    out = np.empty((n_a, count // n_a), dtype=np.uint8)
    for start, A, _ in _walk_blocks(sys, t):
        cols = slice(start, start + len(A))
        lanes = max(1, (1 << 16) // len(A))
        for g_lo in range(0, n_a, lanes * width):
            g = np.arange(g_lo, min(g_lo + lanes * width, n_a), width, dtype=A.dtype)[:, None]
            acc = mask.take(g)  # c_0 = 0
            for c in A.T[1:]:
                acc = acc ^ mask.take(g ^ c)
            rows = out[g_lo:g_lo + len(g) * width, cols]
            for i in range(width):
                rows[i::width] = (acc >> i) & 1
    return out.ravel()


def code_bias(amp: AmplifiedCode) -> float:
    """Max bias over all nonzero messages, each evaluated by the exact DP
    on its embedded assignment (codewords never materialized).  Each
    message streams the DP to level t, as the bias lemma does, and only
    that level is taken back to the primal domain; the stream runs to its
    end, which frees the loop's block, before the moments are taken."""
    if amp.base.k > MAX_DP_SCAN_K:
        raise ValueError(
            f"k = {amp.base.k} exceeds the exhaustive message scan cap "
            f"{MAX_DP_SCAN_K}"
        )
    bias = 0.0
    for x in range(1, 1 << amp.base.k):
        (table,) = _levels(amp.sys, amp.f_for_message(x), amp.t, None, amp.t)
        bias = max(bias, moments(table).eps)
    return bias


def code_report(amp: AmplifiedCode) -> dict:
    """Bias, the exact rate k / (|A| * |B| * d_B**(t-1)), the one-sided
    distance bound and the lemma's hypotheses on the base code's bias,
    JSON-ready; the headline bound is flagged by amplify.vacuous, as in
    the bias-lemma check."""
    bias = code_bias(amp)
    met, _, lam_a, lam_b = lemma_hypotheses(amp.sys, amp.base.measured_bias_exact)
    lam, s = float(lam_b), amp.sys.params.s
    bound = bias_bound(lam, amp.t, s)
    r = Fraction(amp.base.k, amp.block_length)
    return {
        "schema_version": 1,
        "k": amp.base.k,
        "n0": amp.base.n0,
        "base_bias": amp.base.measured_bias,
        "t": amp.t,
        "block_length": amp.block_length,
        "rate": f"{r.numerator}/{r.denominator}",
        "bias": bias,
        "bias_bound": bound,
        "bias_bound_vacuous": vacuous(bound, lam=lam, s=s),
        "distance_lower_bound": (1.0 - bias) / 2.0,
        "hypotheses_met": met,
        "lambda_A": float(lam_a),
        "lambda_B": float(lam_b),
    }
