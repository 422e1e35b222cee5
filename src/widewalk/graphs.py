"""Explicit Cayley graphs over F_2^dim, their exact spectra, and mixing checks,
plus the rules the package shares: the JSON readers of every input file,
the vertex rules and holds, the verdict rule of every float bound check.

Vertices are plain integers in [0, 2**dim); vertex v and generator u are
adjacent endpoints of an edge v ~ v ^ u.  Every generator is its own inverse
over F_2, so all graphs here are undirected by construction.  The generator
list is one read-only array in the word dtype, the smallest unsigned dtype
that holds a dim-bit word; its order defines neighbor indexing, and
duplicates are permitted only when the graph is flagged as a multigraph.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

import numpy as np

from .gf2core import IRREDUCIBLE_MODULI, _word_dtype, field_mul, hex_decode_array, hex_digits_array

SPECTRUM_SCAN_LIMIT = 24  # largest dim for an exhaustive character scan
AGHP_MAX_DIM = 62  # largest dim: every word, and 2**dim, also fits an int64
AGHP_MAX_GENERATORS = 1 << 24  # most words a builder allocates: 64 MiB to dim 32, 128 MiB beyond
GENERATOR_BATCH = 1 << 12  # words per chunk of CayleyGraph.generators_json
TOL_BOUND = 1e-12  # the slack of holds


def holds(value: float, bound: float) -> bool:
    """The verdict of every float bound check: value <= bound + TOL_BOUND.
    A NaN on either side fails."""
    return value <= bound + TOL_BOUND

_JSON_KINDS = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    list: ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v)),
}


def _json_object(text: str, what: str) -> dict:
    """text parsed as JSON, refused unless it is an object."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    return data


def json_field(data: dict, key: str, kind: type, default=None):
    """data[key], checked to be of JSON kind int (bools excluded), float
    (any number), str, bool or list (of strings).  A missing key gives
    default, or raises ValueError when default is None."""
    if key not in data and default is None:
        raise ValueError(f"missing field {key!r}")
    value = data.get(key, default)
    name, ok = _JSON_KINDS[kind]
    if not ok(value):
        raise ValueError(f"field {key!r} must be {name}, got {json.dumps(value)}")
    return value


@dataclass(frozen=True, eq=False)
class CayleyGraph:
    """Cayley graph over F_2^dim with an ordered generator list.

    Parameters
    ----------
    dim : int
        Group dimension, 1..AGHP_MAX_DIM; the graph has 2**dim vertices.
    generators : sequence or array of int
        Generator words, indexed 0..degree-1.  Order is significant.  They
        are kept as one read-only array in the word dtype, the smallest
        unsigned dtype that holds a dim-bit word (uint8 up to dim 8, uint16
        up to 16, uint32 up to 32, else uint64); an array already in it is
        not copied, so the graph shares its memory.  Signs and range are
        checked on the input, before the cast, so no word can wrap.
    name : str
        Label used in reports and serialized files.
    multigraph : bool
        Allow repeated generators (parallel edges / repeated self-loops).
    """

    dim: int
    generators: np.ndarray
    name: str = ""
    multigraph: bool = False

    def __post_init__(self) -> None:
        _check_dim(self.dim)
        gens = np.asarray(self.generators)
        if gens.size == 0:
            raise ValueError("generator list must be nonempty")
        if gens.ndim != 1 or gens.dtype.kind not in "iu":
            raise ValueError("generators must be a flat sequence of integers")
        lo, hi = int(gens.min()), int(gens.max())
        if lo < 0 or hi >> self.dim:
            raise ValueError(f"generator {lo if lo < 0 else hi} out of range for dim {self.dim}")
        # a view, so that an array already in the word dtype keeps its own
        # writeable flag
        gens = gens.astype(_word_dtype(self.dim), copy=False).view()
        # sort and compare rather than np.unique, whose first call imports numpy.ma
        if not self.multigraph:
            ordered = np.sort(gens)
            if np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("duplicate generators require multigraph=True")
        gens.flags.writeable = False
        object.__setattr__(self, "generators", gens)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CayleyGraph):
            return NotImplemented
        return (
            (self.dim, self.name, self.multigraph) == (other.dim, other.name, other.multigraph)
            and np.array_equal(self.generators, other.generators)
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.name, self.multigraph, self.generators.tobytes()))

    @property
    def degree(self) -> int:
        return self.generators.size

    @property
    def num_vertices(self) -> int:
        return 1 << self.dim

    @cached_property
    def character_table(self) -> np.ndarray:
        """Integer numerators of all character sums: entry alpha is
        sum over generators u of (-1)^<alpha, u>.  Dividing by the degree
        gives the full eigenvalue spectrum of the normalized adjacency
        operator.

        The table is built on the first read and kept, read-only, so every
        spectrum, convolution and DP on the graph reads the one table.
        Every partial sum of the transform is at most the degree in
        absolute value, so the table is int32 unless the degree reaches
        2**31.  The generator counts go straight into a table of that
        dtype (np.bincount would copy the read-only generators and count
        in int64), which the transform then consumes: two tables at the
        peak, and the one it writes is kept.

        add.at copies indices that are not intp through a 64 KiB buffer,
        more than a small table, so the words go in as intp slices of n/8
        words (a quarter of an int32 table), at least 2**10 and at most
        2**16 of them: from 2**11 entries up the scatter stays within the
        transform's two tables, and no slice is a large transient.
        """
        n = self.num_vertices
        counts = np.zeros(n, np.int32 if self.degree < 1 << 31 else np.int64)
        # a scalar of the table's own dtype keeps add.at on its fast path
        one, step = counts.dtype.type(1), min(max(n // 8, 1 << 10), 1 << 16)
        for lo in range(0, self.degree, step):
            np.add.at(counts, self.generators[lo:lo + step].astype(np.intp), one)
        table = fwht(counts, work=_consuming(counts, np.empty_like(counts)))
        table.flags.writeable = False
        return table

    def generators_json(self, document: str) -> Iterator[str]:
        """document, a json.dumps(indent=2) text whose top-level "generators"
        field is null, in chunks, with that null replaced by this graph's
        generator list: the bytes json.dumps(indent=2) writes there for the
        list of hex_encode strings of the words, written from the word
        array GENERATOR_BATCH words a chunk without building that list.

        The words were range-checked when the graph was built, so nothing
        here checks them again, and nothing can raise once the first chunk
        is out."""
        head, tail = document.split('"generators": null')
        yield head + '"generators": ['
        # one row per word: newline, the 4-space indent of depth 2, the
        # quoted digits and the item separator; the last row drops its comma
        n, ndigits = self.degree, (self.dim + 3) // 4
        for start in range(0, n, GENERATOR_BATCH):
            digits = hex_digits_array(self.generators[start:start + GENERATOR_BATCH], self.dim)
            rows = np.empty((len(digits), ndigits + 8), dtype=np.uint8)
            rows[:, :6] = np.frombuffer(b'\n    "', dtype=np.uint8)
            rows[:, 6:-2] = digits
            rows[:, -2:] = np.frombuffer(b'",', dtype=np.uint8)
            text = rows.tobytes().decode("ascii")
            yield text if start + GENERATOR_BATCH < n else text[:-1]
        yield "\n  ]" + tail

    def to_json(self) -> str:
        """{"name", "dim", "generators", "multigraph"} as json.dumps(indent=2)
        writes it, the generators as their hex_encode strings."""
        fields = {"name": self.name, "dim": self.dim, "generators": None,
                  "multigraph": self.multigraph}
        return "".join(self.generators_json(json.dumps(fields, indent=2)))

    @classmethod
    def from_json(cls, text: str) -> "CayleyGraph":
        payload = _json_object(text, "a graph")
        dim = json_field(payload, "dim", int)
        _check_dim(dim)
        return cls(
            dim=dim,
            generators=hex_decode_array(json_field(payload, "generators", list), dim),
            name=json_field(payload, "name", str, ""),
            multigraph=json_field(payload, "multigraph", bool, False),
        )


def _check_dim(dim: int) -> None:
    if not 0 < dim <= AGHP_MAX_DIM:
        raise ValueError(f"dim must be in 1..{AGHP_MAX_DIM}, got {dim}")


@dataclass(frozen=True)
class SpectralReport:
    """Expansion of a graph: the largest nontrivial eigenvalue magnitude,
    exact.  The eigenvalues of a Cayley graph over F_2 are its character
    sums over the degree, so lambda_exact is a rational with the degree
    as denominator."""

    lambda_exact: Fraction
    argmax_character: int

    @property
    def lam(self) -> float:
        return float(self.lambda_exact)


def build_aghp(r: int, ell: int) -> CayleyGraph:
    """Inner expander: a 2**(2*ell)-regular Cayley graph over F_2^r.

    Generators are indexed by pairs (x, y) of GF(2^ell) elements in
    lexicographic order, x major.  Bit i of generator (x, y) is the mod-2
    inner product <x^i, y> with the convention x^0 = 1 for every x.  The
    measured expansion satisfies lam <= (r - 1) * 2**(-ell).

    Repeated generators occur (every pair with y = 0 gives the zero word),
    so the result is flagged as a multigraph.
    """
    if ell <= 0 or r <= 0:
        raise ValueError("r and ell must be positive")
    if 2 * ell > r:
        raise ValueError(f"ell must satisfy ell <= r/2, got ell={ell}, r={r}")
    if r > AGHP_MAX_DIM:
        raise ValueError(f"r={r} exceeds {AGHP_MAX_DIM}, the largest dim")
    if ell not in IRREDUCIBLE_MODULI:
        raise ValueError(f"no baked-in modulus for ell={ell}")
    if 1 << (2 * ell) > AGHP_MAX_GENERATORS:
        raise ValueError(
            f"ell={ell} gives 4**{ell} generators, more than {AGHP_MAX_GENERATORS}"
        )
    # word(x, y) is F_2-linear in y: basis[x, j] = word(x, 2^j) has bit i
    # equal to bit j of x^i, and the words of y in [2^j, 2^(j+1)) are those
    # of y - 2^j with basis[x, j] xored in
    elems, bits = np.arange(1 << ell, dtype=np.int64), np.arange(ell)
    basis = np.zeros((elems.size, ell), dtype=np.int64)
    power = np.ones_like(elems)  # x^i for every x, with x^0 = 1 at x = 0 too
    for i in range(r):
        if i:
            power = field_mul(power, elems, ell)
        basis |= ((power[:, None] >> bits) & 1) << i
    words = np.zeros((elems.size, elems.size), dtype=_word_dtype(r))  # words[x, y]
    basis = basis.astype(words.dtype)
    for j in range(ell):
        np.bitwise_xor(words[:, : 1 << j], basis[:, j, None], out=words[:, 1 << j : 2 << j])
    return CayleyGraph(dim=r, generators=words.ravel(), name=f"aghp-r{r}-l{ell}", multigraph=True)


def build_complete_selfloop(m: int, selfloop: bool = True) -> CayleyGraph:
    """Cayley graph over F_2^m generated by every word (optionally skip 0).

    With the zero word included the graph is the complete graph with one
    self-loop per vertex and its expansion is exactly 0.  Without it the
    graph is the complete graph on 2**m vertices, whose expansion is
    1 / (2**m - 1).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if 1 << m > AGHP_MAX_GENERATORS:
        raise ValueError(f"m={m} gives 2**{m} generators, more than {AGHP_MAX_GENERATORS}")
    gens = np.arange(0 if selfloop else 1, 1 << m, dtype=_word_dtype(m))
    tag = "complete-selfloop" if selfloop else "complete-nonzero"
    return CayleyGraph(dim=m, generators=gens, name=f"{tag}-m{m}")


def fwht(a: np.ndarray, axis: int = -1, work=None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along one axis (the last by
    default), whose length must be a power of two, in a's dtype; a is left
    unchanged unless it is lent as a work buffer.

    Stages run in constant geometry (Pease 1968) over a (pre, n, post) view
    of a: each stage reads the neighbour pairs lo = x[:, 0::2], hi =
    x[:, 1::2] and writes lo + hi to the low half of its output and lo - hi
    to the high half, so every stage is two full-length ufunc calls, where
    the strided butterfly of Fino & Algazi (1976) ran numpy inner loops of
    h = 1, 2, 4 ... elements.  Each stage rotates the index bits right by
    one, so stage j combines bit j and after all log2(n) stages natural
    order is back.  That is the bit order (0 first) and the same two
    operations on the same pairs as the strided butterfly, so the result is
    bit-identical to it.

    The stages ping-pong between two buffers, one of which holds the
    result.  By default they are one new allocation.  work=(out, scratch)
    lends them instead: two C-contiguous arrays of a's size and dtype that
    do not overlap each other.  Stage j of log2(n) writes
    work[(log2(n) - 1 - j) % 2], so the last stage writes out and the
    result is always a view of out (a length-1 axis is copied into it);
    scratch is left as scratch.  Neither may overlap a, with one exception:
    a itself, the same array object, may be lent as work[log2(n) % 2], the
    buffer that the first stage only reads, and is then consumed.  a may be
    a strided view; only the reshape to (pre, n, post) may copy it.
    """
    a = np.asarray(a)
    shape, axis = a.shape, range(a.ndim)[axis]
    n = shape[axis]
    if n < 1 or n & (n - 1):
        raise ValueError(f"fwht needs a power-of-two length, got {n}")
    half, stages = n // 2, n.bit_length() - 1
    x = a.reshape(math.prod(shape[:axis]), n, math.prod(shape[axis + 1:]))
    bufs = np.empty((2, *x.shape), a.dtype) if work is None else _work_pair(work, a, x.shape, stages)
    if not stages:
        np.copyto(bufs[0], x)
    for stage in range(stages):
        out = bufs[(stages - 1 - stage) % 2]
        lo, hi = x[:, 0::2], x[:, 1::2]
        np.add(lo, hi, out=out[:, :half])
        np.subtract(lo, hi, out=out[:, half:])
        x = out
    return bufs[0].reshape(shape)


def _work_pair(work, a: np.ndarray, shape: tuple, stages: int) -> list[np.ndarray]:
    """fwht's lent buffers, checked and viewed in the (pre, n, post) shape."""
    if len(work) != 2:
        raise ValueError("fwht's work must be a pair of arrays")
    bufs = []
    for i, w in enumerate(work):
        if not isinstance(w, np.ndarray) or w.dtype != a.dtype or w.size != a.size:
            raise ValueError(f"each fwht work array must be a {a.dtype} array of {a.size} items")
        if not w.flags.c_contiguous:
            raise ValueError("each fwht work array must be C-contiguous")
        if np.shares_memory(w, a) and not (w is a and i == stages % 2):
            raise ValueError(
                f"an fwht work array overlaps the input (only the input itself, "
                f"as work[{stages % 2}], may be lent)")
        bufs.append(w.reshape(shape))
    if np.shares_memory(*bufs):
        raise ValueError("the two fwht work arrays overlap")
    return bufs


def _consuming(a: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The work pair with which fwht, along a's last axis, consumes a: a as
    work[log2(n) % 2], the buffer its first stage only reads, and spare as
    the other."""
    return (a, spare) if a.shape[-1].bit_length() % 2 else (spare, a)


def _convolve(values: np.ndarray, G: CayleyGraph) -> np.ndarray:
    """n times the sum of values[..., v ^ u] over the generators u of G, for
    every vertex v of the last axis (repeated generators count with
    multiplicity): the XOR convolution with the generator multiset, which
    by the convolution theorem over F_2^dim is one FWHT, a pointwise
    product with G's character table, and a second FWHT (n times the
    inverse transform).  It divides nothing, so it is exact on integer and
    object arrays.

    Both transforms run in the product's dtype, in one pair of buffers: the
    first ends in one of them, the product is taken there in place, and
    the second transform consumes it.  So the peak is two arrays of
    values' size, where a product and a fresh pair would be three."""
    chars = G.character_table
    pair = np.empty((2, *np.shape(values)), np.result_type(values, chars))
    x = fwht(np.asarray(values, pair.dtype), work=pair)
    np.multiply(x, chars, out=x)
    return fwht(x, work=_consuming(x, pair[1]))


def spectrum(G: CayleyGraph) -> SpectralReport:
    """Expansion of G: max over nonzero alpha of |character sum|, over the
    degree.  It reads G.character_table, is exact (integer arithmetic
    throughout) and refuses dim beyond SPECTRUM_SCAN_LIMIT."""
    if G.dim > SPECTRUM_SCAN_LIMIT:
        raise ValueError(
            f"dim {G.dim} exceeds the exhaustive character scan limit "
            f"{SPECTRUM_SCAN_LIMIT}; no exact spectrum is available"
        )
    numer = G.character_table[1:]
    num = max(int(numer.max()), -int(numer.min()))
    # np.argmax(np.abs(numer)) over the nontrivial characters, found by
    # comparison (argmax would copy the read-only table), and character 0
    # when all of them are 0 (complete graphs)
    idx = 1 + int(np.argmax((numer == num) | (numer == -num))) if num else 0
    return SpectralReport(Fraction(num, G.degree), idx)


@dataclass(frozen=True)
class InequalityCheck:
    """One inequality lhs <= rhs, judged by holds."""

    passed: bool
    lhs: float
    rhs: float
    detail: str


def mixing_check(G: CayleyGraph, f: np.ndarray, g: np.ndarray) -> InequalityCheck:
    """Check |E_{a~a'}[f(a) g(a')] - mu_f mu_g| <= lam * sigma_f * sigma_g by
    holds, for per-vertex arrays f and g and the measured expansion lam of G.

    The edge expectation pairs f with the generator average of g over
    every vertex: _convolve over n * degree.
    """
    n = G.num_vertices
    fv = vertex_values(f, G, "f")
    gv = vertex_values(g, G, "g")
    lam = spectrum(G).lam
    # an elementwise product and sum, not np.dot, whose summation order
    # would differ, and which starts BLAS's thread pool
    edge_mean = float((fv * (_convolve(gv, G) / (n * G.degree))).sum()) / n
    mu_f, mu_g = float(np.mean(fv)), float(np.mean(gv))
    sigma_f = float(np.sqrt(max(np.mean(fv * fv) - mu_f * mu_f, 0.0)))
    sigma_g = float(np.sqrt(max(np.mean(gv * gv) - mu_g * mu_g, 0.0)))
    lhs = abs(edge_mean - mu_f * mu_g)
    rhs = lam * sigma_f * sigma_g
    return InequalityCheck(holds(lhs, rhs), lhs, rhs, f"lam={lam!r}")


def vertex_values(f, graph: CayleyGraph, name: str) -> np.ndarray:
    """f, an array of one value per vertex of graph, as float64."""
    n = graph.num_vertices
    arr = np.asarray(f, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a per-vertex array of {n} values, got shape {arr.shape}")
    return arr


def _vertex_list(values, n: int, what: str, distinct: bool = False) -> list[int]:
    """values as plain ints in 0..n-1, each listed once when distinct.  A bool
    or a float is refused: numpy would read bools as a mask, or truncate."""
    vertices, seen = [], set()
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise ValueError(f"{what} {v!r} must be an integer")
        v = int(v)
        if not 0 <= v < n:
            raise ValueError(f"{what} {v} out of range 0..{n - 1}")
        if distinct and v in seen:
            raise ValueError(f"{what} {v} is repeated")
        seen.add(v)
        vertices.append(v)
    return vertices
