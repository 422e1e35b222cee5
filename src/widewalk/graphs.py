"""Explicit Cayley graphs over F_2^dim and their exact spectra, plus the
rules the package shares: the JSON readers of every input file, the vertex
rules and holds, the verdict rule of every float bound check.

Vertices are plain integers in [0, 2**dim); vertex v and generator u are
adjacent endpoints of an edge v ~ v ^ u.  Every generator is its own inverse
over F_2, so all graphs here are undirected by construction.  The generator
list is one read-only array in the word dtype, the smallest unsigned dtype
that holds a dim-bit word; its order defines neighbor indexing, and
duplicates are permitted only when the graph is flagged as a multigraph.
"""
from __future__ import annotations

import itertools
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
FWHT_SCRATCH = 1 << 16  # most bytes of fwht's one scratch buffer


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
        in int64), which the transform turns into the character table in
        place: one table at the peak, the one that is kept.

        add.at copies indices that are not intp through a 64 KiB buffer,
        more than a small table, so the words go in as intp slices of n/16
        words (an eighth of an int32 table, as much as the transform's
        scratch), at least 2**8 of them and at most FWHT_SCRATCH bytes:
        the build holds the table and at most FWHT_SCRATCH bytes beside it
        at every size.
        """
        n = self.num_vertices
        table = np.zeros(n, np.int32 if self.degree < 1 << 31 else np.int64)
        # a scalar of the table's own dtype keeps add.at on its fast path
        cap = FWHT_SCRATCH // np.dtype(np.intp).itemsize
        one, step = table.dtype.type(1), min(max(n // 16, 1 << 8), cap)
        for lo in range(0, self.degree, step):
            np.add.at(table, self.generators[lo:lo + step].astype(np.intp), one)
        fwht(table).flags.writeable = False
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


def fwht(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a along one axis (the last by
    default), whose length must be a power of two, in place: a itself is
    returned, transformed, in its own dtype.  a must be writeable, and its
    axes before and after the transform axis must each merge into one, so
    that its (pre, n, post) reshape is a view; a strided view qualifies
    when they do.  Anything else is refused with a ValueError.

    The bits of the axis run 0 first, each combining the pairs lo, hi that
    differ in it into lo + hi and lo - hi: the bit order, pairs and two
    operations of the strided butterfly of Fino & Algazi (1976), so the
    result is bit-identical to it.  The scratch is one buffer of at most
    FWHT_SCRATCH bytes.

    - An a of at most FWHT_SCRATCH bytes is ping-ponged with one buffer of
      its own size: every stage by _pease, on all of a in each call, or,
      along the last axis, on its rows as one flat tile (_low_bits), whose
      1-d calls cost less than 2-d ones.
    - A larger a takes an eighth of its size at most.  Along the last axis
      (post = 1) its low bits, as many as the buffer holds, run by _pease
      on tiles of whole rows (see _low_bits): two flat ufunc calls a
      stage, with long inner loops where the strided butterfly ran loops
      of 1, 2, 4 ... cells.  Every other bit runs as in-place butterflies
      through the buffer in chunks, whose pairs are runs of 2**bit * post
      cells: lo - hi into the buffer, lo + hi into lo, the buffer into hi.
    """
    shape, axis = a.shape, range(a.ndim)[axis]
    n = shape[axis]
    if n < 1 or n & (n - 1):
        raise ValueError(f"fwht needs a power-of-two length, got {n}")
    if not a.flags.writeable:
        raise ValueError("fwht transforms in place and cannot write a read-only array")
    pre, post = math.prod(shape[:axis]), math.prod(shape[axis + 1:])
    try:
        x = a.reshape((pre, n, post), copy=False)
    except ValueError:
        raise ValueError(
            "fwht transforms in place: the axes before and after the transform axis "
            "must each merge into one without a copy") from None
    bits = n.bit_length() - 1
    if not bits or not a.size:
        return a
    small = a.nbytes <= FWHT_SCRATCH
    if small and post > 1:  # the fewest calls: all of a in each
        y, ax = (x[0], 0) if pre == 1 else (x, 1)
        spare = np.empty_like(y)
        if _pease(y, spare, bits, ax) is spare:
            np.copyto(y, spare)
        return a
    scratch = np.empty(a.size if small else min(FWHT_SCRATCH // a.itemsize, a.size // 8), a.dtype)
    low = min(bits, scratch.size.bit_length() - 1) if post == 1 else 0
    if low:
        try:
            runs = [x.reshape(-1, copy=False)]
        except ValueError:  # rows that do not merge run one at a time
            runs = x[:, :, 0]
        for run in runs:
            _low_bits(run, 1 << low, scratch)
    for bit in range(low, bits):
        v = x.reshape(pre, n >> (bit + 1), 2, 1 << bit, post)
        for lo, hi, tmp in _chunks(v[:, :, 0], v[:, :, 1], scratch):
            np.subtract(lo, hi, out=tmp)
            np.add(lo, hi, out=lo)
            np.copyto(hi, tmp)
    return a


def _pease(buf: np.ndarray, spare: np.ndarray, stages: int, axis: int) -> np.ndarray:
    """stages of fwht in constant geometry (Pease 1968) along one axis of buf,
    ping-ponged with spare, an array of buf's shape: each stage reads the
    neighbour pairs lo = buf[..., 0::2, ...], hi = buf[..., 1::2, ...] and
    writes lo + hi to the low half of the other buffer and lo - hi to its
    high half, so stage j combines bit j and after all log2(n) stages
    natural order is back.  Returns the buffer the last stage wrote."""
    half, lead = buf.shape[axis] // 2, (slice(None),) * axis
    pairs, halves = (slice(0, None, 2), slice(1, None, 2)), (slice(half), slice(half, None))
    # (lo, hi, low half, high half) of the stages that read buf, then spare
    steps = [[src[lead + (c,)] for c in pairs] + [dst[lead + (c,)] for c in halves]
             for src, dst in ((buf, spare), (spare, buf))]
    for stage in range(stages):
        lo, hi, low, high = steps[stage & 1]
        np.add(lo, hi, out=low)
        np.subtract(lo, hi, out=high)
    return (buf, spare)[stages & 1]


def _low_bits(run: np.ndarray, size: int, scratch: np.ndarray) -> None:
    """Bits 0..log2(size)-1 of fwht on run, a 1-d view of rows of size cells,
    by _pease on tiles of as many whole rows as fit scratch.  A tile of r
    rows runs as one flat vector: its pairs share a row, and each stage
    moves the bit it combines from the bottom of the flat index to the top,
    so after log2(size) stages the rows are back in natural order but
    transposed, (size, r), and are copied back in C order."""
    k, step = size.bit_length() - 1, scratch.size // size * size
    for start in range(0, run.size, step):
        tile = run[start:start + step]
        rows, spare = tile.size // size, scratch[: tile.size]
        last = _pease(tile, spare, k, 0)
        if rows > 1:  # back from the transposed order, through scratch
            if last is tile:
                np.copyto(spare, tile)
            np.copyto(tile.reshape(rows, size), spare.reshape(size, rows).T)
        elif last is spare:
            np.copyto(tile, spare)


def _chunks(lo: np.ndarray, hi: np.ndarray, scratch: np.ndarray):
    """(lo, hi, tmp) over tiles of two arrays of one shape, with the axes of
    length 1 dropped, tmp a view of scratch in the tile's shape: whole axes
    from the innermost out while they fit in scratch, then a part of the
    next one."""
    budget, ext = scratch.size, list(lo.shape)
    for ax in reversed(range(lo.ndim)):
        ext[ax] = min(ext[ax], budget)
        budget //= ext[ax]
    for start in itertools.product(*(range(0, n, e) for n, e in zip(lo.shape, ext))):
        tile = tuple(slice(i, i + e) for i, e in zip(start, ext))
        part = lo[tile].squeeze()
        yield part, hi[tile].squeeze(), scratch[: part.size].reshape(part.shape)


def _convolve(values: np.ndarray, G: CayleyGraph, moduli: np.ndarray | None = None) -> np.ndarray:
    """n times the sum of values[..., v ^ u] over the generators u of G, for
    every vertex v of the last axis (repeated generators count with
    multiplicity): the XOR convolution with the generator multiset, which
    by the convolution theorem over F_2^dim is one FWHT, a pointwise
    product with G's character table, and a second FWHT (n times the
    inverse transform).  It divides nothing, so it is exact on object
    arrays of Python ints, and on integer arrays while no sum leaves their
    dtype.

    moduli, a (K, 1) int64 column of primes below 2**31, makes it a residue
    convolution: values is then a (K, n) int64 array of residues in
    [0, p), row i modulo p = moduli[i], and row i of the result is the sum
    above modulo p, in [0, p).  A transform of cells below c in magnitude
    leaves them below n * c, and the product below degree * c, so a
    reduction modulo p runs where the next step could pass 2**63 and after
    the second transform: for n and degree below 2**32 no cell reaches
    2**63.  On small graphs (n * n * degree below 2**32) that is the last
    reduction alone.

    Both transforms run in place on one copy of values in the product's
    dtype, and the product with the table is taken in it too: one array of
    values' size at the peak besides values itself."""
    x = fwht(np.array(values, np.result_type(values, G.character_table)))
    if moduli is None:
        np.multiply(x, G.character_table, out=x)
        return fwht(x)
    n, top = G.num_vertices, G.num_vertices << 31  # the bound after a transform
    if top * G.degree >= 1 << 63:
        x %= moduli
        top = 1 << 31
    np.multiply(x, G.character_table, out=x)
    if top * G.degree * n >= 1 << 63:
        x %= moduli
    fwht(x)
    x %= moduli
    return x


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
    hi, lo = int(numer.max()), int(numer.min())
    num = max(hi, -lo)
    # np.argmax(np.abs(numer)) over the nontrivial characters (np.abs would
    # copy the read-only table), and character 0 when all of them are 0
    # (complete graphs)
    idx = 1 + _first_of(numer, {num, -num} & {hi, lo}) if num else 0
    return SpectralReport(Fraction(num, G.degree), idx)


def _first_of(a: np.ndarray, values: set[int], step: int = FWHT_SCRATCH) -> int:
    """The first index of the 1-d array a that holds one of values, which
    must occur in a: a scan in slices of step cells through one bool mask
    of a slice's size, which stops at the first slice that holds one."""
    mask = np.empty(min(a.size, step), bool)
    for start in range(0, a.size, mask.size):
        part = a[start:start + mask.size]
        hit = mask[: part.size]
        firsts = []
        for v in values:
            i = int(np.equal(part, v, out=hit).argmax())
            if hit[i]:
                firsts.append(start + i)
        if firsts:
            return min(firsts)
    raise ValueError(f"none of {sorted(values)} occurs")


def _check_walk_length(t: int) -> int:
    """t, the one rule of every walk length: at least one step."""
    if t < 1:
        raise ValueError("t must be at least 1")
    return t


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
