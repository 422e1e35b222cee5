"""Exact dynamic programs for walk-sign functionals and their bound checks.

Conventions: a level-k table for the wide walk covers k steps, i.e. k+1
sign factors f(a_0)..f(a_k); pure-walk tables h_k cover k vertices (k-1
steps).  A walk step averages a table over a Cayley graph's generators by
the convolution theorem: a Walsh-Hadamard transform, a pointwise product
with the character table that each graph builds once and keeps
(CayleyGraph.character_table), and the transform back.  The pure-walk DPs
take the whole step through graphs._convolve; the wide-walk DPs stay in
the transformed domain of inner blocks 2..s between levels, transform
only block 1 per step, and leave that domain only for the levels they
return (see _wide_levels).  A level k < s holds only the blocks its walk
has read, d^(k-1) of the d^(s-1) columns of blocks 2..s, and its table
keeps only the d^k columns of blocks 1..k, which a read of its values
expands (see DpTable).
Their working set is one (2, n_A * n_B) float block per call, the level
and one spare row, plus the tables they return: every transform runs in
place (graphs.fwht).  The DP loops yield their levels one at a time, and
a check given no tables reads the moments of each level as it comes and
drops it (see _levels).  All arithmetic is double precision in a fixed
operation order, so results are bit-identical across runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .graphs import (
    CayleyGraph,
    _check_walk_length,
    _convolve,
    _vertex_list,
    fwht,
    holds,
    spectrum,
)
from .walks import ReplacementSystem


class SignedFn:
    """A {0,1} assignment on outer vertices together with its sign table."""

    def __init__(self, bits: Union[Sequence[int], np.ndarray]):
        arr = np.asarray(bits)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("bits must be a nonempty 1-d sequence")
        if arr.dtype.kind not in "biu":  # refused, not truncated to an integer
            raise ValueError(f"bits must be integers, got {arr.dtype} values")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bits must be 0/1 valued")
        self.bits = arr.astype(np.int8)
        self.signs = (1.0 - 2.0 * arr).astype(np.float64)

    @property
    def n(self) -> int:
        return self.bits.size

    @property
    def bias(self) -> float:
        return float(self.bias_exact)

    @property
    def bias_exact(self) -> Fraction:
        return Fraction(abs(int(self.n - 2 * int(self.bits.sum()))), self.n)

    @classmethod
    def zero(cls, n: int) -> "SignedFn":
        return cls(np.zeros(n, dtype=np.int64))

    @classmethod
    def from_support(cls, n: int, support: Sequence[int]) -> "SignedFn":
        bits = np.zeros(n, dtype=np.int64)
        bits[_vertex_list(support, n, "support vertex", distinct=True)] = 1
        return cls(bits)

    @classmethod
    def balanced(cls, n: int) -> "SignedFn":
        """A fixed exactly-balanced assignment (bias 0).

        For n >= 8 the support is {0..n/2-2} plus {n/2+1}, which avoids
        being the indicator of an affine subspace; smaller n leaves no
        such choice and the plain first-half split is used.
        """
        if n < 2 or n % 2 != 0:
            raise ValueError("balanced assignment needs even n >= 2")
        bits = np.zeros(n, dtype=np.int64)
        bits[: n // 2] = 1
        if n >= 8:
            bits[n // 2 - 1] = 0
            bits[n // 2 + 1] = 1
        return cls(bits)


@dataclass(frozen=True)
class DpTable:
    """One DP level; values indexed (a, b) for walk tables, (a,) for pure.

    cells holds the level's distinct columns, repeated reps times along b.
    A wide-walk level k < s reads only blocks 1..k of b, the low bits of
    b's C order, so dp_gk keeps its (n_A, d^k) columns with reps =
    n_B / d^k; every other table keeps itself whole (reps 1).  Reading
    values costs nothing when reps is 1, as it is then cells itself, and
    otherwise one fresh, writable, C-contiguous (n_A, n_B) table, copied
    anew on each read: a reader takes it once and keeps it."""

    cells: np.ndarray
    level: int
    kind: str
    reps: int = 1

    @property
    def values(self) -> np.ndarray:
        if self.reps == 1:
            return self.cells
        return self._expand(np.empty((len(self.cells), self.reps * self.cells.shape[1])))

    def _expand(self, out: np.ndarray) -> np.ndarray:
        """The whole walk table written into out, an (n_A, n_B) C-order array."""
        np.copyto(out.reshape(len(out), self.reps, -1), self.cells[:, None])
        return out


@dataclass(frozen=True)
class Moments:
    """The moments of one table.  A pure-walk table's eps_a is the table's
    own array, not a copy."""

    eps: float
    sigma: float
    eps_a: np.ndarray
    second_moment: float


def moments(table: DpTable) -> Moments:
    """Mean/deviation moments of a table, plus the per-outer-vertex ones.

    eps_a keeps its sign (it is the conditional mean, not its absolute
    value); the global eps is the absolute overall mean.  The table's
    values are read once, so a compact wide-walk level is expanded to one
    whole (n_A, n_B) table for the call and summed in the same order as
    one that was stored whole.
    """
    v = table.values
    mean = float(v.mean())
    second = float((v * v).mean())
    sigma = math.sqrt(max(second - mean * mean, 0.0))
    eps_a = v.mean(axis=1) if v.ndim == 2 else v
    return Moments(abs(mean), sigma, eps_a, second)


def _require_f(sys: ReplacementSystem, f: SignedFn) -> None:
    if f.n != sys.num_outer:
        raise ValueError(f"f has {f.n} entries, outer graph has {sys.num_outer}")


def _wide_levels(
    sys: ReplacementSystem, f: SignedFn, levels: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Levels 0..levels of the wide-walk recursion from g_0(a, b) = f(a),
    yielded as (k, x, w) in the mixed domain described below.  A
    level averages the shifted table over the inner generators, the step
    shift(b ^ u), takes the row the rotation map reaches and multiplies by
    the sign.

    The Hadamard matrix on F_2^(m*s) is the Kronecker power of the one on a
    block, so the loop keeps each level in a mixed domain: x has the axes
    (n_A, block 1, ..., block s), with block 1 primal and blocks 2..s
    Walsh-Hadamard transformed, and holds level k before its sign factor
    f(a).  The block shift is a cyclic roll of the block axes, which
    commutes with per-block transforms, and the rotation map reads block 1
    only.  So one level transforms block 1, multiplies by the character
    table (scaled by 1 / (2^m * d_B), a power of two), rolls the block axes,
    transforms the new block 1 back and gathers rows by (a, block 1).

    Active blocks.  A k-step walk from (a_0, b_1) reads blocks 1..k of b_1,
    so g_k is constant along blocks k+1..s.  Along such a block the
    transform is zero but at frequency 0, and x keeps only that frequency,
    as an axis of length 1: level k < s holds d^(k-1) of the d^(s-1)
    columns of blocks 2..s (level 0 one), those of blocks 2..k, and level s
    and on all of them.  Level 0 is constant along block 1 as well, so step
    1 keeps its frequency 0 alone.  The roll moves the old block 1 into the
    active set, and while k <= s it brings an inactive block to block 1.
    The inverse transform of a vector that is zero but at frequency 0 is
    that value at every point, so that step drops the second transform,
    and its gather takes whole rows by a ^ hop(block 1) and broadcasts the
    new block 1.  From step s+1 on, the same step finds block 1 read and
    transforms it back.  Butterfly stages: step k takes m over level k-1's
    cells, and m more over all n_A * n_B once k > s, where two full
    transforms took 2*m*s; _wide_tables takes m*(k-1) over level k's cells,
    m*(s-1) from level s on.

    Working set: one (2, n_A * n_B) float64 block, allocated once per call:
    x in the leading cells of row 0, and row 1 spare.  Every transform runs
    in place.  A step transforms x, multiplies it by the table and copies
    the roll of the blocks, a view of x, into row 1 in C order; the new
    block 1 is transformed back there, and np.take gathers its rows into
    row 0, the new x.  A caller reads x, and may use w, the leading cells
    of row 1 in x's size, as scratch before it resumes the loop.
    """
    if levels < 0:
        raise ValueError(f"the level count must be nonnegative, got {levels}")
    n_a, d, s = sys.num_outer, sys.params.d_outer, sys.params.s
    # bit block j of b is axis s-j of the C-order reshape; .T puts block 1 first
    chars = sys.inner.character_table.reshape((d,) * s).T / (d * sys.params.d_inner)
    chars = np.moveaxis(chars, 0, -1)  # the product precedes the roll: blocks 2..s, then 1
    hops = np.arange(n_a)[:, None] ^ sys.hop(np.arange(d))
    rows = {1: hops.ravel(), d: (hops * d + np.arange(d)).ravel()}  # by new block 1's length
    sign = f.signs.reshape((n_a,) + (1,) * s)

    block = np.empty((2, n_a * sys.num_inner))
    # level 0 is the constant 1, which has only the zero frequency of blocks 2..s
    x = block[0, : n_a * d].reshape((n_a, d) + (1,) * (s - 1))
    x.fill(sys.num_inner // d)
    for k in range(levels + 1):
        if k:
            x *= sign
            y = fwht(x, axis=1)
            if k == 1:  # level 0 is constant along block 1 too: frequency 0 alone
                y = y[:, :1]
            y *= chars[tuple(slice(n) for n in y.shape[1:])]
            rolled = np.moveaxis(y, -1, 1)  # block s moves to the front
            e, cols = rolled.shape[1], rolled.shape[2:]
            z = block[1, : rolled.size].reshape(rolled.shape)
            np.copyto(z, rolled)
            if e > 1:  # the walk has read the new block 1: transform it back
                fwht(z, axis=1)
            x = block[0, : n_a * d * math.prod(cols)].reshape((n_a, d) + cols)
            # the rows are in range, and mode="wrap" lets take write into x unbuffered
            np.take(z.reshape(n_a * e, -1), rows[e], axis=0, out=x.reshape(n_a * d, -1), mode="wrap")
        yield k, x, block[1, : x.size]


def _wide_tables(
    sys: ReplacementSystem, f: SignedFn, levels: int, first: int = 0
) -> Iterator[DpTable]:
    """Tables first..levels of _wide_levels as the loop reaches them, each
    taken back to the primal domain by one transform over its active blocks,
    run in place on a copy of the level in the loop's spare row.  The sign
    f(a) and the 1/2^(m*(s-1)) of that inverse transform are one factor,
    +-1 over a power of two, so a single exact multiply, through the
    transposed view that puts b in C order, writes each table once.  As in
    a primal-domain step, f(a) is the last factor: a zero gets f(a)'s sign
    times that of the transform's zero.

    Each table keeps the columns its walk has read (see DpTable): level k
    stores n_A * d^min(k, s) cells, the blocks min(k, s)..1 of b's C order,
    so dp_gk keeps the sum over k of n_A * d^min(k, s) * 8 bytes, and a
    read of a level k < s's values expands it to a whole table."""
    _require_f(sys, f)
    n_a, d, s = sys.num_outer, sys.params.d_outer, sys.params.s
    scale = (f.signs / (sys.num_inner // d)).reshape((n_a,) + (1,) * s)
    for k, x, w in _wide_levels(sys, f, levels):
        if k >= first:
            j = min(k, s)
            cells = np.empty((n_a, d**j))
            # x runs block 1..s along its axes, b's C order block s..1; the
            # unread blocks j+1..s have length 1 in both
            out = cells.reshape((n_a,) + (1,) * (s - j) + (d,) * j).transpose(0, *range(s, 0, -1))
            primal = w.reshape(x.shape)
            np.copyto(primal, x)
            fwht(w.reshape(n_a * d, -1))
            if not k:  # level 0 is constant along block 1 too
                primal = primal[:, :1]
            np.multiply(primal, scale, out=out)
            yield DpTable(cells, k, "g", sys.num_inner // d**j)


def dp_gk(sys: ReplacementSystem, f: SignedFn, kmax: int) -> list[DpTable]:
    """Wide-walk tables g_0..g_kmax; g_k(a,b) is the conditional mean of
    the walk's sign product given start (a_0, b_1) = (a, b)."""
    return list(_wide_tables(sys, f, kmax))


def dp_backwards(sys: ReplacementSystem, f: SignedFn, length: int) -> list[DpTable]:
    """Backward-walk tables levels 0..length.

    Level-j entry (a, b) is the mean of the sign product over a j-step
    wide walk conditioned on ending at (a_j, b_j) = (a, b).  Backward steps
    are forward steps of the block-reversed system (walks.py): level j is
    its g_j with the columns gathered by sigma.  Only length <= s is
    meaningful (and accepted): beyond that the conditioning argument breaks.
    """
    if not 0 <= length <= sys.params.s:
        raise ValueError(f"length must be in 0..s={sys.params.s}, got {length}")
    rev, sigma = sys._reversed()
    return [DpTable(g.values.take(sigma, 1), g.level, "gbar") for g in _wide_tables(rev, f, length)]


def _pure_levels(graph: CayleyGraph, f: SignedFn, kmax: int) -> Iterator[DpTable]:
    """Pure-walk tables 1..kmax as the recursion reaches them, from level 1
    = a copy of the signs (a table's moments hand out its own array): each
    further level is the sign times the generator average of the previous
    one, graphs._convolve over n * degree.  The caller has checked its
    arguments (see check_pure_walk_bounds)."""
    scale = graph.num_vertices * graph.degree
    h = f.signs.copy()
    yield DpTable(h, 1, "h")
    for k in range(2, kmax + 1):
        h = f.signs * (_convolve(h, graph) / scale)
        yield DpTable(h, k, "h")


# ---------------------------------------------------------------------------
# reports


def vacuous(*bounds: float, lam: Optional[float] = None, s: Optional[int] = None) -> bool:
    """The one rule for whether a bound row asserts nothing, for every row
    kind and for code_report's bias_bound_vacuous.  A sign mean and its
    deviation lie in [0, 1], so a bound informs only below 1; one of
    exactly 1 (or NaN) is vacuous.  The headline bound (2*lam)^(t*(1-4/s))
    also passes lam = lambda_B and s: the theorem claims it only for s >= 5
    and lam < 1/2, outside which its exponent is <= 0 or its base >= 1."""
    if s is not None and not (s >= 5 and lam < 0.5):
        return True
    return not all(b < 1.0 for b in bounds)


@dataclass
class LevelRow:
    k: int
    epsilon: float
    sigma: float
    bound_eps: Optional[float]
    bound_sigma: Optional[float]
    passed: bool
    vacuous: bool


@dataclass
class MomentReport:
    kind: str
    lam: float
    bias: float
    hypotheses_met: bool
    hypothesis_detail: str
    rows: list[LevelRow] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        """The hypotheses hold and every asserted (not vacuous) row passed."""
        return self.hypotheses_met and all(r.passed for r in self.rows if not r.vacuous)


@dataclass(frozen=True)
class IdentityCheck:
    passed: bool
    residual: float
    direct: float
    via: float


def lemma_hypotheses(
    sys: ReplacementSystem, bias: Fraction
) -> tuple[bool, str, Fraction, Fraction]:
    """Bias <= lambda_B and lambda_A <= lambda_B^2, exactly on the measured
    spectra."""
    lam_a, lam_b = spectrum(sys.outer).lambda_exact, spectrum(sys.inner).lambda_exact
    ok_bias = bias <= lam_b
    ok_lam = lam_a <= lam_b * lam_b
    detail = (
        f"Bias(f)={bias} {'<=' if ok_bias else '>'} lambda_B={lam_b}; "
        f"lambda_A={lam_a} {'<=' if ok_lam else '>'} lambda_B^2={lam_b * lam_b}"
    )
    return ok_bias and ok_lam, detail, lam_a, lam_b


def check_pure_walk_bounds(graph: CayleyGraph, f: SignedFn, kmax: int) -> MomentReport:
    """Measured pure-walk moments against the eps <= (4*lam)^(k/2)/2 and
    E[h_k^2] <= (4*lam)^(k-1) bounds, lam the measured expansion of the
    graph; hypothesis Bias(f) <= sqrt(lam), as Bias(f)^2 <= lam exactly on
    the measured spectrum, judged after the arguments are checked."""
    if f.n != graph.num_vertices:
        raise ValueError("f size does not match the graph")
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    rep = spectrum(graph)
    met = f.bias_exact**2 <= rep.lambda_exact
    detail = f"Bias(f)={f.bias!r} vs sqrt(lambda)={math.sqrt(rep.lam)!r}"
    report = MomentReport("pure-walk", rep.lam, f.bias, met, detail)
    if not met:
        return report
    lam = rep.lam
    for table in _pure_levels(graph, f, kmax):
        k, mom = table.level, moments(table)
        bound_eps = 0.5 * (4 * lam) ** (k / 2)
        bound_sq = (4 * lam) ** (k - 1)
        ok = holds(mom.eps, bound_eps) and holds(mom.second_moment, bound_sq)
        rms, bound_rms = math.sqrt(mom.second_moment), math.sqrt(bound_sq)
        report.rows.append(LevelRow(k, mom.eps, rms, bound_eps, bound_rms, ok, vacuous(bound_eps)))
    return report


def _lemma_report(kind: str, sys: ReplacementSystem, f: SignedFn) -> MomentReport:
    """A wide-walk report with no rows yet: f checked against the outer
    graph, then the lemma's hypotheses on the measured spectra."""
    _require_f(sys, f)
    met, detail, _, lam_b = lemma_hypotheses(sys, f.bias_exact)
    return MomentReport(kind, float(lam_b), f.bias, met, detail)


def _levels(
    sys: ReplacementSystem, f: SignedFn, k: int, tables: Optional[list[DpTable]], first: int = 0
) -> Iterator[DpTable]:
    """The g tables first..k that every wide-walk check reads: the caller's
    dp_gk tables when they reach level k, so that several checks share one
    DP, else the levels as the DP loop yields them, each dropped once read.
    f is checked against the outer graph on the call, before either."""
    _require_f(sys, f)
    if tables is not None and len(tables) > k:
        return iter(tables[first : k + 1])
    return _wide_tables(sys, f, k, first)


def check_base_case(
    sys: ReplacementSystem, f: SignedFn, tables: Optional[list[DpTable]] = None
) -> MomentReport:
    """Wide-walk base-case bounds for k = 0..s:
    eps_k <= (2*lam)^(k+1)/2 and sigma_k <= 2*(2*lam)^(k-1)."""
    report = _lemma_report("base-case", sys, f)
    if not report.hypotheses_met:
        return report
    lam, s = report.lam, sys.params.s
    for k, mom in enumerate(map(moments, _levels(sys, f, s, tables))):
        bound_eps = 0.5 * (2 * lam) ** (k + 1)
        # 0**0 = 1 keeps the k=1 bound meaningful on a lam = 0 inner graph;
        # only k=0 (negative exponent at lam=0) needs the inf escape
        bound_sigma = math.inf if k == 0 and lam == 0.0 else 2.0 * (2 * lam) ** (k - 1)
        ok = holds(mom.eps, bound_eps) and holds(mom.sigma, bound_sigma)
        shown = None if math.isinf(bound_sigma) else bound_sigma
        flag = vacuous(bound_eps, bound_sigma)
        report.rows.append(LevelRow(k, mom.eps, mom.sigma, bound_eps, shown, ok, flag))
    return report


def _check_induction_kmax(kmax: int, s: int) -> int:
    """kmax, refused unless the induction step has a level s+1..kmax."""
    if kmax <= s:
        raise ValueError(f"kmax must exceed s={s}")
    return kmax


def check_induction_step(
    sys: ReplacementSystem,
    f: SignedFn,
    kmax: int,
    tables: Optional[list[DpTable]] = None,
) -> MomentReport:
    """Wide-walk induction-step recurrences for s < k <= kmax, with both
    sides measured:

      eps_k   <= (2*lam)^s * (eps_{k-s} + 3*sigma_{k-s}) / 2
      sigma_k^2 <= (2*lam)^(s-2)*(eps_{k-2} + lam*sigma_{k-1})
                   *(eps_{k-s} + (2+lam)*sigma_{k-s})/2
                 + lam^s*sigma_{k-s}*sigma_{k-1} + lam^2*sigma_{k-1}^2
    """
    s = sys.params.s
    _check_induction_kmax(kmax, s)
    report = _lemma_report("induction-step", sys, f)
    if not report.hypotheses_met:
        return report
    lam = report.lam
    mom = [moments(t) for t in _levels(sys, f, kmax, tables)]
    eps = [m.eps for m in mom]
    sig = [m.sigma for m in mom]
    for k in range(s + 1, kmax + 1):
        bound_eps = 0.5 * (2 * lam) ** s * (eps[k - s] + 3 * sig[k - s])
        bound_sig_sq = (
            0.5
            * (2 * lam) ** (s - 2)
            * (eps[k - 2] + lam * sig[k - 1])
            * (eps[k - s] + (2 + lam) * sig[k - s])
            + lam**s * sig[k - s] * sig[k - 1]
            + lam**2 * sig[k - 1] ** 2
        )
        ok = holds(eps[k], bound_eps) and holds(sig[k] ** 2, bound_sig_sq)
        report.rows.append(
            LevelRow(k, eps[k], sig[k], bound_eps, math.sqrt(bound_sig_sq), ok, vacuous(bound_eps))
        )
    return report


def bias_bound(lam: float, t: int, s: int) -> float:
    """The headline bound (2*lam)^(t*(1-4/s)); 0 on a lam = 0 inner graph."""
    return (2 * lam) ** (t * (1 - 4 / s)) if lam > 0 else 0.0


def check_bias_reduction_lemma(
    sys: ReplacementSystem,
    f: SignedFn,
    t: int,
    tables: Optional[list[DpTable]] = None,
) -> MomentReport:
    """The headline bound: eps_t <= (2*lambda_B)^(t*(1-4/s)), hypotheses
    Bias(f) <= lambda_B and lambda_A <= lambda_B^2 (both measured), asserted
    only where vacuous() finds it informative.  Without tables that reach
    level t, the stream runs to its end, which frees the loop's block,
    before the moments are taken."""
    _check_walk_length(t)
    report = _lemma_report("bias-reduction", sys, f)
    if not report.hypotheses_met:
        return report
    (table,) = _levels(sys, f, t, tables, t)
    mom, s = moments(table), sys.params.s
    bound = bias_bound(report.lam, t, s)
    flag = vacuous(bound, lam=report.lam, s=s)
    report.rows.append(LevelRow(t, mom.eps, mom.sigma, bound, None, holds(mom.eps, bound), flag))
    report.extra["eps0"] = f.bias
    report.extra["eps_t_le_eps0"] = holds(mom.eps, f.bias)
    return report


@dataclass(frozen=True)
class InequalityCheck:
    """One inequality lhs <= rhs, judged by holds."""

    passed: bool
    lhs: float
    rhs: float
    detail: str


def check_first_step_trick(
    sys: ReplacementSystem,
    f: SignedFn,
    k: int,
    tables: Optional[list[DpTable]] = None,
) -> InequalityCheck:
    """sigma_k^2 <= E_a[eps_{k-1}(a)^2] + lam^2 * sigma_{k-1}^2, lam = the
    measured inner-graph expansion."""
    if k < 1:
        raise ValueError("k must be at least 1")
    lam = spectrum(sys.inner).lam
    mom_prev, mom_k = map(moments, _levels(sys, f, k, tables, k - 1))
    lhs = mom_k.sigma**2
    rhs = float((mom_prev.eps_a**2).mean()) + lam**2 * mom_prev.sigma**2
    return InequalityCheck(holds(lhs, rhs), lhs, rhs, f"k={k} lam={lam!r}")


def check_middle_start_identity(
    sys: ReplacementSystem,
    f: SignedFn,
    k: int,
    tables: Optional[list[DpTable]] = None,
) -> IdentityCheck:
    """Split the k-step mean at position s: the signed global mean of g_k
    must equal the edge expectation of sign(a) * gbar_s(a,b) * g_{k-s}(a,b')
    over b' a shifted neighbor of b.  Requires k > s.

    The via side is taken by Parseval in the Walsh-Hadamard domain.  With
    gbar_s = f(a) * G, the edge expectation is the mean of G times the
    inner-graph average of g_{k-s}(a, shift(b)), and the transform of that
    average is chi * R^(shift(xi)) / d_B, with R^ = fwht(g_{k-s}) and chi
    the character table.  So

        via = sum over (a, xi) of G^ * chi * R^[:, shift] / (n_A * n_B^2 * d_B),

    where G^ is the block-1 transform of the mixed-domain gbar_s that the
    loop leaves on the block-reversed system (see dp_backwards): no primal
    gbar_s and no primal average.  G^ and R^[:, shift] are read through
    C-order views that run blocks 1..s, the order of the sum.  All of it
    runs in the level loop's one block; without tables that reach level k,
    two forward runs take only g_k and g_{k-s} to the primal domain.  The
    sum is elementwise products and ndarray.sum, not np.dot or np.vdot:
    those would change the summation order, and so the pinned bytes, and
    start BLAS's thread pool.  G^ is transformed in place in x, and G^ * chi
    written into the spare row in that order; x's row then takes R^, from
    a copy of the caller's g_{k-s}, which is never written.

    The verdict is a rounding band, not a fixed slack: each side sums
    n_A * n_B terms, so by Higham's bound for a sum of n terms, n * u *
    sum |terms| with u = 2^-53, the two may differ by u times the sum of
    |g_k| and of |G^ * chi * R^| * n_A * n_B / (n_A * n_B^2 * d_B).  A
    misread block order on the witness misses by 1e-11, well inside an
    absolute 1e-9 but far outside the band.
    """
    s = sys.params.s
    if k <= s:
        raise ValueError(f"identity needs k > s={s}, got {k}")
    (table,) = _levels(sys, f, k, tables, k)
    g = table.values
    direct, size = float(g.mean()), float(np.abs(g).sum())
    (table,) = _levels(sys, f, k - s, tables, k - s)
    del g  # g_k is read: only g_{k-s} is kept
    n_a, n_b, d = sys.num_outer, sys.num_inner, sys.params.d_outer
    for _, x, w in _wide_levels(sys._reversed()[0], f, s):
        pass  # the loop ends with x = gbar_s before its sign, blocks 2..s reversed
    view = (0, 1, *range(s, 1, -1))  # blocks 1..s
    prod = w.reshape(x.shape)
    np.multiply(fwht(x, axis=1).transpose(view), sys.inner.character_table.reshape((d,) * s).T, out=prod)
    rhat = table._expand(x.reshape(n_a, n_b))  # x is read: its row takes R^
    prod *= fwht(rhat).reshape(x.shape).transpose(view)
    scale = n_a * n_b * n_b * sys.params.d_inner
    via = float(w.sum()) / scale
    size += float(np.abs(w, out=w).sum()) * (n_a * n_b / scale)
    residual = abs(direct - via)
    # each side sums n_A * n_B terms: Higham's n * u * sum |terms|, over both
    return IdentityCheck(residual <= size * math.ulp(0.5), residual, direct, via)


# ---------------------------------------------------------------------------
# closed-form arithmetic of the induction proof


@dataclass(frozen=True)
class ArithmeticRow:
    lam: float
    s: int
    valid: bool
    passed: bool
    max_log_violation: float


@dataclass
class ArithmeticReport:
    rows: list[ArithmeticRow]
    spot_checks_passed: bool

    @property
    def all_passed(self) -> bool:
        return self.spot_checks_passed and all(r.passed for r in self.rows if r.valid)


def _log_sum(logs: list[float]) -> float:
    """ln(sum of exp(x)), shifted by the largest x so that no term overflows."""
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


def verify_induction_arithmetic(
    lambda_grid: Sequence[float], s_grid: Sequence[int], kmax: int
) -> ArithmeticReport:
    """Substitute the closed forms eps_j = c^j and sigma_j = c^(j-2),
    c = (2*lam)^(1-4/s), into both induction-step recurrences and check
    RHS <= closed form at every level k = s+1..kmax.

    Divided by its level-k closed form, each recurrence is k-free: with
    y = 2*lam, so that lam/c = y^(4/s)/2, the eps ratio is
    (y^4 + 3*y^(2+8/s))/2 and the sigma^2 ratio is
    (1 + lam/c)*(y^(4-8/s) + (2+lam)*y^2)/2 + 2^(-s)*y^(3+4/s) + lam^2/c^2.
    Each is a sum of positive monomials in y, summed in log space once per
    (lam, s); max_log_violation is the larger log.  Grid points with lam
    outside (0, 1/4] or s < 5 are outside the proof's validity region:
    they are evaluated and flagged, not asserted.  The proof's spot check
    at lam = 1/4 takes no input, so spot_checks_passed is the same
    constant on every call.
    """
    if not lambda_grid or not s_grid:
        raise ValueError("the lambda and s grids must each be nonempty")
    for lam in lambda_grid:
        if not 0.0 < lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    for s in s_grid:
        if not 1 <= s < kmax:
            raise ValueError(f"s={s} must be at least 1 and below kmax={kmax}")
    rows = []
    for lam in lambda_grid:
        for s in s_grid:
            L = math.log(2 * lam)
            eps = [math.log(1 / 2) + 4 * L, math.log(3 / 2) + (2 + 8 / s) * L]
            sig_sq = [
                math.log(1 / 2) + (4 - 8 / s) * L,
                math.log(1 / 4) + (4 - 4 / s) * L,
                math.log((2 + lam) / 2) + 2 * L,
                math.log((2 + lam) / 4) + (2 + 4 / s) * L,
                -s * math.log(2) + (3 + 4 / s) * L,
                math.log(1 / 4) + 8 / s * L,
            ]
            worst = max(_log_sum(eps), _log_sum(sig_sq))
            valid = 0.0 < lam <= 0.25 and s >= 5
            rows.append(ArithmeticRow(lam, s, valid, worst <= 0.0, worst))
    # the proof's two spot values at lam = 1/4, in exact rationals: 13/32 <= 1 and 19/32 <= 3/4
    lam = Fraction(1, 4)
    spot = 2 * lam**2 * (4 * lam**2 + 3) <= 1 and 8 * lam**2 + 6 * lam**3 <= Fraction(3, 4)
    return ArithmeticReport(rows, spot)
