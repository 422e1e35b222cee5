"""Survival probability of a walk confined to a vertex subset.

The probability that every vertex of a t-step uniform-start walk lies in
S is computed exactly: path counts are integers, so the DP runs in
arbitrary-precision ints and the result is a Fraction with denominator
|A| * d**(t-1).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .amplify import vacuous
from .graphs import CayleyGraph, _convolve, _vertex_list, spectrum

Real = Union[float, Fraction]


@dataclass(frozen=True)
class HittingInstance:
    graph: CayleyGraph
    subset: frozenset[int]
    t: int

    def __post_init__(self) -> None:
        g = self.graph
        vertices = _vertex_list(self.subset, g.num_vertices, "subset vertex", distinct=True)
        if not vertices:
            raise ValueError("subset must be nonempty")
        object.__setattr__(self, "subset", frozenset(vertices))  # from any iterable
        if self.t < 1:
            raise ValueError("t must be at least 1")
        # the bits the exact DP holds, refused before any table is built: n
        # object ints below d**(t-1), each at least its 64-bit pointer, and t
        # rows, whose fractions take about 2j(dim + log2 d) bits in row j
        n, t, word = g.num_vertices, self.t, (g.degree - 1).bit_length()
        held = n * ((t - 1) * word + 64) + t * t * (g.dim + word)
        if held > (1 << 30):
            raise ValueError(f"instance too large: {n} vertices, degree {g.degree} and t={t} "
                             f"hold about {held >> 23} MiB of exact integers, past 128 MiB")

    @property
    def rho(self) -> Fraction:
        return Fraction(len(self.subset), self.graph.num_vertices)


def _survival(inst: HittingInstance) -> list[Fraction]:
    """P[a_1..a_t all in S] for t = 1..inst.t, exactly, from one prefix DP.

    Integer path-count DP: count_j(a) = surviving j-vertex paths ending
    at a; one step sums counts over the generator neighbors (the Cayley
    convolution graphs._convolve, over n) and zeroes vertices outside S.
    Counts are Python ints in object arrays, so they stay exact past
    2**63.  Level j's count total over n * d**(j-1) is the probability
    for t = j.
    """
    g = inst.graph
    n = g.num_vertices
    in_s = np.zeros(n, dtype=object)
    in_s[list(inst.subset)] = 1
    counts = in_s
    probs = [Fraction(int(counts.sum()), n)]
    for _ in range(inst.t - 1):
        counts = in_s * (_convolve(counts, g) // n)
        probs.append(Fraction(int(counts.sum()), n * g.degree ** len(probs)))
    return probs


def hitting_prob_exact(inst: HittingInstance) -> Fraction:
    """P[a_1..a_t all in S] for a walk with uniform start, exactly."""
    return _survival(inst)[-1]


def hitting_bound(rho: Real, lam: Real, t: int) -> Real:
    """Closed form rho * (rho + lam*(1 - rho))**(t-1).

    Exact when both inputs are Fractions.  Phi = rho + lam*(1 - rho) solves
    Phi = lam/2 + sqrt(lam^2/4 + rho*(1 - lam)*Phi) for every rho in (0, 1]
    and lam in [0, 1]: squared, the sides differ by Phi*(Phi - rho - lam +
    lam*rho), which is 0, and Phi - lam/2 = rho*(1 - lam) + lam/2 >= 0.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if not 0 < rho <= 1:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if not 0 <= lam <= 1:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    return rho * (rho + lam * (1 - rho)) ** (t - 1)


@dataclass(frozen=True)
class HittingRow:
    t: int
    exact: Fraction
    bound: Fraction
    passed: bool


@dataclass
class HittingReport:
    rho: Fraction
    lam: Fraction
    rows: list[HittingRow]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def asserted(self) -> bool:
        """Some row's bound informs (amplify.vacuous); at rho = 1 none does."""
        return any(not vacuous(float(r.bound)) for r in self.rows)


def check_hitting(graph: CayleyGraph, subset: Iterable[int], tmax: int) -> HittingReport:
    """Exact survival vs the closed-form bound at the measured expansion,
    for t = 1..tmax; with exact rationals on both sides the comparison
    needs no slack.  A subset that lists a vertex twice is refused.
    """
    if tmax < 1:
        raise ValueError(f"tmax must be at least 1, got {tmax}")
    inst = HittingInstance(graph, subset, tmax)
    lam = spectrum(graph).lambda_exact
    rows = []
    for t, exact in enumerate(_survival(inst), 1):
        bound = hitting_bound(inst.rho, lam, t)
        rows.append(HittingRow(t, exact, bound, exact <= bound))
    return HittingReport(inst.rho, lam, rows)
