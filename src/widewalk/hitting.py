"""Survival probability of a walk confined to a vertex subset.

The probability that every vertex of a t-step uniform-start walk lies in
S is computed exactly: path counts are integers, so the result is a
Fraction with denominator |A| * d**(t-1).  The counts run in int64
residues modulo K primes just below 2**31, stacked as one (K, n) array,
and only the per-level totals are brought back, by the Chinese remainder
theorem.  The total of level j is at most n * d**(j-1), so K, fixed from
t before anything is allocated, is the fewest primes sure to multiply
past n * d**(t-1).  Each step leaves a factor n on the counts, which
level j's row totals shed by a multiplication by n**-(j-1) modulo their
primes: exact, as n is invertible modulo an odd prime.  No cell reaches
2**63: in the Cayley convolution a transform multiplies a cell's bound by
n and the product with the character table by d, starting from residues
below p, and it reduces modulo p wherever the next step could pass 2**63;
a level's row totals stay below n * p (see _survival).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .amplify import vacuous
from .graphs import CayleyGraph, _check_walk_length, _convolve, _vertex_list, spectrum

Real = Union[float, Fraction]

# the residue primes, descending from the largest below 2**31 - 2**7: that
# leaves out the four largest primes below 2**31, the moduli of perfbench's
# independent hitting check.  Every one is above _PRIME_FLOOR, and
# _prime_count relies on that; about 12,100 primes lie between the two, and
# the cap below admits no instance that needs more than 8,313 of them
_PRIME_CEILING = (1 << 31) - (1 << 7)
_PRIME_FLOOR = (1 << 31) - (1 << 18)


def _is_prime(c: int) -> bool:
    """Miller-Rabin for an odd c above 37 with bases 2, 3, 5 and 7, which
    decide every c below 3,215,031,751 (Jaeschke 1993)."""
    if math.gcd(c, 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37) > 1:
        return False
    odd, twos = c - 1, 0
    while not odd & 1:
        odd, twos = odd >> 1, twos + 1
    for base in (2, 3, 5, 7):
        x = pow(base, odd, c)
        if x in (1, c - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % c
            if x == c - 1:
                break
        else:
            return False
    return True


def _primes(k: int) -> list[int]:
    """The first k residue primes, found anew on each call: one survival DP
    needs them once, and nothing is kept that two threads could share."""
    primes, c = [], _PRIME_CEILING + 1
    while len(primes) < k:
        c -= 2
        if c < _PRIME_FLOOR:
            raise ValueError(f"{k} residue primes are more than lie above {_PRIME_FLOOR}")
        if _is_prime(c):
            primes.append(c)
    return primes


def _prime_count(dim: int, degree: int, t: int) -> int:
    """K, the fewest residue primes whose product is sure to exceed
    n * d**(t-1), the largest total of any level: the smallest K with
    _PRIME_FLOOR**K above it, from logarithms, rounded up by a relative
    1e-12 that covers their rounding."""
    bits = dim + (t - 1) * math.log2(degree)
    return math.floor(bits / math.log2(_PRIME_FLOOR) * (1 + 1e-12)) + 1


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
        _check_walk_length(self.t)
        # the bytes the exact DP holds, refused before any table is built:
        # the (K, n) int64 residues and _convolve's working copy of them,
        # and t rows, whose fractions take about 2j(dim + log2 d) bits in
        # row j
        n, t, word = g.num_vertices, self.t, (g.degree - 1).bit_length()
        held = 16 * _prime_count(g.dim, g.degree, t) * n + t * t * (g.dim + word) // 8
        if held > (1 << 27):
            raise ValueError(f"instance too large: {n} vertices, degree {g.degree} and t={t} "
                             f"hold about {held >> 20} MiB of exact integers, past 128 MiB")

    @property
    def rho(self) -> Fraction:
        return Fraction(len(self.subset), self.graph.num_vertices)


def _survival(inst: HittingInstance) -> list[Fraction]:
    """P[a_1..a_t all in S] for t = 1..inst.t, exactly, from one prefix DP.

    Integer path-count DP: count_j(a) = surviving j-vertex paths ending
    at a; one step sums counts over the generator neighbors and zeroes
    vertices outside S.  Level j's count total over n * d**(j-1) is the
    probability for t = j.

    The counts run modulo each of K residue primes, one row of a (K, n)
    int64 array each, stepped by the residue mode of graphs._convolve,
    which returns n times the neighbour sum and divides nothing.  So level
    j's row i holds n**(j-1) times the true counts modulo p_i, and no
    division by n is taken on the table: row i's total, times n**-(j-1)
    modulo p_i, is the level's total modulo p_i, exactly, since n, a power
    of two, is invertible modulo an odd prime.  The Chinese remainder
    theorem takes these K residues to the total itself, which is below the
    product of the primes (_prime_count).

    No int64 cell reaches 2**63: _convolve keeps every cell below it for n
    and degree below 2**32 (the instance's cap keeps n at most 2**23, and
    a degree of 2**32 would be 4 GiB of generator words), the counts it
    returns are below p < 2**31, a row's total below n * p < 2**54, and a
    residue times n**-(j-1) below p**2 < 2**62.  Only the per-level totals
    are taken to Python ints; no table is.
    """
    g = inst.graph
    n = g.num_vertices
    primes = _primes(_prime_count(g.dim, g.degree, inst.t))
    p = np.array(primes, np.int64)
    product = math.prod(primes)
    # a level's total is sum_i residue_i * crt_i modulo the product, with
    # crt_i = 1 modulo p_i and 0 modulo the other primes
    crt = [product // q * pow(product // q, -1, q) for q in primes]
    in_s = np.zeros(n, np.int64)
    in_s[list(inst.subset)] = 1
    counts = np.repeat(in_s[None], len(primes), axis=0)
    n_inv = np.array([pow(n, -1, q) for q in primes], np.int64)
    unscale = np.ones_like(p)  # n**-(j-1) modulo each prime
    probs = [Fraction(len(inst.subset), n)]
    for _ in range(inst.t - 1):
        counts = _convolve(counts, g, p[:, None])
        counts *= in_s
        unscale = unscale * n_inv % p
        residues = counts.sum(axis=1) % p * unscale % p
        total = sum(map(operator.mul, residues.tolist(), crt)) % product
        probs.append(Fraction(total, n * g.degree ** len(probs)))
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
    _check_walk_length(t)
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
