"""Exact survival probabilities against an independent path-enumeration
oracle, a big-integer DP and the closed-form bound."""

import ast
import itertools
import math
import sys
import threading
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from widewalk import build_aghp, build_complete_selfloop, hitting
from widewalk.amplify import vacuous
from widewalk.graphs import CayleyGraph, _convolve
from widewalk.hitting import (
    HittingInstance,
    check_hitting,
    hitting_bound,
    hitting_prob_exact,
)

import walk_oracle as oracle

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def object_survival(inst):
    """The survival DP in Python ints: counts in object arrays through
    _convolve's exact integer path, each level's neighbour sum divided by
    n exactly.  No residue, no prime count, no CRT."""
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


def oracle_prob(graph, subset, t):
    """Enumerate every (start, generator sequence) pair outright."""
    n = graph.num_vertices
    hits = 0
    for a0 in range(n):
        for idxs in itertools.product(range(graph.degree), repeat=t - 1):
            a = a0
            ok = a in subset
            for i in idxs:
                if not ok:
                    break
                a = oracle.neighbor(graph, a, i)
                ok = a in subset
            hits += ok
    return Fraction(hits, n * graph.degree ** (t - 1))


def test_instance_validation(k16):
    with pytest.raises(ValueError):
        HittingInstance(k16, frozenset(), 3)
    with pytest.raises(ValueError):
        HittingInstance(k16, frozenset({16}), 3)
    with pytest.raises(ValueError):
        HittingInstance(k16, frozenset({0}), 0)
    inst = HittingInstance(k16, frozenset([0, 1, 2, 3]), 5)
    assert inst.rho == Fraction(1, 4)
    # no levels to check is refused rather than reported as a pass
    for tmax in (0, -3):
        with pytest.raises(ValueError, match="tmax must be at least 1"):
            check_hitting(k16, [0], tmax)


def test_exact_matches_oracle_small():
    g = CayleyGraph(dim=3, generators=(1, 2, 4))
    for subset in ({0}, {0, 1}, {0, 3, 5}, {1, 2, 4, 7}):
        for t in (1, 2, 3, 4):
            inst = HittingInstance(g, frozenset(subset), t)
            assert hitting_prob_exact(inst) == oracle_prob(g, subset, t), (subset, t)


def test_exact_matches_oracle_k16(k16):
    # frozen value: first 4 vertices of the 15-regular complete graph
    inst = HittingInstance(k16, frozenset(range(4)), 5)
    exact = hitting_prob_exact(inst)
    assert exact == oracle_prob(k16, set(range(4)), 5)
    assert exact == Fraction(1, 2500)


def test_single_step_is_density(k16):
    for subset in ({3}, {0, 9, 11}):
        inst = HittingInstance(k16, frozenset(subset), 1)
        assert hitting_prob_exact(inst) == Fraction(len(subset), 16)


def test_zero_lambda_equality():
    # on the complete-with-self-loops graph each step is an independent
    # uniform vertex, so survival is exactly rho^t and the bound is tight
    g = build_complete_selfloop(2)
    subset = {0, 2}
    rho = Fraction(1, 2)
    for t in (1, 2, 3, 6):
        inst = HittingInstance(g, frozenset(subset), t)
        assert hitting_prob_exact(inst) == rho**t
        assert hitting_bound(rho, Fraction(0), t) == rho**t


def test_bound_examples():
    # t=1 collapses to the density
    assert hitting_bound(Fraction(1, 4), Fraction(1, 15), 1) == Fraction(1, 4)
    # rho 1/4, lam 1/15, t=5: 0.25 * 0.3^4
    got = hitting_bound(Fraction(1, 4), Fraction(1, 15), 5)
    assert got == Fraction(81, 40000)
    assert float(got) == 0.002025
    # lam = 1 gives the trivial bound rho
    assert hitting_bound(Fraction(1, 4), 1, 6) == Fraction(1, 4)


def test_bound_validation():
    with pytest.raises(ValueError):
        hitting_bound(Fraction(1, 4), Fraction(1, 15), 0)
    with pytest.raises(ValueError):
        hitting_bound(0, Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        hitting_bound(Fraction(5, 4), Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        hitting_bound(Fraction(1, 4), 2, 3)


def test_bound_monotone_in_lambda():
    lams = [Fraction(i, 10) for i in range(11)]
    vals = [hitting_bound(Fraction(1, 8), lam, 7) for lam in lams]
    assert vals == sorted(vals)


def test_check_hitting_k16(k16):
    report = check_hitting(k16, range(4), 12)
    assert report.rho == Fraction(1, 4)
    assert report.lam == Fraction(1, 15)
    assert report.all_passed
    assert [r.t for r in report.rows] == list(range(1, 13))
    # t=1 is an equality; later rows are strict
    assert report.rows[0].exact == report.rows[0].bound
    assert all(r.exact < r.bound for r in report.rows[1:])


def test_check_hitting_asserts_only_informative_bounds(k16):
    # t = 1 bounds rho itself, so rho < 1 is asserted from the first row;
    # at rho = 1 every bound is exactly 1 and no row is asserted
    assert check_hitting(k16, range(4), 1).asserted
    whole = check_hitting(k16, range(16), 3)
    assert [(r.exact, r.bound) for r in whole.rows] == [(1, 1)] * 3
    assert not whole.asserted


def test_the_verdict_fails_below_the_measured_lambda(monkeypatch):
    # on ker(alpha) of AGHP(10,5), alpha a character at +lambda, the
    # survival meets the bound with equality at every t (acceptance 11):
    # the measured lambda passes every row, and a spectrum stand-in 2^-20
    # below it must fail every row past t = 1, each of them asserted
    g = build_aghp(10, 5)
    lam = hitting.spectrum(g).lambda_exact
    alpha = int(np.flatnonzero(g.character_table == int(lam * g.degree))[0])
    kernel = [v for v in range(g.num_vertices) if (v & alpha).bit_count() % 2 == 0]
    assert check_hitting(g, kernel, 8).all_passed
    lower = SimpleNamespace(lambda_exact=lam - Fraction(1, 1 << 20))
    monkeypatch.setattr(hitting, "spectrum", lambda graph: lower)
    report = check_hitting(g, kernel, 8)
    assert report.lam == lower.lambda_exact
    assert [r.t for r in report.rows if not r.passed] == list(range(2, 9))
    assert not any(vacuous(float(r.bound)) for r in report.rows)


def test_check_hitting_rejects_unscannable_graph():
    g = CayleyGraph(dim=30, generators=(1, 2))
    with pytest.raises(ValueError):
        check_hitting(g, {0}, 2)
    # a bad subset is refused before the spectrum is read
    with pytest.raises(ValueError, match="subset must be nonempty"):
        check_hitting(g, [], 2)


def test_csv_output(k16, tmp_path, capsys):
    # a HittingReport is written out only by the CLI's renderer
    from widewalk.cli import main

    gpath = tmp_path / "k16.json"
    gpath.write_text(k16.to_json())
    argv = ["verify", "hitting", "--graph", str(gpath), "--set", "first-4",
            "--tmax", "3", "--format", "csv"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "t,exact,bound,pass"
    assert len(lines) == 5
    assert lines[2].startswith("1,0.25,0.25,True")


def perfbench_hitting_moduli():
    """perfbench's HITTING_MODULI, read from workloads.py as text."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["HITTING_MODULI"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py has no HITTING_MODULI")


def test_residue_primes_are_the_primes_below_their_ceiling():
    # every prime that the accepted k16 instance at t = 8,000 needs (1,009),
    # and a few more: prime, distinct, descending, and no prime between two
    # of them or between the ceiling and the first; all below 2**31 and
    # above the floor that _prime_count counts with, and none a modulus of
    # perfbench's independent hitting check
    primes = hitting._primes(1100)
    assert hitting._prime_count(4, 15, 8000) == 1009
    assert len(set(primes)) == len(primes) == 1100
    assert primes[0] == sympy.prevprime(hitting._PRIME_CEILING)
    assert all(sympy.prevprime(p) == q for p, q in zip(primes, primes[1:]))
    assert all(sympy.isprime(p) for p in primes)
    assert hitting._PRIME_FLOOR < primes[-1] and primes[0] < hitting._PRIME_CEILING < 1 << 31
    moduli = perfbench_hitting_moduli()
    # all four lie above the ceiling, so no residue prime can ever be one
    assert len(moduli) == 4 and min(moduli) > hitting._PRIME_CEILING


def test_residue_primes_are_the_same_on_two_threads():
    # _primes keeps no state between calls: two threads asking for 3,000
    # primes at once each get the same distinct, descending primes (a
    # module cache grown without a lock gave both a list with repeats)
    start, got = threading.Barrier(2, timeout=60), [None, None]

    def run(i):
        start.wait()
        got[i] = hitting._primes(3000)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    primes = got[0]
    assert got[1] == primes and len(primes) == 3000
    assert all(p > q for p, q in zip(primes, primes[1:]))
    assert all(sympy.isprime(p) for p in primes)


def test_is_prime_decides_every_odd_candidate():
    # strong pseudoprimes to bases 2, 3 and 5 below 2**31, which
    # base 7 refutes, and odd numbers just below the residue window
    for c in (25326001, 161304001, 960946321, 1157839381):
        assert not hitting._is_prime(c) and not sympy.isprime(c)
    for c in range(hitting._PRIME_FLOOR - 20001, hitting._PRIME_FLOOR + 1, 2):
        assert hitting._is_prime(c) == sympy.isprime(c), c


def test_prime_count_is_the_fewest_whose_product_passes_the_bound():
    # K primes multiply past n * d**(t-1), the largest total of any level,
    # and K - 1 do not reach it on these instances
    for dim, degree, t in ((4, 15, 12), (4, 15, 100), (4, 15, 1000), (10, 1024, 12),
                           (3, 3, 1), (1, 1, 50), (16, 256, 40)):
        k = hitting._prime_count(dim, degree, t)
        primes, bound = hitting._primes(k), (1 << dim) * degree ** (t - 1)
        assert math.prod(primes) > bound, (dim, degree, t)
        assert math.prod(primes[:-1]) <= bound, (dim, degree, t)


def test_the_prime_count_is_load_bearing(k16, monkeypatch):
    # k16 with |S| = 4 keeps a step in S with probability 3/15, so its
    # survival is 1/4 * (1/5)**(t-1) at every t; its total at t = 1000,
    # 4 * 3**999, needs 52 primes of the 127 that the bound asks for, and
    # 16 primes give a wrong Fraction there
    inst = HittingInstance(k16, range(4), 1000)
    want = [Fraction(1, 4) * Fraction(1, 5) ** (t - 1) for t in range(1, 1001)]
    assert hitting._prime_count(4, 15, 1000) == 127
    assert hitting._survival(inst) == want == object_survival(inst)
    monkeypatch.setattr(hitting, "_prime_count", lambda dim, degree, t: 16)
    assert hitting._survival(inst)[-1] != want[-1]
    # at rho = 1 every total is the bound n * d**(t-1) itself, so K - 1
    # primes miss the last row, which is 1
    monkeypatch.undo()
    for t in (12, 1000):
        whole = HittingInstance(k16, range(16), t)
        k = hitting._prime_count(4, 15, t)
        assert hitting._survival(whole) == [1] * t
        monkeypatch.setattr(hitting, "_prime_count", lambda dim, degree, t, k=k: k - 1)
        assert hitting._survival(whole)[-1] != 1, t
        monkeypatch.undo()


def test_residue_dp_matches_the_object_int_dp():
    # seeded random Cayley multigraphs and subsets of at least half the
    # vertices; a third or more of the final totals pass 2**63, where an
    # int64 count would have wrapped
    rng = np.random.default_rng(40)
    past = 0
    for _ in range(60):
        dim = int(rng.integers(1, 8))
        gens = rng.integers(0, 1 << dim, int(rng.integers(1, 13)))
        g = CayleyGraph(dim, gens, multigraph=True)
        size = int(rng.integers(1 << dim >> 1, (1 << dim) + 1))
        subset = rng.choice(1 << dim, size, replace=False)
        inst = HittingInstance(g, subset, int(rng.integers(1, 60)))
        exact = object_survival(inst)
        assert hitting._survival(inst) == exact, (dim, gens.tolist(), sorted(inst.subset), inst.t)
        past += exact[-1] * g.num_vertices * g.degree ** (inst.t - 1) >= 1 << 63
    assert past >= 20


def test_residue_dp_matches_the_object_int_dp_on_aghp():
    # the benchmark's instance shape, AGHP(10,5) with |S| = 512 to t = 12,
    # where only the second transform is reduced; AGHP(12,6), whose product
    # with the table is reduced too (n * n * d = 2**36), and AGHP(16,8),
    # whose first transform is as well (n * d = 2**32)
    rng = np.random.default_rng(41)
    for g, t in ((build_aghp(10, 5), 12), (build_aghp(12, 6), 12), (build_aghp(16, 8), 3)):
        subset = rng.choice(g.num_vertices, g.num_vertices // 2, replace=False)
        inst = HittingInstance(g, subset, t)
        assert hitting._survival(inst) == object_survival(inst)


def test_budget_guard(k16, table_builds, tmp_path, capsys):
    # a residue DP that would hold more than 128 MiB, its (K, n) int64
    # counts and their working copy with the rows' fractions, is refused
    # by the instance, so neither check_hitting nor hitting_prob_exact
    # builds a character table first
    g = CayleyGraph(dim=20, generators=(1, 2))
    with pytest.raises(ValueError, match="instance too large"):
        HittingInstance(g, frozenset({0, 1}), 1 << 10)
    cube = CayleyGraph(dim=22, generators=[1 << i for i in range(22)], name="cube22")
    with pytest.raises(ValueError, match="instance too large: 4194304 vertices, degree 22 and t=65"):
        check_hitting(cube, [0], 65)
    assert table_builds == []
    from widewalk.cli import main

    # k16 at tmax 100,000 passed the old cap, |A| * t <= 2**28, yet its t rows
    # of exact fractions grow as t**2
    for graph, argv, err in (
        (cube, ["--set", "0", "--tmax", "65"],
         "4194304 vertices, degree 22 and t=65 hold about 640 MiB"),
        (k16, ["--set", "first-4", "--tmax", "100000"],
         "16 vertices, degree 15 and t=100000 hold about 9539 MiB"),
    ):
        gpath = tmp_path / "g.json"
        gpath.write_text(graph.to_json())
        capsys.readouterr()
        assert main(["verify", "hitting", "--graph", str(gpath), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: instance too large: {err} of exact integers, "
                                "past 128 MiB\n")
    assert table_builds == []
    # the instances the tests and the benchmark run stay accepted
    for g, subset, t in ((build_aghp(10, 5), range(512), 12), (k16, range(4), 8000)):
        assert HittingInstance(g, subset, t).subset == frozenset(subset)
