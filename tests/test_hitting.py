"""Exact survival probabilities against an independent path-enumeration
oracle and the closed-form bound."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from widewalk import build_aghp, build_complete_selfloop
from widewalk.graphs import CayleyGraph
from widewalk.hitting import (
    HittingInstance,
    check_hitting,
    hitting_bound,
    hitting_prob_exact,
)

import walk_oracle as oracle


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


def test_budget_guard(k16, table_builds, tmp_path, capsys):
    # an exact DP that would hold more than 128 MiB of integers is refused by
    # the instance, so neither check_hitting nor hitting_prob_exact builds a
    # character table first
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
         "4194304 vertices, degree 22 and t=65 hold about 192 MiB"),
        (k16, ["--set", "first-4", "--tmax", "100000"],
         "16 vertices, degree 15 and t=100000 hold about 9537 MiB"),
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
