"""Shared instances.

The flagship system (4-vertex outer with self-loops, AGHP(10,5) inner,
s=5) is expensive enough that its DP tables are computed once per
session and shared.  The small g8 system exists because its walk
conditional means are nonzero at every level, which makes it a better
witness for identity tests than instances where everything collapses
to an exact zero.  The skew16 outer multigraph is the one outer graph
with lambda_A strictly between 0 and 1, so the hypothesis
lambda_A <= lambda_B^2 is met by a nonzero lambda_A only on its systems;
with the lazy AGHP(20,6) inner graph it is instance C, the one system
whose headline bias-lemma row has lambda_A > 0 and is asserted.
"""

import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from widewalk import (
    ReplacementSystem,
    SignedFn,
    WalkParams,
    build_aghp,
    build_complete_selfloop,
)
from widewalk.amplify import dp_gk
from widewalk.graphs import CayleyGraph


def traced_peak(call) -> int:
    """Peak bytes that tracemalloc sees numpy and Python allocate in call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def flagship():
    params = WalkParams(m=2, s=5, ell=5)
    return ReplacementSystem(build_complete_selfloop(2), build_aghp(10, 5), params)


@pytest.fixture(scope="session")
def flagship_f(flagship):
    return SignedFn.balanced(flagship.outer.num_vertices)


@pytest.fixture(scope="session")
def flagship_tables(flagship, flagship_f):
    return dp_gk(flagship, flagship_f, 20)


@pytest.fixture(scope="session")
def k16():
    return build_complete_selfloop(4, selfloop=False)


@pytest.fixture(scope="session")
def g8_system():
    # Outer graph: Cayley graph on F_2^3 with generators {1, 2}.  Its
    # degree is 2 = 2^m for m=1, and indicator functions on it have
    # nonzero step correlations, unlike the 2-vertex complete graph.
    outer = CayleyGraph(dim=3, generators=(1, 2), name="g8")
    params = WalkParams(m=1, s=2, ell=1)
    return ReplacementSystem(outer, build_aghp(2, 1), params)


@pytest.fixture(scope="session")
def g8_f(g8_system):
    return SignedFn.from_support(g8_system.outer.num_vertices, {0, 1, 2})


@pytest.fixture(scope="session")
def mono_system():
    params = WalkParams(m=3, s=2, ell=3)
    return ReplacementSystem(build_complete_selfloop(3), build_aghp(6, 3), params)


@pytest.fixture(scope="session")
def witness():
    # the benchmark's witness-dp system: one 2 MiB float table per level
    params = WalkParams(m=3, s=5, ell=5)
    return ReplacementSystem(build_complete_selfloop(3), build_aghp(15, 5), params)


@pytest.fixture(scope="session")
def skew16():
    # every vertex of F_2^3 twice, except 0 three times and 7 once: 16
    # generators (an outer graph for m = 4) whose character sum at a
    # nonzero alpha is 1 - (-1)^parity(alpha), so lambda_A = 2/16 = 1/8
    gens = np.repeat(np.arange(8), [3, 2, 2, 2, 2, 2, 2, 1])
    return CayleyGraph(dim=3, generators=gens, name="skew16", multigraph=True)


@pytest.fixture(scope="session")
def lazy_aghp20():
    # instance C's inner graph: AGHP(20,6) with its first 512 of 4096
    # generators replaced by the zero word, a lazier walk whose lambda_B =
    # 13/32 lies in [sqrt(1/8), 1/2), where skew16's lambda_A = 1/8 meets
    # the hypotheses and the headline bound (2*lambda_B)^(t*(1-4/s)) informs
    gens = build_aghp(20, 6).generators.copy()
    gens[:512] = 0
    return CayleyGraph(dim=20, generators=gens, name="aghp-r20-l6-lazy512", multigraph=True)


@pytest.fixture
def table_builds(monkeypatch):
    """The name of each graph whose character table is built while the
    test runs, once per build: CayleyGraph's cached table, counted."""
    builds = []
    build = CayleyGraph.character_table.func

    def counted(graph):
        builds.append(graph.name)
        return build(graph)

    table = cached_property(counted)
    table.__set_name__(CayleyGraph, "character_table")
    monkeypatch.setattr(CayleyGraph, "character_table", table)
    return builds
