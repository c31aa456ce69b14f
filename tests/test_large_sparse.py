"""Large n, small cover: hundreds of independent vertices, many of them
twins (same neighbourhood) or isolated, at cover size k <= 5."""

import random
import tracemalloc

import pytest

from vcwidth.cover import minimum_vertex_cover
from vcwidth.decomposition import find_violations
from vcwidth.graph import Graph
from vcwidth.pathwidth import pathwidth_vc
from vcwidth.states import CoverContext, apex_context
from vcwidth.treewidth import treewidth_vc_4k
from vcwidth.treewidth_fast import treewidth_vc_3k

from genutil import add_universal_vertex, random_graph, random_graph_with_cover
from spec import tw_table_by_states


def typed_graph(rng, k, n, n_types, p_isolated):
    """Cover 0..k-1 with random internal edges; every other vertex is
    isolated with probability `p_isolated`, else it takes one of `n_types`
    random non-empty neighbourhoods in the cover, so most are twins."""
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)
             if rng.random() < 0.4]
    types = [[u for u in range(k) if rng.random() < 0.5] or [rng.randrange(k)]
             for _ in range(n_types)]
    for x in range(k, n):
        if rng.random() >= p_isolated:
            edges += [(u, x) for u in rng.choice(types)]
    return Graph(n, edges)


def relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def widths(g):
    """(tw, pw), each witness checked at its reported width."""
    out = []
    for solver in (treewidth_vc_4k, pathwidth_vc):
        w, dec = solver(g)
        assert not find_violations(g, dec) and dec.width == w
        out.append(w)
    return tuple(out)


CASES = [(1, 200, 1, 0.2), (2, 300, 2, 0.1), (3, 1000, 3, 0.3),
         (3, 600, 7, 0.5), (4, 500, 6, 0.05), (4, 250, 15, 0.3),
         (5, 800, 8, 0.2), (5, 1000, 20, 0.1), (5, 200, 31, 0.0)]


@pytest.mark.parametrize("k, n, n_types, p_isolated", CASES)
def test_large_sparse_widths(k, n, n_types, p_isolated):
    rng = random.Random(1000 * k + n)
    g = typed_graph(rng, k, n, n_types, p_isolated)
    tw, pw = widths(g)
    w3, dec3 = treewidth_vc_3k(g)
    assert not find_violations(g, dec3) and dec3.width == w3
    assert w3 == tw <= pw
    assert widths(relabeled(rng, g)) == (tw, pw)
    assert widths(Graph(n + 50, g.edges)) == (tw, pw)


def case_graph(k, n, n_types, p_isolated):
    return typed_graph(random.Random(1000 * k + n), k, n, n_types, p_isolated)


def test_implicit_apex_equals_the_explicit_one():
    # apex_context builds no apexed graph; its context must be the one
    # built on a graph that holds the apex as a real vertex
    graphs = [(case_graph(*case), set(range(case[0]))) for case in CASES]
    rng = random.Random(16)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(9), rng.random())
        graphs.append((g, minimum_vertex_cover(g)))
    for g, cover in graphs:
        implicit, apex = apex_context(g, cover, None)
        gp, explicit_apex = add_universal_vertex(g)
        explicit = CoverContext(gp, set(cover) | {explicit_apex})
        assert apex == explicit_apex == g.n and implicit.graph is g
        for name in ("order", "position", "cov_adj", "types",
                     "type_vertices", "inside"):
            assert getattr(implicit, name) == getattr(explicit, name), name
        if g.n < 9:  # the literal state model reads the apex from the graph
            ap = implicit.position[apex]
            assert (tw_table_by_states(implicit, ap)
                    == tw_table_by_states(explicit, ap))


@pytest.mark.parametrize("solver", [pathwidth_vc, treewidth_vc_4k,
                                    treewidth_vc_3k])
def test_cover_solvers_build_no_graph(monkeypatch, solver):
    g = case_graph(*CASES[6])
    built = []
    init = Graph.__init__

    def counting(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counting)
    width, dec = solver(g)
    assert not find_violations(g, dec) and dec.width == width
    assert built == []


def test_solvers_hold_a_large_input_about_once():
    # wide's k = 5, n = 3000 structure: beyond the graph itself, a solve
    # (cover search, witness, validation) peaks below twice the graph
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = random_graph_with_cover(random.Random(20260814), 5, 3000, 0.35)
        size = tracemalloc.get_traced_memory()[0] - before
        for solver in (pathwidth_vc, treewidth_vc_4k):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            width, dec = solver(g)
            extra = tracemalloc.get_traced_memory()[1] - start
            assert width == 5 and extra < 2 * size, (solver, extra / size)
            del dec
    finally:
        tracemalloc.stop()
