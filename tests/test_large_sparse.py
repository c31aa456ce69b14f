"""Large n, small cover: hundreds of independent vertices, many of them
twins (same neighbourhood) or isolated, at cover size k <= 5."""

import random

import pytest

from vcwidth.decomposition import find_violations
from vcwidth.graph import Graph
from vcwidth.pathwidth import pathwidth_vc
from vcwidth.treewidth import treewidth_vc_4k
from vcwidth.treewidth_fast import treewidth_vc_3k


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
