"""Graph data model: adjacency, complement, universal vertex."""

import random

import pytest

from vcwidth.graph import Graph

from genutil import (add_universal_vertex, complete_graph, cycle_graph,
                     grid_graph, path_graph, random_graph)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(-1)
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate after normalization


def test_neighborhood():
    p3 = path_graph(3)
    assert set(p3.adj[1]) == {0, 2}
    assert set(Graph(3, [(0, 1)]).adj[2]) == set()
    k4 = complete_graph(4)
    assert all(set(k4.adj[v]) == set(range(4)) - {v} for v in range(4))


def test_complement_examples():
    assert complete_graph(3).complement() == Graph(3)
    assert path_graph(3).complement() == Graph(3, [(0, 2)])
    c5c = cycle_graph(5).complement()
    assert c5c.m == 5
    assert all(len(c5c.adj[v]) == 2 for v in range(5))


def test_complement_involution():
    rng = random.Random(42)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(9), rng.random())
        assert g.complement().complement() == g


def test_add_universal_vertex():
    gp, univ = add_universal_vertex(path_graph(3))
    assert gp.n == 4 and univ == 3 and len(gp.adj[univ]) == 3
    star, centre = add_universal_vertex(Graph(2))
    assert star == Graph(3, [(0, 2), (1, 2)]) and centre == 2
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(8), rng.random())
        gp, u = add_universal_vertex(g)
        assert len(gp.adj[u]) == g.n and gp.m == g.m + g.n
        assert all(len(gp.adj[v]) == len(g.adj[v]) + 1 for v in range(g.n))


def test_no_self_adjacency():
    rng = random.Random(3)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(10), rng.random())
        assert all(v not in g.adj[v] for v in range(g.n))


def test_constructions():
    assert path_graph(1).m == 0
    assert cycle_graph(3) == complete_graph(3)
    with pytest.raises(ValueError):
        cycle_graph(2)
    g = grid_graph(3, 3)
    assert g.n == 9 and g.m == 12
    assert 1 in g.adj[0] and 3 in g.adj[0] and 4 not in g.adj[0]
