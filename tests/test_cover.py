"""Minimum vertex cover: exactness against brute force, cover properties."""

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from vcwidth.cover import _greedy_cover, is_vertex_cover, minimum_vertex_cover
from vcwidth.graph import Graph

from genutil import (complete_graph, path_graph, random_graph,
                     random_graph_with_cover)


def brute_force_cover_size(g):
    for size in range(g.n + 1):
        for sub in combinations(range(g.n), size):
            if is_vertex_cover(g, sub):
                return size
    raise AssertionError("unreachable: V itself is always a cover")


def test_is_vertex_cover():
    p3 = path_graph(3)
    assert is_vertex_cover(p3, {1})
    assert not is_vertex_cover(p3, {0})  # edge 1-2 uncovered
    rng = random.Random(0)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(8), rng.random())
        assert is_vertex_cover(g, range(g.n))


def test_examples():
    c = minimum_vertex_cover(complete_graph(3))
    assert len(c) == 2 and c < set(range(3))
    assert minimum_vertex_cover(Graph(4)) == set()
    assert minimum_vertex_cover(path_graph(4)) == {1, 2}


def test_deterministic():
    rng = random.Random(8)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(9), rng.random())
        assert minimum_vertex_cover(g) == minimum_vertex_cover(g)


def test_minimum_on_random_graphs():
    rng = random.Random(20260814)
    densities = [0.15, 0.3, 0.5, 0.8]
    for trial in range(400):
        n = rng.randrange(11)
        g = random_graph(rng, n, rng.choice(densities))
        c = minimum_vertex_cover(g)
        assert is_vertex_cover(g, c)
        assert len(c) == brute_force_cover_size(g), f"trial {trial}: {g}"
        outside = sorted(set(range(n)) - c)
        assert not any(v in g.adj[u]
                       for u, v in combinations(outside, 2)), \
            f"trial {trial}: complement of the cover is not independent"


@given(st.integers(2, 8), st.data())
@settings(max_examples=150, deadline=None)
def test_minimum_cover_hypothesis(n, data):
    pairs = list(combinations(range(n), 2))
    picked = data.draw(st.sets(st.sampled_from(pairs)))
    g = Graph(n, sorted(picked))
    c = minimum_vertex_cover(g)
    assert is_vertex_cover(g, c)
    assert len(c) == brute_force_cover_size(g)


def planted_high_degree(rng):
    """Graphs with a few hubs, where the high-degree kernel decides or
    starts the search: K_{k,m}, sometimes with sparse extras among the m
    side, a planted cover at n >= 500, or a star."""
    roll = rng.randrange(3)
    if roll == 0:
        k, m = rng.randrange(1, 6), rng.randrange(8, 40)
        edges = {(u, v) for u in range(k) for v in range(k, k + m)}
        if rng.random() < 0.6:
            edges |= {(v, v + rng.randrange(1, 4)) for v in range(k, k + m - 4)
                      if rng.random() < 0.1}
        return Graph(k + m, sorted(edges))
    if roll == 1:
        return random_graph_with_cover(rng, rng.randrange(1, 7),
                                       rng.randrange(500, 700),
                                       rng.choice([0.02, 0.35]))
    n = rng.randrange(2, 60)
    return Graph(n, [(0, v) for v in range(1, n)])


def test_limit_matches_the_unbounded_search():
    # within the limit the bounded search returns the very same cover; over
    # it, None. Limits below the greedy cover, where the search starts from
    # the limit instead of from that cover, are among those within; so are
    # the planted graphs where the vertices of degree above the limit cover
    # every edge, and those where more of them than the limit rule it out
    rng = random.Random(20261018)
    within = over = greedy_over = heavy_cover = heavy_over = 0
    for trial in range(460):
        if trial < 300:
            n = rng.randrange(1, 26)
            g = random_graph(rng, n, rng.choice([0.08, 0.15, 0.3, 0.6]))
        else:
            g = planted_high_degree(rng)
        full = minimum_vertex_cover(g)
        greedy = len(_greedy_cover([set(g.adj[v]) for v in range(g.n)]))
        for limit in range(len(full) + 2):
            got = minimum_vertex_cover(g, limit=limit)
            heavy = {v for v in range(g.n) if len(g.adj[v]) > limit}
            if len(heavy) > limit:
                heavy_over += 1
            elif is_vertex_cover(g, heavy):
                heavy_cover += 1
                assert got == heavy
            if len(full) <= limit:
                assert got == full
                within += 1
                greedy_over += limit < greedy
            else:
                assert got is None
                over += 1
    assert within and over and greedy_over and heavy_cover and heavy_over


def test_long_path_without_limit():
    # the greedy cover and the forced moves must not scan all n vertices
    # per step: that is quadratic, tens of seconds at this n
    n = 20000
    assert minimum_vertex_cover(path_graph(n)) == (
        set(range(1, n - 2, 2)) | {n - 2})
