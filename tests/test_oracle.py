"""Reference solvers vs. factorial-time searches and closed-form widths."""

import random

import pytest

from vcwidth.errors import ResourceLimitError
from vcwidth.graph import Graph
from vcwidth.oracle import pathwidth_exact, treewidth_exact

from genutil import (add_universal_vertex, complete_graph, cycle_graph,
                     enumerate_small_graphs, grid_graph, path_graph,
                     pw_by_layouts, random_graph, random_tree,
                     tw_by_elimination_orders)


def binary_tree(height):
    """Complete binary tree: vertex 0 is the root, children of i are 2i+1, 2i+2."""
    n = 2 ** (height + 1) - 1
    return Graph(n, [((i - 1) // 2, i) for i in range(1, n)])


def test_complete_graphs():
    for n in range(1, 8):
        assert treewidth_exact(complete_graph(n)) == n - 1
        assert pathwidth_exact(complete_graph(n)) == n - 1


def test_trees_have_treewidth_one():
    rng = random.Random(21)
    for _ in range(20):
        t = random_tree(rng, rng.randrange(2, 12))
        assert treewidth_exact(t) == 1


def test_paths_have_pathwidth_one():
    for n in range(2, 9):
        assert pathwidth_exact(path_graph(n)) == 1
    assert pathwidth_exact(path_graph(1)) == 0
    assert pathwidth_exact(complete_graph(4)) == 3


def test_cycles():
    for n in range(3, 8):
        assert treewidth_exact(cycle_graph(n)) == 2
        assert pathwidth_exact(cycle_graph(n)) == 2


def test_grid_vs_elimination_order_search():
    g = grid_graph(3, 3)
    assert treewidth_exact(g) == 3
    assert tw_by_elimination_orders(g) == 3


def test_binary_tree_pathwidth_vs_layout_search():
    # height 2, 7 vertices: a caterpillar, so the two searches settle on 1
    t = binary_tree(2)
    assert pathwidth_exact(t) == 1
    assert pw_by_layouts(t) == 1
    # height 3 is the smallest complete binary tree of pathwidth 2
    assert pathwidth_exact(binary_tree(3)) == 2


def test_factorial_agreement_small():
    for n in range(1, 5):
        for g in enumerate_small_graphs(n):
            assert treewidth_exact(g) == tw_by_elimination_orders(g)
            assert pathwidth_exact(g) == pw_by_layouts(g)


def test_factorial_agreement_n5_and_random_n7():
    for g in enumerate_small_graphs(5):
        assert treewidth_exact(g) == tw_by_elimination_orders(g)
        assert pathwidth_exact(g) == pw_by_layouts(g)
    rng = random.Random(22)
    for _ in range(50):
        g = random_graph(rng, 7, rng.choice([0.2, 0.4, 0.6, 0.8]))
        assert treewidth_exact(g) == tw_by_elimination_orders(g)
        assert pathwidth_exact(g) == pw_by_layouts(g)


def test_treewidth_at_most_pathwidth():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 9), rng.random())
        assert treewidth_exact(g) <= pathwidth_exact(g)


def test_universal_vertex_adds_one():
    rng = random.Random(24)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        gp, _ = add_universal_vertex(g)
        assert treewidth_exact(gp) == treewidth_exact(g) + 1
        assert pathwidth_exact(gp) == pathwidth_exact(g) + 1


def test_enumerate_small_graphs():
    assert sum(1 for _ in enumerate_small_graphs(2)) == 2
    assert sum(1 for _ in enumerate_small_graphs(3)) == 8
    assert sum(1 for _ in enumerate_small_graphs(6)) == 32768
    assert next(enumerate_small_graphs(3)) == Graph(3)
    assert list(enumerate_small_graphs(2)) == [Graph(2), Graph(2, [(0, 1)])]


def test_empty_and_size_cap():
    assert treewidth_exact(Graph(0)) == -1
    assert pathwidth_exact(Graph(0)) == -1
    assert treewidth_exact(Graph(3)) == 0
    with pytest.raises(ResourceLimitError):
        treewidth_exact(complete_graph(5), max_n=4)
    with pytest.raises(ResourceLimitError):
        pathwidth_exact(complete_graph(5), max_n=4)
