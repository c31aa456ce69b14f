"""Decomposition model, the validator, contraction, nice form, and node
traces."""

import random
from collections import deque

import pytest

from vcwidth.decomposition import (Decomposition, contract, find_violations,
                                   validate)
from vcwidth.errors import InvalidDecompositionError
from vcwidth.graph import Graph
from vcwidth.states import CoverContext
from vcwidth.cover import minimum_vertex_cover

from genutil import (complete_graph, elimination_decomposition, path_graph,
                     random_graph)
from spec import (find_violations_by_scan, is_valid_triple, make_nice,
                  trace_of_node)


# --- an independent re-derivation of the three axioms, used as a cross-check


def _connected(nodes, edges):
    nodes = list(nodes)
    if not nodes:
        return True
    nbr = {i: [] for i in nodes}
    for i, j in edges:
        nbr[i].append(j)
        nbr[j].append(i)
    seen = {nodes[0]}
    queue = deque([nodes[0]])
    while queue:
        for j in nbr[queue.popleft()]:
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(nodes)


def naive_is_valid(g, dec):
    nbags = len(dec.bags)
    if nbags == 0:
        return g.n == 0
    es = set()
    for i, j in dec.edges:
        e = (min(i, j), max(i, j))
        if i == j or e in es:
            return False
        es.add(e)
    if len(es) != nbags - 1 or not _connected(range(nbags), es):
        return False
    if dec.kind == "path":
        deg = {i: 0 for i in range(nbags)}
        for i, j in es:
            deg[i] += 1
            deg[j] += 1
        if any(d > 2 for d in deg.values()):
            return False
    if any(not (0 <= v < g.n) for b in dec.bags for v in b):
        return False
    for v in range(g.n):
        holders = [i for i, b in enumerate(dec.bags) if v in b]
        if not holders:
            return False
        inner = {e for e in es if e[0] in holders and e[1] in holders}
        if not _connected(holders, inner):
            return False
    return all(any(u in b and v in b for b in dec.bags) for u, v in g.edges)


def test_width():
    assert Decomposition([], []).width == -1
    assert Decomposition([{0, 1, 2}], []).width == 2


def test_validate_examples():
    k4 = complete_graph(4)
    assert validate(k4, Decomposition([set(range(4))], [])) == 3
    p3 = path_graph(3)
    assert validate(p3, Decomposition([{0, 1}, {1, 2}], [(0, 1)])) == 1


def test_uncovered_edge_is_named():
    p3 = path_graph(3)
    bad = Decomposition([{0, 1}, {2}], [(0, 1)])
    violations = find_violations(p3, bad)
    assert any("edge (2,3)" in v for v in violations)
    with pytest.raises(InvalidDecompositionError):
        validate(p3, bad)


def test_uncovered_edges_are_named_in_sorted_order():
    # one bag per vertex covers no edge: every edge is named, in ascending
    # order, whatever order the graph's edge set iterates in
    g = random_graph(random.Random(9), 40, 0.2)
    dec = Decomposition([{v} for v in range(g.n)],
                        [(v, v + 1) for v in range(g.n - 1)], kind="path")
    assert find_violations(g, dec) == [
        f"edge ({u + 1},{v + 1}) is contained in no bag"
        for u, v in sorted(g.edges)]
    assert list(g.edges) != sorted(g.edges)


def test_validator_matches_naive_checker():
    rng = random.Random(606)
    agree_valid = agree_invalid = 0
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 7), rng.random())
        dec = elimination_decomposition(rng, g)
        bags = [set(b) for b in dec.bags]
        edges = list(dec.edges)
        roll = rng.random()
        if roll < 0.25 and any(len(b) > 1 for b in bags):
            big = rng.choice([i for i, b in enumerate(bags) if len(b) > 1])
            bags[big].discard(rng.choice(sorted(bags[big])))
        elif roll < 0.5 and edges:
            edges.pop(rng.randrange(len(edges)))
        elif roll < 0.75 and len(bags) > 2:
            i, j = rng.sample(range(len(bags)), 2)
            edges.append((i, j))  # usually a cycle or a duplicate
        mutated = Decomposition(bags, edges, kind=dec.kind)
        verdict = not find_violations(g, mutated)
        assert verdict == naive_is_valid(g, mutated)
        if verdict:
            agree_valid += 1
        else:
            agree_invalid += 1
    assert agree_valid and agree_invalid  # both outcomes exercised


def corrupted(rng, dec, n):
    """`dec` after one to three random corruptions: a vertex dropped from a
    bag or added to one (maybe far from its other bags, maybe unknown), a
    bag edge dropped, added, rewired or made a self-loop, or a bag added."""
    bags = [set(b) for b in dec.bags]
    edges = list(dec.edges)
    for _ in range(rng.randrange(1, 4)):
        roll = rng.randrange(8)
        if roll == 0 and any(bags):
            bag = rng.choice([b for b in bags if b])
            bag.discard(rng.choice(sorted(bag)))
        elif roll == 1 and bags:
            rng.choice(bags).add(rng.randrange(-1, n + 2) if rng.random() < 0.2
                                 else rng.randrange(max(n, 1)))
        elif roll == 2 and edges:
            edges.pop(rng.randrange(len(edges)))
        elif roll == 3 and bags:
            edges.append((rng.randrange(len(bags)), rng.randrange(len(bags))))
        elif roll == 4 and edges:  # a duplicate
            edges.append(rng.choice(edges)[::-1])
        elif roll == 5 and edges:  # one end moved: a tree stays one or not
            e = rng.randrange(len(edges))
            edges[e] = (edges[e][0], rng.randrange(len(bags)))
        elif roll == 6 and bags:
            i = rng.randrange(len(bags))
            edges.append((i, i))
        elif roll == 7:
            bags.append({v for v in range(n) if rng.random() < 0.3})
            if len(bags) > 1 and rng.random() < 0.8:
                edges.append((rng.randrange(len(bags) - 1), len(bags) - 1))
    return Decomposition(bags, edges, kind=dec.kind)


def test_validator_messages_match_the_scan():
    # the subtree-root checks name the same violations, in the same order,
    # as the occurrence-list scan they replaced, on valid and corrupted
    # path and tree decompositions
    rng = random.Random(20261019)
    seen = set()
    for case in range(3000):
        g = random_graph(rng, rng.randrange(0, 10), rng.random())
        if case % 2:
            dec = elimination_decomposition(rng, g)
        else:
            dec = layout_decomposition(rng, g)
        if rng.random() < 0.9:
            dec = corrupted(rng, dec, g.n)
        got = find_violations(g, dec)
        assert got == find_violations_by_scan(g, dec), (g, dec)
        seen.update(kind for kind in _MESSAGE_KINDS
                    if any(kind in m for m in got))
    assert seen == set(_MESSAGE_KINDS)


_MESSAGE_KINDS = ("unknown vertex", "self-loop", "duplicate bag edge",
                  "a tree on", "bag graph is disconnected", "branching bag",
                  "appears in no bag", "contained in no bag",
                  "are disconnected")


# --- contraction


def layout_decomposition(rng, g):
    """A path decomposition from a random vertex layout: bag t holds the
    t-th vertex and every earlier one with a neighbour at t or later."""
    order = list(range(g.n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    bags = [{v} | {u for u in order[:t] if any(pos[w] >= t for w in g.adj[u])}
            for t, v in enumerate(order)]
    return Decomposition(bags, [(i, i + 1) for i in range(len(bags) - 1)],
                         kind="path")


def spliced(rng, dec, extra):
    """`dec` with `extra` empty, repeated or subset bags added: each goes
    between the two ends of a bag edge, holding what they share and maybe
    more of one end, or (trees, and the ends of paths) hangs off a bag as a
    leaf holding part of it. Bag order stays path order for paths."""
    bags = [set(b) for b in dec.bags]
    edges = sorted(dec.edges)
    for _ in range(extra):
        roll = rng.random()
        if edges and roll < 0.5:  # subdivide an edge
            e = rng.randrange(len(edges))
            i, j = edges[e]
            side = bags[rng.choice((i, j))]
            new = (bags[i] & bags[j]) | {v for v in side if rng.random() < 0.5}
            if dec.kind == "path":  # i, j = t, t + 1: shift the tail right
                bags.insert(j, new)
                edges = [(t, t + 1) for t in range(len(bags) - 1)]
            else:
                bags.append(new)
                edges[e] = (i, len(bags) - 1)
                edges.append((j, len(bags) - 1))
        else:  # a leaf: empty, a repeat, or a random part of its neighbour
            if dec.kind == "path":
                at = rng.choice((0, len(bags) - 1))
            else:
                at = rng.randrange(len(bags))
            new = rng.choice([set(), set(bags[at]),
                              {v for v in bags[at] if rng.random() < 0.5}])
            if dec.kind == "path" and at == 0:
                bags.insert(0, new)
                edges = [(t, t + 1) for t in range(len(bags) - 1)]
            else:
                bags.append(new)
                edges.append((at, len(bags) - 1) if dec.kind == "tree"
                             else (len(bags) - 2, len(bags) - 1))
    return Decomposition(bags, edges, kind=dec.kind)


def test_contract_keeps_axioms_width_and_shape():
    rng = random.Random(515)
    merged = 0
    for trial in range(300):
        g = random_graph(rng, rng.randrange(1, 9), rng.random())
        make = elimination_decomposition if trial % 2 else \
            layout_decomposition
        dec = spliced(rng, make(rng, g), rng.randrange(0, 6))
        width = validate(g, dec)
        out = contract(dec.bags, dec.edges, dec.kind)
        assert validate(g, out) == width
        assert out.kind == dec.kind
        for i, j in out.edges:
            assert not (out.bags[i] <= out.bags[j]
                        or out.bags[j] <= out.bags[i]), (dec.bags, out.bags)
        if dec.kind == "path":
            assert sorted(out.edges) == [(i, i + 1)
                                         for i in range(len(out.bags) - 1)]
        merged += len(dec.bags) - len(out.bags)
    assert merged > 300


def test_contract_of_one_bag_and_of_no_bags():
    assert contract([{0, 1}], [], "tree") == Decomposition([{0, 1}], [])
    assert contract([], [], "path") == Decomposition([], [], kind="path")
    assert contract([set(), {0}, {0}, set()], [(0, 1), (1, 2), (2, 3)],
                    "path") == Decomposition([{0}], [], kind="path")


# --- nice form


def check_nice_shape(nd):
    for node in nd.nodes:
        if node.kind == "leaf":
            assert not node.children and len(node.bag) == 1
        elif node.kind == "introduce":
            (c,) = node.children
            child = nd.nodes[c].bag
            assert node.vertex not in child
            assert node.bag == child | {node.vertex}
        elif node.kind == "forget":
            (c,) = node.children
            child = nd.nodes[c].bag
            assert node.vertex in child
            assert node.bag == child - {node.vertex}
        else:
            assert node.kind == "join"
            c1, c2 = node.children
            assert nd.nodes[c1].bag == node.bag == nd.nodes[c2].bag
    if nd.root is not None:
        assert len(nd.nodes[nd.root].bag) == 1


def test_make_nice_single_bag():
    g = complete_graph(2)
    nd = make_nice(g, Decomposition([{0, 1}], []))
    check_nice_shape(nd)
    kinds = [n.kind for n in nd.nodes]
    assert kinds[0] == "leaf" and "introduce" in kinds and "forget" in kinds
    assert nd.width == 1
    assert validate(g, nd.as_decomposition()) == 1


def test_make_nice_empty():
    nd = make_nice(Graph(0), Decomposition([], []))
    assert nd.nodes == [] and nd.root is None


def test_make_nice_path_input_stays_join_free():
    g = path_graph(5)
    dec = Decomposition([{i, i + 1} for i in range(4)],
                        [(i, i + 1) for i in range(3)], kind="path")
    nd = make_nice(g, dec)
    check_nice_shape(nd)
    assert all(n.kind != "join" for n in nd.nodes)
    assert nd.as_decomposition().kind == "path"


def test_make_nice_random_decompositions():
    rng = random.Random(77)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(1, 9), rng.random())
        dec = elimination_decomposition(rng, g)
        assert not find_violations(g, dec)
        nd = make_nice(g, dec)
        check_nice_shape(nd)
        assert nd.width <= dec.width
        assert validate(g, nd.as_decomposition()) == nd.width


# --- traces


def test_trace_of_leaf():
    g = complete_graph(2)
    nd = make_nice(g, Decomposition([{0, 1}], []))
    leaf = next(i for i, n in enumerate(nd.nodes) if n.kind == "leaf")
    v = next(iter(nd.nodes[leaf].bag))
    assert trace_of_node(nd, leaf, {0, 1}) == \
        (frozenset(), frozenset({v}), frozenset({0, 1}) - {v})


def test_trace_of_root_with_universal_vertex():
    # vertex 0 is universal; make_nice roots chains at the lowest id, so the
    # root bag is {0} and its trace splits the cover as (C - {0}, {0}, {})
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    nd = make_nice(g, Decomposition([{0, 1, 2}], []))
    cover = {0, 1, 2}
    assert nd.nodes[nd.root].bag == frozenset({0})
    below, here, ahead = trace_of_node(nd, nd.root, cover)
    assert (below, here, ahead) == (frozenset({1, 2}), frozenset({0}), frozenset())


def test_traces_are_valid_triples():
    rng = random.Random(909)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(2, 8), rng.random())
        cover = minimum_vertex_cover(g)
        if not cover:
            continue
        ctx = CoverContext(g, cover)
        nd = make_nice(g, elimination_decomposition(rng, g))
        for i in nd.postorder():
            below, here, ahead = trace_of_node(nd, i, cover)
            assert below | here | ahead == frozenset(cover)
            assert not (below & here or below & ahead or here & ahead)
            masks = []
            for part in (below, here, ahead):
                m = 0
                for v in part:
                    m |= 1 << ctx.position[v]
                masks.append(m)
            assert is_valid_triple(ctx.cov_adj, *masks)
