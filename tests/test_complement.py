"""Pathwidth via a vertex cover of the complement: table recurrence,
oracle equality on dense graphs, witness shape, limits."""

import random

import pytest

from vcwidth import cli
from vcwidth.complement import MAX_VERTICES, pathwidth_cvc, rooted_pw_table
from vcwidth.cover import minimum_vertex_cover
from vcwidth.decomposition import find_violations
from vcwidth.errors import ResourceLimitError
from vcwidth.formats import emit_gr
from vcwidth.graph import Graph
from vcwidth.oracle import pathwidth_exact
from vcwidth.pathwidth import pathwidth_vc

from genutil import complete_graph, cycle_graph, random_graph


def solved(g, **kw):
    w, dec = pathwidth_cvc(g, **kw)
    assert not find_violations(g, dec)
    assert dec.width == w and dec.kind == "path"
    return w


def test_frozen_small_answers():
    assert solved(complete_graph(5)) == 4  # complement cover is empty
    assert solved(complete_graph(2)) == 1
    assert solved(cycle_graph(4)) == 2
    assert pathwidth_exact(cycle_graph(4)) == 2
    assert solved(cycle_graph(5)) == 2  # self-complementary


def test_degenerate_sizes():
    w, dec = pathwidth_cvc(Graph(0))
    assert w == -1 and dec.bags == []
    assert solved(Graph(1)) == 0
    assert solved(Graph(3)) == 0  # edgeless: complement cover is n - 1 big


def test_rooted_table_trivial_masks():
    assert rooted_pw_table(complete_graph(4), []) == bytearray([0])
    g = cycle_graph(4)
    order = sorted(minimum_vertex_cover(g.complement()))
    rooted = rooted_pw_table(g, order)
    assert rooted[0] == 0
    for i, v in enumerate(order):
        assert rooted[1 << i] == len(g.adj[v])


def test_rooted_table_recurrence():
    rng = random.Random(61)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 11), 0.2).complement()
        order = sorted(minimum_vertex_cover(g.complement()))
        if len(order) > 10:
            continue
        rooted = rooted_pw_table(g, order)
        for mask in range(1, 1 << len(order)):
            members = {order[i] for i in range(len(order)) if mask >> i & 1}
            boundary = set()
            for v in members:
                boundary |= g.adj[v]
            boundary -= members
            sub = min(rooted[mask ^ (1 << i)]
                      for i in range(len(order)) if mask >> i & 1)
            assert rooted[mask] == max(len(boundary), sub)


def test_matches_oracle_on_dense_graphs():
    rng = random.Random(62)
    tested = 0
    while tested < 100:
        n = rng.randrange(2, 13)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3])).complement()
        cover = minimum_vertex_cover(g.complement())
        if len(cover) > 8:
            continue
        tested += 1
        stats = {}
        w, dec = pathwidth_cvc(g, stats=stats)
        assert not find_violations(g, dec)
        assert dec.width == w
        assert w == pathwidth_exact(g), f"edges {g.edges}"
        outside = set(range(g.n)) - set(cover)
        assert any(outside <= set(b) for b in dec.bags), \
            "no bag holds the whole outside clique"
        assert stats["table_entries"] == 1 << stats["cover_size"]


def test_agrees_with_cover_parameter_solver():
    rng = random.Random(63)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 11), rng.random())
        if len(minimum_vertex_cover(g.complement())) > 10:
            continue
        w_c, _ = pathwidth_cvc(g)
        w_v, _ = pathwidth_vc(g)
        assert w_c == w_v


def test_cover_injection_and_rejection():
    g = Graph(4)  # complement is K4
    assert solved(g, cover={0, 1, 2}) == 0
    with pytest.raises(ValueError):
        pathwidth_cvc(g, cover={0, 1})


def test_resource_cap():
    g = Graph(5)  # complement K5 needs a cover of size 4
    with pytest.raises(ResourceLimitError):
        pathwidth_cvc(g, max_cover=3)
    assert solved(g) == 0


def complete_minus_two_edges(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if (u, v) not in ((0, 1), (2, 3))])


def test_widths_above_one_byte(tmp_path, capsys):
    # K_n minus two disjoint edges has pathwidth n - 2; at n = 300 the
    # rooted table holds widths far above 255
    for n in (7, 9, 11):
        assert pathwidth_exact(complete_minus_two_edges(n)) == n - 2
        assert solved(complete_minus_two_edges(n)) == n - 2
    g = complete_minus_two_edges(300)
    order = sorted(minimum_vertex_cover(g.complement()))
    rooted = rooted_pw_table(g, order)
    assert rooted.itemsize == 2 and max(rooted) == 298
    gr = tmp_path / "k300.gr"
    gr.write_text(emit_gr(complete_minus_two_edges(300)))
    assert cli.main(["pw", "--algo", "cvc", "--emit-witness",
                     "--input", str(gr)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("width: 298\n")
    td = tmp_path / "k300.td"
    td.write_text(out.split("\n", 1)[1])
    assert cli.main(["check", str(gr), str(td)]) == 0
    assert capsys.readouterr().out == "width: 298\n"


def test_vertex_count_cap():
    with pytest.raises(ResourceLimitError):
        pathwidth_cvc(Graph(MAX_VERTICES + 1))
