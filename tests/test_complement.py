"""Pathwidth via a vertex cover of the complement: table recurrence,
bitset helpers, the rooted table and the glue against the per-mask spec,
oracle equality on dense graphs, witness shape, limits."""

import random
from array import array

import pytest

from vcwidth import cli, complement
from vcwidth.complement import MAX_VERTICES, pathwidth_cvc, rooted_pw_table
from vcwidth.cover import minimum_vertex_cover
from vcwidth.decomposition import find_violations
from vcwidth.errors import ResourceLimitError
from vcwidth.formats import emit_gr
from vcwidth.graph import Graph
from vcwidth.oracle import pathwidth_exact
from vcwidth.pathwidth import pathwidth_vc

from genutil import (complete_graph, cycle_graph, random_graph,
                     random_graph_with_cover)
from spec import glue_by_scan, rooted_pw_by_recurrence


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


def subsets(k):
    return range(1 << k)


def test_subsets_of_by_brute_force():
    rng = random.Random(64)
    for k in range(7):
        for _ in range(20):
            t = rng.randrange(1 << k)
            family = complement._subsets_of(t)
            assert family == sum(1 << m for m in subsets(k) if m & ~t == 0)


def test_bit_plane_count_and_at_most_by_brute_force():
    rng = random.Random(65)
    for k in range(6):
        size = 1 << k
        for _ in range(10):
            planes, counts = [], [0] * size
            for _ in range(rng.randrange(12)):
                x, j = rng.randrange(1 << size), rng.randrange(4)
                complement._add(planes, x, j)
                for m in subsets(k):
                    counts[m] += (x >> m & 1) << j
            assert [sum((p >> m & 1) << j for j, p in enumerate(planes))
                    for m in subsets(k)] == counts
            full = (1 << size) - 1
            for w in range(-1, max(counts) + 2):
                assert complement._at_most(planes, w, full) == sum(
                    1 << m for m in subsets(k) if counts[m] <= w)


def test_lanes_planes_and_members_by_brute_force(monkeypatch):
    monkeypatch.setattr(complement, "_PIECE", 16)  # k > 4 spans pieces
    rng = random.Random(66)
    for k in range(8):
        size = 1 << k
        values = bytearray(rng.randrange(256) for _ in range(size))
        planes = [sum((v >> j & 1) << m for m, v in enumerate(values))
                  for j in range(8)]
        assert complement._table_planes(values, 8) == planes
        assert complement._byte_lanes(planes, size) == values
        family = planes[0]
        assert list(complement._members(family, size)) == [
            m for m in subsets(k) if family >> m & 1]
        wide = array("H", (rng.randrange(1 << 16) for _ in range(size)))
        assert complement._table_planes(wide, 16) == [
            sum((v >> j & 1) << m for m, v in enumerate(wide))
            for j in range(16)]


def spied_glue(monkeypatch, g, cover):
    """pathwidth_cvc's (width, L, stats): L is the first mask it peels."""
    peeled = []
    peel = complement._peel_order

    def spy(rooted, mask):
        peeled.append(mask)
        return peel(rooted, mask)

    stats = {}
    with monkeypatch.context() as patch:
        patch.setattr(complement, "_peel_order", spy)
        w, dec = pathwidth_cvc(g, cover=cover, stats=stats)
    assert not find_violations(g, dec) and dec.width == w
    return w, peeled[0], stats


def assert_matches_spec(monkeypatch, g, cover):
    order = sorted(cover)
    want = rooted_pw_by_recurrence(g, order)
    assert list(rooted_pw_table(g, order)) == want
    w, l_mask, stats = spied_glue(monkeypatch, g, cover)
    assert (w, l_mask) == glue_by_scan(g, order, want)
    assert 0 < stats["glue_evaluated"] <= 1 << len(order)
    assert stats["reach_sweeps"] >= stats["threshold_levels"]


def test_table_and_glue_match_the_spec(monkeypatch):
    # the table entry for entry, and the glue's (width, L), where L is the
    # one a scan over every L in increasing order keeps on ties
    rng = random.Random(67)
    tested = 0
    while tested < 2000:
        n = rng.randrange(1, 15)
        p = rng.choice([0.15, 0.3, 0.5, 0.7])
        g = random_graph(rng, n, p).complement()
        if rng.random() < 0.2:  # isolated vertices
            g = Graph(n + rng.randrange(1, 3), g.edges)
        cover = minimum_vertex_cover(g.complement())
        if rng.random() < 0.1:  # no outside: the whole vertex set
            cover = set(range(g.n))
        if len(cover) > 12:
            continue
        tested += 1
        assert_matches_spec(monkeypatch, g, cover)
    for n in (1, 2, 6):  # k' = 0
        assert_matches_spec(monkeypatch, complete_graph(n), set())
    rng = random.Random(68)
    for k in (14, 16):  # dense-cvc-shaped: complements of sparse instances
        g = random_graph_with_cover(rng, k, k + 6, 0.35).complement()
        assert_matches_spec(monkeypatch, g, set(range(k)))


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


def test_16_bit_table_matches_the_spec(monkeypatch):
    # K_300 minus a matching of m edges: one end of each matching edge covers
    # the complement, and widths reach 298
    for m in (8, 10):
        g = Graph(300, [(u, v) for u in range(300) for v in range(u + 1, 300)
                        if not (v == u + 1 and u % 2 == 0 and u < 2 * m)])
        cover = set(range(0, 2 * m, 2))
        assert rooted_pw_table(g, sorted(cover)).itemsize == 2
        assert_matches_spec(monkeypatch, g, cover)
        assert solved(g, cover=cover) == 298


def test_vertex_count_cap():
    with pytest.raises(ResourceLimitError):
        pathwidth_cvc(Graph(MAX_VERTICES + 1))
