"""Pathwidth via a vertex cover of the complement: table recurrence,
bitset helpers, the rooted table's bit planes and the glue against the
per-mask spec, the table stopped at the width,
oracle equality on dense graphs, witness shape, limits."""

import os
import random
import subprocess
import sys

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


def subsets(k):
    return range(1 << k)


def entries(planes, k):
    """The entries, one per subset of k positions, of a table held as bit
    planes, decoded through their binary strings."""
    if not planes:
        return [0] * (1 << k)
    bits = [format(p, f"0{1 << k}b")[::-1] for p in reversed(planes)]
    return [int("".join(column), 2) for column in zip(*bits)]


def test_rooted_table_trivial_masks():
    # k' = 0: the middle bag alone, L, N(L) and R empty, no planes
    assert rooted_pw_table(complete_graph(4), []) == (3, (0, 0, 0), [])
    g = cycle_graph(4)
    order = sorted(minimum_vertex_cover(g.complement()))
    width, _, planes = rooted_pw_table(g, order)
    rooted = entries(planes, len(order))
    assert rooted[0] == 0
    for i, v in enumerate(order):
        assert rooted[1 << i] == min(len(g.adj[v]), width + 1)


def test_rooted_table_recurrence():
    rng = random.Random(61)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 11), 0.2).complement()
        order = sorted(minimum_vertex_cover(g.complement()))
        if len(order) > 10:
            continue
        # the table stops at the width: its entries are min(rooted,
        # width + 1), which keep the recurrence capped at width + 1
        width, _, planes = rooted_pw_table(g, order)
        rooted = entries(planes, len(order))
        for mask in range(1, 1 << len(order)):
            members = {order[i] for i in range(len(order)) if mask >> i & 1}
            boundary = set()
            for v in members:
                boundary |= g.adj[v]
            boundary -= members
            sub = min(rooted[mask ^ (1 << i)]
                      for i in range(len(order)) if mask >> i & 1)
            assert rooted[mask] == min(width + 1, max(len(boundary), sub))


def test_subsets_of_by_brute_force():
    rng = random.Random(64)
    for k in range(7):
        for _ in range(20):
            t = rng.randrange(1 << k)
            family = complement._subsets_of(t)
            assert family == sum(1 << m for m in subsets(k) if m & ~t == 0)


def closure_by_brute_force(family, allowed, k):
    """The subsets reached from `family` by adding one position at a time,
    each step staying in `allowed`, one subset at a time."""
    reached = set(family)
    stack = list(reached)
    while stack:
        mask = stack.pop()
        for u in range(k):
            grown = mask | 1 << u
            if grown in allowed and grown not in reached:
                reached.add(grown)
                stack.append(grown)
    return reached


def test_reach_by_brute_force():
    rng = random.Random(69)
    for k in range(7):
        for _ in range(30):
            p = rng.random()
            allowed = {m for m in subsets(k) if rng.random() < p}
            family = {m for m in subsets(k) if rng.random() < p / 4}
            got, sweeps = complement._reach(
                sum(1 << m for m in family), sum(1 << m for m in allowed), k)
            want = closure_by_brute_force(family, allowed, k)
            assert got == sum(1 << m for m in want)
            assert sweeps >= 1


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


def test_reader_and_members_by_brute_force(monkeypatch):
    monkeypatch.setattr(complement, "_PIECE", 16)  # k > 4 spans pieces
    rng = random.Random(66)
    for k in range(8):
        size = 1 << k
        values = [rng.randrange(512) for _ in range(size)]
        planes = [sum((v >> j & 1) << m for m, v in enumerate(values))
                  for j in range(9)]
        read = complement._reader(planes, size)
        assert [read(m) for m in subsets(k)] == values
        family = planes[0]
        assert list(complement._members(family, size)) == [
            m for m in subsets(k) if family >> m & 1]


def k300_minus_matching(m):
    """K_300 minus a matching of m edges: one end of each matching edge
    covers the complement, and widths reach 298."""
    return Graph(300, [(u, v) for u in range(300) for v in range(u + 1, 300)
                       if not (v == u + 1 and u % 2 == 0 and u < 2 * m)])


def table_planes(rooted):
    """The bit planes of a table's entries, as many as its largest needs."""
    return [sum((v >> j & 1) << m for m, v in enumerate(rooted))
            for j in range(max(rooted).bit_length())]


def test_returned_planes_are_the_table_bit_planes():
    # the table is kept only as these planes, as many as its largest entry
    # needs, and the peel orders read entries through them; entries above
    # the width are never computed and read as width + 1
    rng = random.Random(68)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 14), 0.25).complement()
        order = sorted(minimum_vertex_cover(g.complement()))
        width, _, planes = rooted_pw_table(g, order)
        want = [min(v, width + 1)
                for v in rooted_pw_by_recurrence(g, order)]
        assert planes == table_planes(want)
        read = complement._reader(planes, 1 << len(order))
        assert [read(m) for m in subsets(len(order))] == want
    for m in (8, 10):  # entries up to 298: nine planes
        g, order = k300_minus_matching(m), list(range(0, 2 * m, 2))
        want = rooted_pw_by_recurrence(g, order)
        width, _, planes = rooted_pw_table(g, order)
        assert len(planes) == 9 and max(want) == 298 == width
        assert planes == table_planes(want)


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
    width, (l_mask, _, _), planes = rooted_pw_table(g, order)
    # each reached entry is the spec's, and each unreached subset's spec
    # entry exceeds the width: the stopped table is min(spec, width + 1)
    assert entries(planes, len(order)) == [min(v, width + 1) for v in want]
    assert (width, l_mask) == glue_by_scan(g, order, want)
    w, peeled, stats = spied_glue(monkeypatch, g, cover)
    assert (w, peeled) == (width, l_mask)
    assert 0 < stats["glue_evaluated"] <= 1 << len(order)
    assert stats["reach_sweeps"] >= stats["threshold_levels"]
    assert stats["table_entries"] == sum(v <= width for v in want)
    # no threshold above the width is grown
    lowest = min((len(g.adj[v]) for v in order), default=0)
    assert stats["threshold_levels"] <= width - lowest + 1


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
        # the entries computed: the subsets whose rooted value is within w
        want = rooted_pw_by_recurrence(g, sorted(cover))
        assert stats["table_entries"] == sum(v <= w for v in want)
        assert stats["cover_size"] == len(cover)


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
    width, _, planes = rooted_pw_table(g, order)
    assert width == 298
    assert len(planes) == 9 and max(entries(planes, len(order))) == 298
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


def test_nine_plane_table_matches_the_spec(monkeypatch):
    for m in (8, 10):
        g = k300_minus_matching(m)
        cover = set(range(0, 2 * m, 2))
        assert len(rooted_pw_table(g, sorted(cover))[2]) == 9
        assert_matches_spec(monkeypatch, g, cover)
        assert solved(g, cover=cover) == 298


def test_one_table_per_solve(monkeypatch, tmp_path, capsys):
    # the traced benchmark times pw-cvc's table through this one call
    calls = []
    table = complement.rooted_pw_table

    def spy(*args, **kwargs):
        calls.append(args[1])
        return table(*args, **kwargs)

    monkeypatch.setattr(complement, "rooted_pw_table", spy)
    rng = random.Random(70)
    graphs = [complete_graph(4), cycle_graph(5)] + [
        random_graph(rng, 9, 0.2).complement() for _ in range(5)]
    for g in graphs:
        calls.clear()
        solved(g)
        assert len(calls) == 1
    calls.clear()
    gr = tmp_path / "c5.gr"
    gr.write_text(emit_gr(cycle_graph(5)))
    assert cli.main(["pw", "--algo", "cvc", "--input", str(gr)]) == 0
    assert capsys.readouterr().out == "width: 2\n"
    assert len(calls) == 1


def test_cli_k22_stops_its_table_at_the_width(tmp_path, capsys):
    # above the benchmark's k' = 18: the complement of a sparse instance
    # with its planted cover, solved as a child process
    g = random_graph_with_cover(random.Random(20260814), 22, 28,
                                0.35).complement()
    gr = tmp_path / "k22.gr"
    gr.write_text(emit_gr(g))
    cover = tmp_path / "k22.cover"
    cover.write_text(" ".join(str(v + 1) for v in range(22)) + "\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    result = subprocess.run(
        [sys.executable, "-m", "vcwidth", "pw", "--algo", "cvc", "--cover",
         str(cover), "--emit-witness", "--stats", "--input", str(gr)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=60)
    assert result.returncode == 0 and result.stderr == ""
    lines = result.stdout.splitlines(keepends=True)
    first_td = next(i for i, line in enumerate(lines)
                    if line.startswith(("c ", "s td")))
    stats = dict(line.rstrip("\n").split(": ") for line in lines[:first_td])
    width = int(stats["width"])
    td = tmp_path / "k22.td"
    td.write_text("".join(lines[first_td:]))
    assert cli.main(["check", str(gr), str(td)]) == 0
    assert capsys.readouterr().out == f"width: {width}\n"
    lowest = min(len(g.adj[v]) for v in range(22))
    assert int(stats["cover size"]) == 22
    assert int(stats["threshold levels"]) <= width - lowest + 1
    assert int(stats["table entries"]) < 1 << 22


def test_vertex_count_cap():
    with pytest.raises(ResourceLimitError):
        pathwidth_cvc(Graph(MAX_VERTICES + 1))
