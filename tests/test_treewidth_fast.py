"""Layered treewidth solver: must be value-for-value identical to the
bipartition-join solver, with monotone, stabilizing layer sweeps."""

import random

from vcwidth.cover import minimum_vertex_cover
from vcwidth.decomposition import find_violations
from vcwidth.graph import Graph
from vcwidth.oracle import treewidth_exact
from vcwidth.states import CoverContext
from vcwidth.treewidth import treewidth_vc_4k
from vcwidth import treewidth_fast
from vcwidth.treewidth_fast import (_bag_joins, _chunk_size, _join_minima,
                                    _layer_sweep, _split_minima,
                                    treewidth_vc_3k)

from genutil import (complete_graph, cycle_graph, enumerate_small_graphs,
                     grid_graph, join_minima_by_splits, path_graph,
                     random_graph, random_graph_with_cover, random_tree)


def solved(g, **kw):
    w, dec = treewidth_vc_3k(g, **kw)
    assert not find_violations(g, dec)
    assert dec.width == w and dec.kind == "tree"
    return w


def test_frozen_small_answers():
    assert solved(complete_graph(5)) == 4
    assert solved(cycle_graph(5)) == 2
    assert solved(path_graph(4)) == 1
    assert solved(grid_graph(3, 3)) == 3


def test_degenerate_sizes():
    w, dec = treewidth_vc_3k(Graph(0))
    assert w == -1 and dec.bags == []
    assert solved(Graph(1)) == 0
    assert solved(Graph(5)) == 0


def test_random_trees():
    rng = random.Random(51)
    for _ in range(30):
        t = random_tree(rng, rng.randrange(2, 12))
        assert solved(t) == 1


def test_identical_to_bipartition_solver_exhaustive_n4():
    for g in enumerate_small_graphs(4):
        jv3, jv4 = {}, {}
        w3, _ = treewidth_vc_3k(g, join_values=jv3)
        w4, _ = treewidth_vc_4k(g, join_values=jv4)
        assert w3 == w4
        assert jv3 == jv4, f"join minima differ on edges {g.edges}"


def test_identical_to_bipartition_solver_random():
    rng = random.Random(52)
    for trial in range(100):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        jv3, jv4 = {}, {}
        w3, _ = treewidth_vc_3k(g, join_values=jv3)
        w4, _ = treewidth_vc_4k(g, join_values=jv4)
        assert w3 == w4, f"trial {trial}: {g.edges}"
        assert jv3 == jv4, f"trial {trial}: {g.edges}"


def test_matches_oracle_random():
    rng = random.Random(53)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        assert solved(g) == treewidth_exact(g)


def layer_tables(g):
    gp, apex = g.add_universal_vertex()
    ctx = CoverContext(gp, minimum_vertex_cover(g) | {apex})
    ap = ctx.position[apex]
    tables = [_layer_sweep(ctx, ap, {})]
    while True:
        jmin = _join_minima(ctx, ap, tables[-1], None)
        tables.append(_layer_sweep(ctx, ap, jmin))
        if tables[-1] == tables[-2]:
            break
        assert len(tables) <= ctx.k + 2, "layering failed to stabilize"
    return ctx, ap, tables


def iter_slots(packed):
    slot = 0
    while packed:
        if packed & 255:
            yield slot, (packed & 255) - 1
        packed >>= 8
        slot += 1


def test_layers_monotone_and_stable():
    rng = random.Random(54)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 9), rng.choice([0.2, 0.4]))
        ctx, ap, tables = layer_tables(g)
        for early, late in zip(tables, tables[1:]):
            for key, packed in early.items():
                later = late.get(key, 0)
                for slot, val in iter_slots(packed):
                    lv = (later >> (8 * slot)) & 255
                    assert lv, "a reachable state vanished in a later layer"
                    assert lv - 1 <= val, "a layer made a state worse"
        # one extra sweep after the fixed point changes nothing
        jmin = _join_minima(ctx, ap, tables[-1], None)
        assert _layer_sweep(ctx, ap, jmin) == tables[-1]
        stats = {}
        treewidth_vc_3k(g, stats=stats)
        assert stats["layers"] == len(tables)
        assert stats["layers"] <= ctx.k + 2


def test_stable_table_matches_final_answer():
    rng = random.Random(55)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 8), rng.random())
        ctx, ap, tables = layer_tables(g)
        final_key = ((ctx.full ^ (1 << ap)) << ctx.k) | (1 << ap)
        packed = tables[-1][final_key]
        val = ((packed >> (8 * (ap + 1))) & 255) - 1
        w, _ = treewidth_vc_3k(g)
        assert val - 1 == w


def test_join_values_dominate_bag_size():
    rng = random.Random(56)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(3, 8), 0.4)
        jv = {}
        treewidth_vc_3k(g, join_values=jv)
        for (below, bag, slot), v in jv.items():
            assert v >= bag.bit_count() - 1


def test_join_cell_accounting():
    rng = random.Random(57)
    for _ in range(8):
        g = random_graph(rng, 8, 0.3)
        stats = {}
        treewidth_vc_3k(g, stats=stats)
        k = stats["cover_size"] + 1
        assert 0 <= stats["join_cells"] <= (stats["layers"] - 1) * 3 ** (k - 1)


def test_join_minima_match_split_enumeration():
    rng = random.Random(58)
    for trial in range(45):
        kind = trial % 3
        if kind == 0:
            g = random_graph(rng, rng.randrange(2, 9), rng.choice([0.2, 0.4]))
            cover = minimum_vertex_cover(g)
        else:
            k = rng.randrange(2, 7)
            n = k + rng.randrange(1, 8)
            if kind == 1:
                g = random_graph_with_cover(rng, k, n, 0.4)
            else:  # independent cover: every cover vertex is a component
                g = Graph(n, [(u, v) for u in range(k) for v in range(k, n)
                              if rng.random() < 0.5])
            cover = set(range(k))
        gp, apex = g.add_universal_vertex()
        ctx = CoverContext(gp, cover | {apex})
        ap = ctx.position[apex]
        prev = _layer_sweep(ctx, ap, {})
        memo = _bag_joins(ctx, ap)
        for _ in range(ctx.k + 1):
            want = join_minima_by_splits(ctx, ap, prev)
            assert _join_minima(ctx, ap, prev, None, memo) == want, \
                f"trial {trial}: {g.edges}"
            assert _join_minima(ctx, ap, prev, None) == want
            table = _layer_sweep(ctx, ap, want)
            if table == prev:
                break
            prev = table


def split_minima_by_enumeration(c, z, a, base, targets):
    full = (1 << c) - 1
    out = {}
    for p in targets:
        best = None
        sub = (p - 1) & p
        while sub:
            if a[sub] is not None and a[p ^ sub] is not None:
                val = max(a[sub], a[p ^ sub],
                          base - z[full ^ p] - z[sub] - z[p ^ sub])
                best = val if best is None else min(best, val)
            sub = (sub - 1) & p
        out[p] = best
    return out


def test_split_minima_over_several_rank_chunks(monkeypatch):
    calls = {}
    real = treewidth_fast.convolve

    def counting(f, g):
        calls[id(f)] = calls.get(id(f), 0) + 1
        return real(f, g)

    monkeypatch.setattr(treewidth_fast, "convolve", counting)
    rng = random.Random(59)
    for c, values, n_targets in ((4, 40, None), (12, 6, 150)):
        size = 1 << c
        z = [rng.randrange(values) for _ in range(size)]
        assert len(set(z)) > _chunk_size(c)
        a = [None] + [rng.choice([0, 1, 2, None]) for _ in range(size - 1)]
        base = 2 * values
        calls.clear()
        got = _split_minima(c, z, a, base)
        assert max(calls.values()) > 1, "no indicator met two rank chunks"
        targets = [p for p in range(size) if p & (p - 1)]
        if n_targets is not None:
            targets = rng.sample(targets, n_targets)
        want = split_minima_by_enumeration(c, z, a, base, targets)
        assert {p: got[p] for p in targets} == want


def test_chunk_size_is_largest_under_the_overflow_guard():
    assert _chunk_size(4) == 11 and _chunk_size(12) == 3
    for c in range(1, 26):
        r = _chunk_size(c)
        assert (c + 1) << (2 * c + (c + 1) * (r - 1)) < 1 << 63
        assert (c + 1) << (2 * c + (c + 1) * r) >= 1 << 63
