"""Treewidth solver (bipartition joins): frozen answers, oracle equality,
join-enumeration dual routes, white-box table checks."""

import random

import pytest

from vcwidth import treewidth
from vcwidth.cover import minimum_vertex_cover
from vcwidth.decomposition import find_violations
from vcwidth.errors import InternalError
from vcwidth.graph import Graph
from vcwidth.oracle import treewidth_exact
from vcwidth.pathwidth import pathwidth_vc
from vcwidth.states import CoverContext, apex_context
from vcwidth.treewidth import (_join_splits, treewidth_table,
                               treewidth_vc_4k, width_bound)
from vcwidth.treewidth_fast import treewidth_vc_3k

from genutil import (add_universal_vertex, complete_graph, cycle_graph,
                     enumerate_small_graphs, grid_graph, path_graph,
                     random_graph, random_graph_with_cover, random_tree,
                     scan_types, small_graphs_up_to_isomorphism,
                     solve_recording_joins, tw_by_elimination_orders)
from spec import tw_lower_ops, tw_packed_slots


def solved(g, **kw):
    w, dec = treewidth_vc_4k(g, **kw)
    assert not find_violations(g, dec)
    assert dec.width == w and dec.kind == "tree"
    return w


def test_frozen_small_answers():
    assert solved(complete_graph(5)) == 4
    assert solved(path_graph(4)) == 1
    assert solved(cycle_graph(5)) == 2
    assert solved(complete_graph(2)) == 1
    assert solved(grid_graph(3, 3)) == 3
    assert tw_by_elimination_orders(grid_graph(3, 3)) == 3


def test_degenerate_sizes():
    w, dec = treewidth_vc_4k(Graph(0))
    assert w == -1 and dec.bags == []
    assert solved(Graph(1)) == 0
    assert solved(Graph(5)) == 0  # edgeless


def test_random_trees_width_one():
    rng = random.Random(41)
    for _ in range(25):
        assert solved(random_tree(rng, rng.randrange(2, 12))) == 1


def test_rejects_non_cover():
    with pytest.raises(ValueError):
        treewidth_vc_4k(cycle_graph(4), cover={0, 1})


def test_oversized_cover_gives_same_width():
    rng = random.Random(42)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 8), rng.random())
        w = solved(g)
        bigger = set(minimum_vertex_cover(g))
        extra = [v for v in range(g.n) if v not in bigger]
        if extra:
            bigger.add(rng.choice(extra))
        assert solved(g, cover=bigger) == w


def test_matches_oracle_random():
    rng = random.Random(43)
    for trial in range(150):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert solved(g) == treewidth_exact(g), f"trial {trial}: {g.edges}"


def test_never_exceeds_pathwidth():
    rng = random.Random(44)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 9), rng.random())
        tw, _ = treewidth_vc_4k(g)
        pw, _ = pathwidth_vc(g)
        assert tw <= pw


def test_triple_count_bound():
    rng = random.Random(45)
    for _ in range(15):
        g = random_graph(rng, rng.randrange(2, 9), rng.random())
        stats = {}
        treewidth_vc_4k(g, stats=stats)
        k = stats["cover_size"]
        assert stats["valid_triples"] <= 3 ** (k + 1)


def context_of(g):
    gp, apex = add_universal_vertex(g)
    ctx = CoverContext(gp, minimum_vertex_cover(g) | {apex})
    return ctx, ctx.position[apex]


def slots_of(ctx, ap):
    """treewidth_table expanded into its packed upper slots."""
    return tw_packed_slots(ctx, treewidth_table(ctx, ap), ap, width_bound(ctx))


def decode(table, k):
    mask = (1 << k) - 1
    for key, packed in table.items():
        below, bag = key >> k, key & mask
        slot = 0
        while packed:
            byte = packed & 255
            if byte:
                yield below, bag, slot, byte - 1
            packed >>= 8
            slot += 1


def test_table_slots_well_formed():
    rng = random.Random(46)
    for _ in range(15):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        ctx, ap = context_of(g)
        table = slots_of(ctx, ap)
        for below, bag, slot, val in decode(table, ctx.k):
            assert bag >> ap & 1
            assert val >= bag.bit_count() - 1
            if slot == 0 or slot == ctx.k + 1:
                # introduce/join uppers need something still ahead
                assert ctx.full ^ below ^ bag


def test_base_states_equal_degenerate_value():
    rng = random.Random(47)
    for _ in range(15):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        ctx, ap = context_of(g)
        table = slots_of(ctx, ap)
        tight_masks = ctx.type_masks
        for below, bag, slot, val in decode(table, ctx.k):
            if below != 0 or slot == 0 or slot == ctx.k + 1:
                continue
            v = slot - 1
            ahead = ctx.full ^ bag
            xr = sum(cnt for m, cnt in ctx.types
                     if m & ahead and m >> v & 1)
            tight = 1 if bag in tight_masks else 0
            assert val == bag.bit_count() - 1 + max(xr, tight)


def test_join_bipartitions_canonical_unique_symmetric():
    rng = random.Random(48)
    checked = 0
    for _ in range(20):
        g = random_graph(rng, rng.randrange(3, 9), 0.3)
        ctx, ap = context_of(g)
        table = treewidth_table(ctx, ap)
        slots = slots_of(ctx, ap)
        js = 8 * (ctx.k + 1)
        for below, bag in ctx.valid_triples(require_bit=ap):
            if below.bit_count() < 2:
                continue
            ahead = ctx.full ^ below ^ bag
            _, below_only, _, _ = scan_types(ctx.types, below, ahead)
            splits = _join_splits(ctx, table, below, bag)
            low = below & -below
            seen = set()
            for p1, p2, pred, xl in splits:
                checked += 1
                assert p1 & low, "part1 must hold the lowest component"
                assert p1 | p2 == below and not p1 & p2
                pair = frozenset((p1, p2))
                assert pair not in seen, "unordered pair listed twice"
                seen.add(pair)
                pv1 = (slots[(p1 << ctx.k) | bag] >> js) & 255
                pv2 = (slots[(p2 << ctx.k) | bag] >> js) & 255
                assert pred == max(pv1, pv2) - 1
                straddle = sum(cnt for m, cnt in below_only
                               if m & p1 and m & p2)
                assert xl == straddle
    assert checked > 50


def test_join_parts_match_literal_enumeration():
    # dual route: the solver unions components; tw_lower_ops enumerates
    # submasks literally. Solvable parts must coincide exactly.
    rng = random.Random(49)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(3, 9), 0.3)
        ctx, ap = context_of(g)
        table = treewidth_table(ctx, ap)
        slots = slots_of(ctx, ap)
        js = 8 * (ctx.k + 1)

        def child_ok(part, bag):
            return bool((slots.get((part << ctx.k) | bag, 0) >> js) & 255)

        for below, bag in ctx.valid_triples(require_bit=ap):
            if below.bit_count() < 2:
                continue
            ahead = ctx.full ^ below ^ bag
            splits = _join_splits(ctx, table, below, bag)
            literal = {op.arg
                       for op in tw_lower_ops(ctx.cov_adj, below, bag, ahead)
                       if op.kind == "join"}
            solvable = {m for m in literal
                        if child_ok(m, bag) and child_ok(below ^ m, bag)}
            assert {p1 for p1, _, _, _ in splits} == solvable


def test_join_values_dominate_bag_size():
    rng = random.Random(50)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(3, 8), 0.4)
        _, jv = solve_recording_joins(treewidth_vc_4k, g)
        for (below, bag), val in jv.items():
            assert val >= bag.bit_count() - 1


def bound_of(g, cover=None):
    ctx, _ = apex_context(g, cover, None)
    return width_bound(ctx)


def test_width_bound_is_at_least_the_final_value():
    # the final value is the treewidth of g plus the apex: tw(g) + 1
    for n in range(1, 7):
        for g in enumerate_small_graphs(n):
            assert bound_of(g) >= treewidth_exact(g) + 1, g.edges
    rng = random.Random(141)
    for trial in range(200):
        if trial % 2:
            g = random_graph(rng, rng.randrange(2, 11),
                             rng.choice([0.2, 0.4, 0.6, 0.8]))
            cover = None
        else:
            k = rng.randrange(1, 7)
            g = random_graph_with_cover(rng, k, k + rng.randrange(0, 9), 0.4)
            cover = set(range(k))
        assert bound_of(g, cover) >= treewidth_exact(g) + 1, g.edges


def test_width_bound_is_tight_on_trees_cycles_cliques_and_the_grid():
    rng = random.Random(142)
    for _ in range(40):
        assert bound_of(random_tree(rng, rng.randrange(2, 16))) == 2
    assert bound_of(path_graph(9)) == 2
    for n in range(3, 12):
        assert bound_of(cycle_graph(n)) == 3
    for n in range(1, 9):
        assert bound_of(complete_graph(n)) == n
    assert bound_of(grid_graph(3, 3)) == 4


def test_a_bound_below_the_optimum_fails_loudly(monkeypatch):
    # a claimed bound b says tw <= b - 1, and the solvers sweep at b - 1.
    # Claimed at the optimum (one below its final value), the sweep fails
    # and the greedy elimination order cannot make its width good: the
    # solvers raise rather than answer. The true bound is still exact, and
    # so is one above the final value, which the table certifies
    rng = random.Random(143)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 9), rng.choice([0.3, 0.6]))
        want = treewidth_exact(g)
        for solve in (treewidth_vc_4k, treewidth_vc_3k):
            with monkeypatch.context() as m:
                m.setattr(treewidth, "width_bound", lambda ctx: want)
                with pytest.raises(InternalError):
                    solve(g)
            w, dec = solve(g)
            assert w == want and not find_violations(g, dec)
            with monkeypatch.context() as m:
                m.setattr(treewidth, "width_bound", lambda ctx: want + 2)
                stats = {}
                w, dec = solve(g, stats=stats)
            assert w == want and not find_violations(g, dec)
            assert stats["certificate"] == "table"


def certificate_cases():
    """(graph, cover) pairs: one graph per isomorphism class on 1..6
    vertices, then 200 random and planted-cover graphs."""
    cases = [(g, None) for n in range(1, 7)
             for g in small_graphs_up_to_isomorphism(n)]
    rng = random.Random(144)
    for trial in range(200):
        if trial % 2:
            cases.append((random_graph(rng, rng.randrange(2, 12),
                                       rng.choice([0.2, 0.4, 0.6, 0.8])),
                          None))
        else:
            k = rng.randrange(1, 8)
            cases.append((random_graph_with_cover(
                rng, k, k + rng.randrange(0, 10), rng.choice([0.3, 0.5])),
                set(range(k))))
    return cases


def test_both_certificates_match_the_oracle(monkeypatch):
    # decided one below the greedy bound, the width comes from the table
    # when the final state is within it and from the elimination order
    # when not; both witnesses must be valid and of the oracle's width.
    # One above the bound, the table always certifies it
    cases = [(g, cover, treewidth_exact(g)) for g, cover in
             certificate_cases()]
    taken = {"table": 0, "elimination order": 0}
    for g, cover, want in cases:
        for solve in (treewidth_vc_4k, treewidth_vc_3k):
            stats = {}
            w, dec = solve(g, cover, stats)
            assert w == want == dec.width, (solve, g.edges)
            assert not find_violations(g, dec)
            taken[stats["certificate"]] += 1
    assert taken["table"] >= 30 and taken["elimination order"] >= 700
    real = treewidth.width_bound
    monkeypatch.setattr(treewidth, "width_bound", lambda ctx: real(ctx) + 1)
    for g, cover, want in cases:
        for solve in (treewidth_vc_4k, treewidth_vc_3k):
            stats = {}
            w, dec = solve(g, cover, stats)
            assert w == want and not find_violations(g, dec)
            assert stats["certificate"] == "table"


def oracle_equivalence_graphs():
    """The random graphs of test_matches_oracle_random, here and in
    test_treewidth_fast, in their order."""
    rng = random.Random(43)
    graphs = [random_graph(rng, rng.randrange(1, 10),
                           rng.choice([0.2, 0.5, 0.8])) for _ in range(150)]
    rng = random.Random(53)
    return graphs + [random_graph(rng, rng.randrange(1, 8), rng.random())
                     for _ in range(60)]


def test_the_witness_is_built_from_the_certificate_stats_name(monkeypatch):
    # decide_width picks the certificate once and reconstruct_tree builds
    # from it: the state tree exactly when --stats says `table`, else the
    # elimination order's tree. An edgeless graph's empty cover leaves an
    # empty table, which still certifies
    built = []

    def spy(name):
        real = getattr(treewidth, name)

        def recording(*args):
            built.append(name)
            return real(*args)
        return recording

    for name in ("_state_tree", "_elimination_tree"):
        monkeypatch.setattr(treewidth, name, spy(name))
    taken = {"table": 0, "elimination order": 0}
    for g in oracle_equivalence_graphs():
        for solve in (treewidth_vc_4k, treewidth_vc_3k):
            built.clear()
            stats = {}
            w, dec = solve(g, stats=stats)
            assert w == dec.width and not find_violations(g, dec)
            certificate = stats["certificate"]
            assert built == ["_state_tree" if certificate == "table"
                             else "_elimination_tree"], (solve, g.edges)
            if not g.edges:
                assert certificate == "table", (solve, g.n)
            taken[certificate] += 1
    assert min(taken.values()) >= 20, taken
