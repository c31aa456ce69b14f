"""Treewidth by subset-convolution joins: one sweep, value-for-value
identical to the bipartition-join solver's table."""

import random

from vcwidth.cover import minimum_vertex_cover
from vcwidth.decomposition import find_violations
from vcwidth.graph import Graph
from vcwidth.oracle import treewidth_exact
from vcwidth.states import CoverContext
from vcwidth.treewidth import treewidth_table, treewidth_vc_4k, width_bound
from vcwidth import pathwidth, states, treewidth, treewidth_fast
from vcwidth.pathwidth import partial_width_table, pathwidth_vc
from vcwidth.treewidth_fast import _layer_sweep, _split_minima, treewidth_vc_3k

from genutil import (add_universal_vertex, complete_graph, cycle_graph,
                     enumerate_small_graphs, grid_graph, join_minima_by_splits,
                     path_graph, random_graph, random_graph_with_cover,
                     random_tree, solve_recording_joins)
from spec import final_value, tw_packed_slots, tw_table_by_states


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
        (w3, _), jv3 = solve_recording_joins(treewidth_vc_3k, g)
        (w4, _), jv4 = solve_recording_joins(treewidth_vc_4k, g)
        assert w3 == w4
        assert jv3 == jv4, f"join minima differ on edges {g.edges}"


def test_identical_to_bipartition_solver_random():
    rng = random.Random(52)
    for trial in range(100):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        (w3, _), jv3 = solve_recording_joins(treewidth_vc_3k, g)
        (w4, _), jv4 = solve_recording_joins(treewidth_vc_4k, g)
        assert w3 == w4, f"trial {trial}: {g.edges}"
        assert jv3 == jv4, f"trial {trial}: {g.edges}"


def test_matches_oracle_random():
    rng = random.Random(53)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        assert solved(g) == treewidth_exact(g)


def apex_ctx(g, cover):
    gp, apex = add_universal_vertex(g)
    ctx = CoverContext(gp, cover | {apex})
    return ctx, ctx.position[apex]


def instance_mix(rng, trials):
    """(ctx, apex position) of random graphs with a cover: kind 0 searches
    a minimum cover, kind 1 plants one, kind 2 plants an independent cover
    whose vertices are each a component of the cover graph."""
    for trial in range(trials):
        kind = trial % 3
        if kind == 0:
            g = random_graph(rng, rng.randrange(2, 9), rng.choice([0.2, 0.4]))
            cover = minimum_vertex_cover(g)
        else:
            k = rng.randrange(2, 7)
            n = k + rng.randrange(1, 8)
            if kind == 1:
                g = random_graph_with_cover(rng, k, n, 0.4)
            else:
                g = Graph(n, [(u, v) for u in range(k) for v in range(k, n)
                              if rng.random() < 0.5])
            cover = set(range(k))
        yield apex_ctx(g, cover)


def test_sweep_table_equals_treewidth_table():
    rng = random.Random(54)
    for ctx, ap in instance_mix(rng, 45):
        assert _layer_sweep(ctx, ap) == treewidth_table(ctx, ap)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 9), rng.random())
        ctx, ap = apex_ctx(g, minimum_vertex_cover(g))
        assert _layer_sweep(ctx, ap) == treewidth_table(ctx, ap), g.edges


def test_bounded_tables_hold_every_state_within_the_bound(monkeypatch):
    # each solver's table under the width bound against its own table with
    # no bound, both expanded into packed slots: every key kept holds the
    # same packed value, and every key with a slot within the bound is kept
    rng = random.Random(60)
    cases = list(instance_mix(rng, 120))
    bounded = []
    for ctx, ap in cases:
        limit = width_bound(ctx)
        bounded.append((limit, *(tw_packed_slots(ctx, sweep(ctx, ap), ap,
                                                 limit)
                                 for sweep in (treewidth_table, _layer_sweep))))
    monkeypatch.setattr(treewidth, "width_bound", lambda ctx: 1 << 30)
    dropped = 0
    for (ctx, ap), (limit, *tables) in zip(cases, bounded):
        assert limit >= final_value(ctx, tables[0], ap)
        for table, sweep in zip(tables, (treewidth_table, _layer_sweep)):
            full = tw_packed_slots(ctx, sweep(ctx, ap), ap, 1 << 30)
            for key, packed in table.items():
                assert full[key] == packed, sweep
            for key, packed in full.items():
                if min(val for _, val in iter_slots(packed)) <= limit:
                    assert key in table, sweep
                else:
                    dropped += key not in table
    assert dropped > 100


def fed_sweep(ctx, ap, jmin):
    """The treewidth sweep, with treewidth's hooks, whose join candidates
    are read from `jmin`."""
    k = ctx.k

    def joins(table, below, bag, cross):
        split = jmin.get((below << k) | bag)
        return [] if split is None else [split]

    return states.sweep(ctx, ap, None, joins=joins,
                        **treewidth._sweep_hooks(ctx))


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
        ctx, ap = apex_ctx(g, minimum_vertex_cover(g))
        limit = width_bound(ctx)
        no_joins = fed_sweep(ctx, ap, {})
        table = _layer_sweep(ctx, ap)
        slots = tw_packed_slots(ctx, table, ap, limit)
        # the joins only add states and lower values
        for key, packed in tw_packed_slots(ctx, no_joins, ap, limit).items():
            later = slots.get(key, 0)
            for slot, val in iter_slots(packed):
                lv = (later >> (8 * slot)) & 255
                assert lv, "a reachable state vanished once joins were added"
                assert lv - 1 <= val, "the joins made a state worse"
        # the one sweep is already the fixed point: a further sweep fed the
        # join minima of its finished table changes nothing
        assert fed_sweep(ctx, ap, join_minima_by_splits(ctx, ap, slots)) \
            == table, g.edges
        stats = {}
        treewidth_vc_3k(g, stats=stats)
        assert "layers" not in stats


def test_stable_table_matches_final_answer():
    rng = random.Random(55)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 8), rng.random())
        ctx, ap = apex_ctx(g, minimum_vertex_cover(g))
        table = tw_packed_slots(ctx, _layer_sweep(ctx, ap), ap, width_bound(ctx))
        final_key = ((ctx.full ^ (1 << ap)) << ctx.k) | (1 << ap)
        packed = table[final_key]
        val = ((packed >> (8 * (ap + 1))) & 255) - 1
        w, _ = treewidth_vc_3k(g)
        assert val - 1 == w


def test_one_sweep_per_solve(monkeypatch):
    # every cover solver runs the one sweep of states.py: once per tw-vc-3k
    # or tw-vc-4k solve, and stats["sweeps"] times per pw-vc solve, which
    # sweeps twice on ladder k = 16
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return states.sweep(*args, **kwargs)

    for module in (pathwidth, treewidth, treewidth_fast):
        monkeypatch.setattr(module, "sweep", counting)
    rng = random.Random(55)
    cases = [(random_graph(rng, rng.randrange(2, 9), rng.choice([0.2, 0.4])),
              None) for _ in range(10)]
    cases.append((random_graph_with_cover(random.Random(20260814), 16, 38,
                                          0.35), set(range(16))))
    for g, cover in cases:
        for solve in (treewidth_vc_3k, treewidth_vc_4k):
            calls.clear()
            solve(g, cover)
            assert len(calls) == 1
        calls.clear()
        stats = {}
        pathwidth_vc(g, cover, stats)
        assert len(calls) == stats["sweeps"]
    assert len(calls) == 2


def test_join_values_dominate_bag_size():
    rng = random.Random(56)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(3, 8), 0.4)
        _, jv = solve_recording_joins(treewidth_vc_3k, g)
        for (below, bag), v in jv.items():
            assert v >= bag.bit_count() - 1


def test_join_cell_accounting():
    rng = random.Random(57)
    for _ in range(8):
        g = random_graph(rng, 8, 0.3)
        stats = {}
        treewidth_vc_3k(g, stats=stats)
        k = stats["cover_size"] + 1
        assert 0 <= stats["join_cells"] <= 3 ** (k - 1)


def outside_components(ctx, bag):
    """How many connected components the cover graph has outside `bag`,
    counted by merging the ends of every cover edge."""
    outside = [i for i in range(ctx.k) if not bag >> i & 1]
    root = {i: i for i in outside}

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i in outside:
        for j in outside:
            if ctx.cov_adj[i] >> j & 1:
                root[find(i)] = find(j)
    return len({find(i) for i in outside})


def join_universe(ctx, ap):
    """The apex bags whose outside has two or more components."""
    return [bag for bag in range(1 << ctx.k)
            if bag >> ap & 1 and outside_components(ctx, bag) >= 2]


def test_bag_joins_built_once_where_the_sweep_asks(monkeypatch):
    # the join data of a bag is built by the sweep's join provider the
    # first time it asks about the bag with two or more cover vertices
    # below, and never again in that solve: the built bags are exactly the
    # asked bags with two or more outside components. The bounded solve at
    # ladder k = 14 builds only part of the join universe
    built, asked = [], set()
    real_bag_joins = treewidth_fast._BagJoins
    real_sweep = treewidth_fast.sweep

    def building(ctx, bag, rest, comps):
        built.append(bag)
        return real_bag_joins(ctx, bag, rest, comps)

    def asking(ctx, apex_pos, stats, *, joins, **hooks):
        def recorded(table, below, bag, cross):
            if below & (below - 1):
                asked.add(bag)
            return joins(table, below, bag, cross)
        return real_sweep(ctx, apex_pos, stats, joins=recorded, **hooks)

    monkeypatch.setattr(treewidth_fast, "_BagJoins", building)
    monkeypatch.setattr(treewidth_fast, "sweep", asking)
    rng = random.Random(63)
    cases = [(g, minimum_vertex_cover(g)) for g in (
        random_graph(rng, rng.randrange(2, 10), rng.choice([0.2, 0.4]))
        for _ in range(30))]
    cases.append((random_graph_with_cover(random.Random(20260814), 14, 34,
                                          0.35), set(range(14))))
    for g, cover in cases:
        built.clear()
        asked.clear()
        treewidth_vc_3k(g, cover)
        assert len(built) == len(set(built)), g.edges
        ctx, ap = apex_ctx(g, cover)
        assert set(built) == {bag for bag in asked
                              if outside_components(ctx, bag) >= 2}, g.edges
    assert 0 < len(built) < len(join_universe(ctx, ap))


def test_unbounded_join_cells_count_the_whole_universe(monkeypatch):
    # with no bound the sweep reaches every apex bag, so join_cells is the
    # sum of 2^|C minus X| over the apex bags X with two or more outside
    # components; at the width bound it counts no more than that
    rng = random.Random(64)
    cases = list(instance_mix(rng, 45))
    bounded = []
    for ctx, ap in cases:
        stats = {}
        _layer_sweep(ctx, ap, stats)
        bounded.append(stats["join_cells"])
    monkeypatch.setattr(treewidth, "width_bound", lambda ctx: 1 << 30)
    fewer = some = 0
    for (ctx, ap), cells in zip(cases, bounded):
        stats = {}
        _layer_sweep(ctx, ap, stats)
        want = sum(1 << (ctx.full ^ bag).bit_count()
                   for bag in join_universe(ctx, ap))
        assert stats["join_cells"] == want
        assert cells <= want
        fewer += cells < want
        some += want > 0
    assert fewer > 0 and some > 30


def test_join_minima_match_split_enumeration(monkeypatch):
    # the minima are computed only for the (bag, rank) pairs that a triple
    # within the width bound reaches; those must hold every target the
    # bound keeps
    seen = []
    real = treewidth_fast._join_minima

    def recording(ctx, bj, targets, table):
        got = real(ctx, bj, targets, table)
        # keys[P] packs (union of P) << k | bag, so keys[0] is the bag
        seen.append((bj.keys[0], bj.keys[targets[0]] >> ctx.k, got))
        return got

    monkeypatch.setattr(treewidth_fast, "_join_minima", recording)
    rng = random.Random(58)
    for trial, (ctx, ap) in enumerate(instance_mix(rng, 45)):
        k = ctx.k
        want = join_minima_by_splits(ctx, ap, tw_packed_slots(
            ctx, treewidth_table(ctx, ap), ap, width_bound(ctx)))
        seen.clear()
        _layer_sweep(ctx, ap)
        done = set()
        for bag, below, got in seen:
            rank = below.bit_count()
            assert (bag, rank) not in done
            done.add((bag, rank))
            assert got == {key: v for key, v in want.items()
                           if key & ctx.full == bag
                           and (key >> k).bit_count() == rank}, \
                f"trial {trial}: bag {bag:b}, rank {rank}"
        limit = width_bound(ctx)
        assert {(key & ctx.full, (key >> k).bit_count())
                for key, v in want.items() if v <= limit} <= done, \
            f"trial {trial}"


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


def test_split_minima_one_convolution_per_group(monkeypatch):
    # z takes more distinct values than a 64-bit rank lane per partner
    # would fit into one convolution: 11 ranks at c = 4, 3 at c = 12
    calls = []
    real = treewidth_fast.convolve

    def recording(f, g):
        calls.append((f.values, g.values))
        return real(f, g)

    monkeypatch.setattr(treewidth_fast, "convolve", recording)
    rng = random.Random(59)
    for c, values, n_targets, lane_ranks in ((4, 40, None, 11),
                                             (12, 6, 150, 3)):
        size = 1 << c
        z = [rng.randrange(values) for _ in range(size)]
        assert len(set(z)) > lane_ranks
        a = [None] + [rng.choice([0, 1, 2, None]) for _ in range(size - 1)]
        base = 2 * values
        targets = [p for p in range(size) if p & (p - 1)]
        if n_targets is not None:
            targets = rng.sample(targets, n_targets)
        calls.clear()
        got = _split_minima(c, z, a, base, targets)
        want = split_minima_by_enumeration(c, z, a, base, targets)
        assert {p: got.get(p) for p in targets} == want
        # each call's indicator is one (threshold t, z value v1) group:
        # the children with a == t and z == v1, convolved once
        groups = []
        for f, _ in calls:
            group = {(a[p], z[p]) for p in range(size) if f[p]}
            assert len(group) == 1
            groups += group
        assert len(groups) == len(set(groups))
        # and one call carries every partner rank of its threshold
        ranks = max(max(g).bit_length() // (c + 1) + 1 for _, g in calls)
        assert ranks > lane_ranks


def test_expanded_slots_equal_the_literal_state_model(monkeypatch):
    # one value per triple expands into every upper slot of the literal
    # state DP, degenerate states included: within the width bound the
    # kept keys agree, and with no bound the keys and slots are the same
    rng = random.Random(61)
    degenerate = 0
    for trial, (ctx, ap) in enumerate(instance_mix(rng, 45)):
        literal = tw_table_by_states(ctx, ap)
        limit = width_bound(ctx)
        for sweep in (treewidth_table, _layer_sweep):
            bounded = tw_packed_slots(ctx, sweep(ctx, ap), ap, limit)
            assert bounded == {key: literal[key] for key in bounded}, trial
        with monkeypatch.context() as m:
            m.setattr(treewidth, "width_bound", lambda ctx: 1 << 30)
            for sweep in (treewidth_table, _layer_sweep):
                assert tw_packed_slots(ctx, sweep(ctx, ap), ap, 1 << 30) \
                    == literal, trial
        degenerate += sum(not key >> ctx.k for key in literal)
    assert degenerate > 200


def test_the_rank_stop_drops_no_stored_triple(monkeypatch):
    # each sweep stops at the first rank that can no longer hold a stored
    # triple; at the same limit, its table is the one of the same sweep run
    # through every rank. Limits as the solvers use them (one below the
    # width bound for treewidth, the bound for pw) and one lower
    rng = random.Random(62)
    sweeps = [
        (lambda ctx, ap, st, lim: treewidth_table(ctx, ap, st, lim), -1),
        (lambda ctx, ap, st, lim: _layer_sweep(ctx, ap, st, lim), -1),
        (lambda ctx, ap, st, lim: partial_width_table(ctx, st, apex_pos=ap,
                                                      limit=lim), 0)]
    runs = []
    for ctx, ap in instance_mix(rng, 120):
        bound = width_bound(ctx)
        for sweep, shift in sweeps:
            for limit in (bound + shift - 1, bound + shift):
                stats = {}
                runs.append((ctx, ap, sweep, limit,
                             sweep(ctx, ap, stats, limit),
                             stats["valid_triples"]))
    monkeypatch.setattr(states, "no_rank_left", lambda *args: False)
    stopped = 0
    for ctx, ap, sweep, limit, table, triples in runs:
        stats = {}
        assert sweep(ctx, ap, stats, limit) == table
        stopped += triples < stats["valid_triples"]
    assert stopped > 200
