"""Pathwidth solver: frozen answers, oracle equality, white-box DP checks."""

import random

import pytest

from vcwidth import pathwidth
from vcwidth.cover import minimum_vertex_cover
from vcwidth.decomposition import find_violations
from vcwidth.graph import Graph
from vcwidth.oracle import pathwidth_exact
from vcwidth.pathwidth import (_glue, _optimal_chain, _rank0_entry, _slot,
                               partial_width_table, pathwidth_vc)
from vcwidth.states import CoverContext, iter_bits, touching
from vcwidth.treewidth import treewidth_table, treewidth_vc_4k, width_bound

from genutil import (add_universal_vertex, complete_graph, cycle_graph,
                     grid_graph, path_graph, pw_by_full_sweep, random_graph,
                     random_graph_with_cover, random_tree,
                     small_graphs_up_to_isomorphism)
from spec import (State, _lowers, boundary_sets_pw, final_value, forget,
                  introduce, local_width_pw, pw_apex_sweep_table,
                  pw_packed_glue, pw_packed_slots, tw_packed_slots)


def solved(g, **kw):
    w, dec = pathwidth_vc(g, **kw)
    assert not find_violations(g, dec)
    assert dec.width == w and dec.kind == "path"
    return w


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


def test_frozen_small_answers():
    assert solved(path_graph(4)) == 1
    assert solved(complete_graph(4)) == 3
    assert solved(cycle_graph(5)) == 2
    assert solved(complete_graph(2)) == 1
    assert solved(path_graph(3), cover={1}) == 1
    assert solved(grid_graph(2, 3)) == 2


def test_degenerate_sizes():
    w, dec = pathwidth_vc(Graph(0))
    assert w == -1 and dec.bags == []
    assert solved(Graph(1)) == 0
    assert solved(Graph(4)) == 0  # edgeless


def test_cover_equals_all_vertices():
    # S empty is allowed: complete graphs force cover = V minus one vertex,
    # and injecting all of V as the cover must give the same widths
    for n in range(2, 6):
        g = complete_graph(n)
        assert solved(g) == n - 1
        assert solved(g, cover=set(range(n))) == n - 1


def test_rejects_non_cover():
    with pytest.raises(ValueError):
        pathwidth_vc(path_graph(3), cover={0})


def test_oversized_cover_gives_same_width():
    rng = random.Random(31)
    for _ in range(25):
        g = random_graph(rng, rng.randrange(2, 8), rng.random())
        w = solved(g)
        bigger = set(minimum_vertex_cover(g))
        extra = [v for v in range(g.n) if v not in bigger]
        if extra:
            bigger.add(rng.choice(extra))
        assert solved(g, cover=bigger) == w


def test_matches_oracle_random():
    rng = random.Random(32)
    for trial in range(150):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        assert solved(g) == pathwidth_exact(g), f"trial {trial}: {g.edges}"


def test_trees_match_oracle():
    rng = random.Random(33)
    for _ in range(30):
        t = random_tree(rng, rng.randrange(2, 11))
        assert solved(t) == pathwidth_exact(t)


def test_state_count_bound():
    rng = random.Random(34)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 9), rng.random())
        stats = {}
        pathwidth_vc(g, stats=stats)
        k = stats["cover_size"]
        assert stats["valid_triples"] <= 3 ** (k + 1)
        assert stats["states"] <= 3 ** (k + 1) * (2 * (k + 1)) ** 2


def context_of(g):
    gp, apex = add_universal_vertex(g)
    ctx = CoverContext(gp, minimum_vertex_cover(g) | {apex})
    return gp, apex, ctx


def test_table_values_dominate_local_width():
    rng = random.Random(35)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        gp, apex, ctx = context_of(g)
        ap = ctx.position[apex]
        table = with_rank0(ctx, ap, partial_width_table(ctx, apex_pos=ap),
                           ctx.k)
        for below, bag, slot, val in decode(pw_packed_slots(ctx, table),
                                            ctx.k):
            assert val >= bag.bit_count() - 1
            if slot > 0:
                v = slot - 1
                xr = sum(cnt for m, cnt in ctx.types
                         if m & ~(below | bag) & ctx.full and m >> v & 1
                         and not m & below)
                assert val >= bag.bit_count() - 1 + xr


def test_base_states_equal_their_local_width():
    # the chain-bottom states (nothing below, singleton bag) have no
    # predecessor: their value, computed at rank 0, is exactly the local
    # width
    rng = random.Random(36)
    checked = 0
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 8), rng.random())
        gp, apex, ctx = context_of(g)
        ap = ctx.position[apex]
        table = with_rank0(ctx, ap, partial_width_table(ctx, apex_pos=ap),
                           ctx.k)
        for below, bag, slot, val in decode(pw_packed_slots(ctx, table),
                                            ctx.k):
            if below != 0 or bag.bit_count() != 1:
                continue
            checked += 1
            u = bag.bit_length() - 1
            ahead = ctx.full ^ bag
            upper = introduce(0) if slot == 0 else forget(slot - 1)
            st = State(introduce(u), below, bag, ahead, upper)
            crossing, xl, xr, _, eps = boundary_sets_pw(gp, ctx.order, st)
            assert val == local_width_pw(
                1, len(crossing), len(xl), len(xr), eps)
    assert checked >= 20


def with_rank0(ctx, ap, table, limit=255):
    """A half table with its rank-0 entries put back in front, each computed
    by _rank0_entry as a sweep at `limit` keeps it, in the order the spec
    sweep stores them: the table itself holds none."""
    assert all(key >> ctx.k for key in table)
    out = {}
    for bag in range(1 << ctx.k):
        entry = _rank0_entry(ctx, bag, 1 << ap, limit)
        if entry is not None:
            out[bag] = entry
    out.update(table)
    return out


def glued_chain(ctx, table, ap):
    value, meet = _glue(ctx, table, ap)
    return value, _optimal_chain(ctx, table, ap, meet)


def test_witness_bag_count_bound():
    rng = random.Random(37)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(2, 9), rng.random())
        w, dec = pathwidth_vc(g)
        gp, apex, ctx = context_of(g)
        ap = ctx.position[apex]
        chain = glued_chain(ctx, partial_width_table(ctx, apex_pos=ap), ap)[1]
        s = len(ctx.rest)
        assert len(dec.bags) <= len(chain) * (s + 2) + s


def test_apex_bag_sweep_matches_full_sweep():
    # the sweep covers only bags holding the apex; sweeping every valid
    # triple by literal type scans must reach the glued value
    rng = random.Random(38)
    for trial in range(520):
        k = trial % 8
        g = random_graph_with_cover(rng, k, k + rng.randrange(0, 9),
                                    rng.choice([0.2, 0.5, 0.8]))
        gp, apex = add_universal_vertex(g)
        ctx = CoverContext(gp, set(range(k)) | {apex})
        ap = ctx.position[apex]
        value = _glue(ctx, partial_width_table(ctx, apex_pos=ap), ap)[0]
        assert value == pw_by_full_sweep(ctx, ap), f"{g.edges}"


def half_and_spec_tables(rng):
    """(graph, context, apex position, half table, spec table) of random
    graphs with a minimum cover and of planted-cover graphs, K_{2,300}
    last. Both tables are swept at limit 255, the largest V the half
    table's low byte holds; below that every triple of a small graph is
    kept."""
    graphs = [(g, minimum_vertex_cover(g)) for g in
              (random_graph(rng, rng.randrange(1, 10), rng.random())
               for _ in range(150))]
    for k in range(8):
        for _ in range(12):
            graphs.append((random_graph_with_cover(
                rng, k, k + rng.randrange(0, 9), rng.choice([0.2, 0.5, 0.8])),
                set(range(k))))
    graphs.append((Graph(302, [(a, x) for a in (0, 1)
                               for x in range(2, 302)]), {0, 1}))
    for g, cover in graphs:
        gp, apex = add_universal_vertex(g)
        ctx = CoverContext(gp, set(cover) | {apex})
        ap = ctx.position[apex]
        yield (g, ctx, ap, partial_width_table(ctx, apex_pos=ap, limit=255),
               pw_apex_sweep_table(ctx, apex_pos=ap, limit=255))


def test_half_table_equals_spec_table():
    # the half sweep plus the rank-0 entries computed where they are read
    # hold exactly the spec's entries with |below| <= |ahead|, every upper
    # slot value for value once expanded: every predecessor of such a
    # triple is one
    entries = 0
    for g, ctx, ap, half, spec in half_and_spec_tables(random.Random(39)):
        want = {key: packed for key, packed in spec.items()
                if (key >> ctx.k).bit_count()
                <= (ctx.full & ~((key >> ctx.k) | key)).bit_count()}
        whole = with_rank0(ctx, ap, half)
        assert pw_packed_slots(ctx, whole) == want, f"{g.edges}"
        entries += len(whole)
    assert entries > 5000


def test_derived_slots_equal_the_packed_reference():
    # the half table stores V and flags above rank 0; every upper slot read
    # through _slot, rank 0 computed, equals the packed spec's half sweep at
    # the same limit, which keeps a byte per slot, saturated at 254. The
    # keys (the table's after the rank-0 ones the limit keeps), their order
    # and the glue agree too, at limits around the width bound and at k
    rng = random.Random(43)
    graphs = [(g, minimum_vertex_cover(g)) for g in
              (random_graph(rng, rng.randrange(1, 10), rng.random())
               for _ in range(60))]
    for trial in range(60):
        k = rng.randrange(1, 8)
        n = k + rng.randrange(0, 9)
        if trial % 2:
            g = random_graph_with_cover(rng, k, n, rng.choice([0.2, 0.5]))
        else:  # an independent cover
            g = Graph(n, [(u, v) for u in range(k) for v in range(k, n)
                          if rng.random() < 0.5])
        graphs.append((g, set(range(k))))
    for m in (1, 2, 3, 5, 300):
        graphs.append((Graph(m + 2, [(a, x) for a in (0, 1)
                                     for x in range(2, m + 2)]), {0, 1}))
    slots = intro_flags = forget_flags = 0
    for g, cover in graphs:
        gp, apex = add_universal_vertex(g)
        ctx = CoverContext(gp, set(cover) | {apex})
        ap = ctx.position[apex]
        bound = width_bound(ctx)
        for limit in (bound - 1, bound, bound + 1, ctx.k):
            half = partial_width_table(ctx, apex_pos=ap, limit=limit)
            spec = pw_apex_sweep_table(ctx, apex_pos=ap, half=True,
                                       limit=limit)
            whole = with_rank0(ctx, ap, half, limit)
            assert list(whole) == list(spec), (g.edges, limit)
            for key, packed in spec.items():
                below, bag = key >> ctx.k, key & ctx.full
                read = {slot: val for _, _, slot, val
                        in decode({key: packed}, ctx.k)}
                assert set(read) == valid_upper_slots(ctx, below, bag, None)
                for slot, val in read.items():
                    assert min(_slot(ctx, half, 1 << ap, below, bag, slot),
                               254) == val, (g.edges, limit)
                slots += len(read)
            assert _glue(ctx, half, ap, limit) == \
                pw_packed_glue(ctx, spec, ap, limit), (g.edges, limit)
            intro_flags += sum(entry >> 8 & 1 for entry in whole.values())
            forget_flags += sum(entry >> 9 > 0 for entry in whole.values())
    assert slots > 10000 and intro_flags and forget_flags


def test_rank0_entries_equal_the_spec_sweep():
    # for every bag X, _rank0_entry gives the spec sweep's (∅, X) entry at
    # the same limit: None where the spec keeps none (X without the apex,
    # or |X| - 1 above the limit), else V = |X| - 1 and flag bits on valid
    # slots only, equal to the spec's slot for slot. The sweep neither
    # enumerates nor stores a rank-0 triple. Isolated vertices (type {apex})
    # give the base state a flag
    rng = random.Random(44)
    graphs = [(g, minimum_vertex_cover(g)) for g in
              (random_graph(rng, rng.randrange(1, 9), rng.random())
               for _ in range(40))]
    for trial in range(40):
        k = rng.randrange(1, 8)
        n = k + rng.randrange(0, 9)
        g = random_graph_with_cover(rng, k, n, rng.choice([0.2, 0.5]))
        if trial % 2:  # an independent cover
            g = Graph(n, [(u, v) for u, v in g.edges if v >= k])
        graphs.append((g, set(range(k))))
    for _ in range(20):
        k = rng.randrange(1, 6)
        g = random_graph_with_cover(rng, k, k + rng.randrange(0, 5), 0.5)
        graphs.append((Graph(g.n + rng.randrange(1, 4), g.edges),
                       set(range(k))))
    for m in (1, 2, 3, 5, 300):
        graphs.append((Graph(m + 2, [(a, x) for a in (0, 1)
                                     for x in range(2, m + 2)]), {0, 1}))
    entries = intro_flags = forget_flags = base_flags = 0
    for g, cover in graphs:
        gp, apex = add_universal_vertex(g)
        ctx = CoverContext(gp, set(cover) | {apex})
        ap = ctx.position[apex]
        ranks = []

        def valid_triples(**kw):
            ranks.append(kw["rank"])
            return CoverContext.valid_triples(ctx, **kw)

        bound = width_bound(ctx)
        for limit in (bound - 1, bound, ctx.k, 255):
            ctx.valid_triples = valid_triples
            half = partial_width_table(ctx, apex_pos=ap, limit=limit)
            del ctx.valid_triples
            assert 0 not in ranks and all(key >> ctx.k for key in half)
            spec = pw_apex_sweep_table(ctx, apex_pos=ap, half=True,
                                       limit=limit)
            for bag in range(1 << ctx.k):
                entry = _rank0_entry(ctx, bag, 1 << ap, limit)
                if bag not in spec:
                    assert entry is None, (g.edges, limit, bag)
                    continue
                assert entry & 255 == bag.bit_count() - 1
                flags = {slot for slot in range(ctx.k + 1)
                         if entry >> (slot + 8) & 1}
                assert flags <= valid_upper_slots(ctx, 0, bag, None)
                assert pw_packed_slots(ctx, {bag: entry}) == \
                    {bag: spec[bag]}, (g.edges, limit, bag)
                entries += 1
                intro_flags += 0 in flags
                forget_flags += bool(flags - {0})
                base_flags += bag == 1 << ap and bool(flags)
    assert entries > 5000 and intro_flags and forget_flags and base_flags


def test_no_forget_lower_reaches_the_local_base():
    # the sweep's tightness branch looks only at introduce lowers: a
    # forget(u) lower's predecessor already pays, as its forget extra, the
    # crossing vertices this triple adds, so pred >= base + 1 (both clamped
    # as stored: K_{2,300}'s predecessors saturate at 254)
    forgets = 0
    for g, ctx, ap, _, spec in half_and_spec_tables(random.Random(42)):
        for below, bag in ctx.valid_triples(require_bit=ap):
            ahead = ctx.full & ~(below | bag)
            base = (bag.bit_count() - 1
                    + touching(ctx.inside, ctx.full, below, ahead))
            for code, xl, pred in _lowers(ctx, spec, below, bag):
                if code >= 32:
                    assert pred > min(base, 253), f"{g.edges}"
                    forgets += 1
    assert forgets > 5000


def test_glued_width_matches_full_sweep_and_oracle():
    # the glue over the balanced triples reads the spec's final value; the
    # witness built from the glued chain validates at that width
    saturated = 0
    for g, ctx, ap, half, spec in half_and_spec_tables(random.Random(40)):
        value, chain = glued_chain(ctx, half, ap)
        assert value == final_value(ctx, spec, ap), f"{g.edges}"
        assert value == pw_by_full_sweep(ctx, ap)
        cover = set(ctx.order) - {ctx.order[ap]}
        assert solved(g, cover=cover) == value - 1
        if g.n <= 9:
            assert value - 1 == pathwidth_exact(g), f"{g.edges}"
        whole = with_rank0(ctx, ap, half)
        saturated += sum(val == 254 for *_, val in
                         decode(pw_packed_slots(ctx, whole), ctx.k))
    assert saturated > 0  # K_{2,300}'s forget slots, expanded


def test_glued_chain_is_an_apex_path_at_the_glued_value():
    # the chain runs from the base state to the final state one op at a
    # time, passes its balanced state once, and the largest local width
    # along it, by the spec's literal boundary sets, is the glued value
    mirrored = 0
    for g, ctx, ap, half, _ in half_and_spec_tables(random.Random(41)):
        value, chain = glued_chain(ctx, half, ap)
        apex = 1 << ap
        assert chain[0][:3] == (ap, 0, apex)
        assert chain[-1] == (chain[-1][0], ctx.full ^ apex, apex, ap + 1)
        widths = []
        for i, (code, below, bag, slot) in enumerate(chain):
            ahead = ctx.full & ~(below | bag)
            if i + 1 < len(chain):
                nxt_code, nxt_below, nxt_bag, _ = chain[i + 1]
                if slot == 0:  # introduce upper: the next state's lower
                    assert nxt_code < 32 and nxt_below == below
                    assert nxt_bag == bag | 1 << nxt_code
                    assert ahead >> nxt_code & 1
                else:
                    assert nxt_code == 32 + slot - 1
                    assert (nxt_below, nxt_bag) == (below | 1 << (slot - 1),
                                                    bag ^ 1 << (slot - 1))
            lower = introduce(code) if code < 32 else forget(code - 32)
            upper = introduce(0) if slot == 0 else forget(slot - 1)
            crossing, xl, xr, _, eps = boundary_sets_pw(
                ctx.graph, ctx.order, State(lower, below, bag, ahead, upper))
            widths.append(local_width_pw(bag.bit_count(), len(crossing),
                                         len(xl), len(xr), eps))
            mirrored += below.bit_count() > ahead.bit_count()
        assert len(chain) == 2 * ctx.k - 1
        assert sum(2 * below.bit_count() + bag.bit_count() == ctx.k
                   for _, below, bag, _ in chain) == 1
        assert max(widths) == value, f"{g.edges}"
    assert mirrored > 500


def valid_upper_slots(ctx, below, bag, join_slot):
    ahead = ctx.full & ~(below | bag)
    slots = {v + 1 for v in iter_bits(bag) if not ctx.cov_adj[v] & ahead}
    if ahead:
        slots |= {0} | ({join_slot} if join_slot else set())
    return slots


def test_wide_values_saturate_inside_their_slot():
    # K_{2,300}: forgetting a cover vertex from the bag it shares with the
    # apex alone costs 301, more than one byte holds. Those are rank-0
    # slots, derived exactly from the computed V; the expansion of the half
    # table with its rank-0 entries and the packed tables saturate each
    # inside its own slot instead of spilling into the next one
    g = Graph(302, [(a, x) for a in (0, 1) for x in range(2, 302)])
    gp, apex = add_universal_vertex(g)
    ctx = CoverContext(gp, {0, 1, apex})
    ap = ctx.position[apex]
    half = partial_width_table(ctx, apex_pos=ap)
    tables = [(pw_packed_slots(ctx, with_rank0(ctx, ap, half, ctx.k)), None),
              (pw_apex_sweep_table(ctx, apex_pos=ap), None),
              (tw_packed_slots(ctx, treewidth_table(ctx, ap), ap,
                               width_bound(ctx)), ctx.k + 1)]
    for table, join_slot in tables:
        for below, bag, slot, val in decode(table, ctx.k):
            assert slot in valid_upper_slots(ctx, below, bag, join_slot)
    wide = {(below, bag, slot) for below, bag, slot, val
            in decode(tables[0][0], ctx.k) if val == 254}
    assert wide == {(0, 0b101, 1), (0, 0b110, 2)}
    for below, bag, slot in wide:
        assert _slot(ctx, half, 1 << ap, below, bag, slot) == 301
    assert solved(g) == 2
    assert treewidth_vc_4k(g)[0] == 2


def test_retries_reach_the_oracle(monkeypatch):
    # the half table is swept at the width bound and, while the glue finds
    # no path within the limit, at one more: every answer is the oracle's,
    # a few need a retry (the bound is one on treewidth, and pw = tw on
    # most small graphs), and from a bound of 1 the solver sweeps at 1, 2,
    # ..., pw + 1, the last sweep the first to hold the optimum
    rng = random.Random(39)
    cases = [(g, None) for n in range(1, 7)
             for g in small_graphs_up_to_isomorphism(n)]
    for trial in range(200):
        if trial % 2:
            cases.append((random_graph(rng, rng.randrange(2, 11),
                                       rng.choice([0.2, 0.4, 0.6, 0.8])),
                          None))
        else:
            k = rng.randrange(1, 7)
            cases.append((random_graph_with_cover(
                rng, k, k + rng.randrange(0, 10), rng.choice([0.3, 0.5])),
                set(range(k))))
    cases = [(g, cover, pathwidth_exact(g)) for g, cover in cases]
    retried = 0
    for g, cover, want in cases:
        stats = {}
        assert solved(g, cover=cover, stats=stats) == want, g.edges
        retried += stats["sweeps"] > 1
    assert retried
    monkeypatch.setattr(pathwidth, "width_bound", lambda ctx: 1)
    for g, cover, want in cases:
        stats = {}
        assert solved(g, cover=cover, stats=stats) == want, g.edges
        assert (stats["width_bound"], stats["sweeps"]) == (1, want + 1)
