"""Triple/state space: validity, enumeration order, ops, boundary sets."""

import random
from itertools import combinations

import pytest

from vcwidth.errors import ResourceLimitError
from vcwidth.graph import Graph
from vcwidth import pathwidth
from vcwidth.pathwidth import _slot, partial_width_table, pathwidth_vc
from vcwidth.states import (_NO_LOWER, MAX_COVER, CoverContext, apex_context,
                            best_lower, components_outside,
                            enumerate_valid_triples, iter_bits, touching)
from vcwidth import treewidth
from vcwidth.treewidth import (_join_splits, treewidth_table, treewidth_vc_4k,
                               width_bound)
from vcwidth.treewidth_fast import treewidth_vc_3k
from vcwidth.cover import minimum_vertex_cover

from genutil import (add_universal_vertex, path_graph, pw_tight_by_scan,
                     random_graph, random_graph_with_cover, scan_types)
from spec import (State, _best_lower, _forgets, _lowers, _pack,
                  _packed_forgets, _tight, boundary_sets_pw, boundary_sets_tw,
                  forget, introduce, is_valid_triple, join_with_part,
                  local_width_pw, local_width_tw, precedes,
                  pw_apex_sweep_table, pw_ops, tw_lower_ops, tw_packed_slots,
                  tw_upper_ops)


def cover_adjacency(rng, k, p):
    """Random symmetric adjacency masks over k cover positions."""
    adj = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def brute_force_triples(cov_adj):
    k = len(cov_adj)
    out = set()
    for assign in range(3 ** k):
        below = bag = ahead = 0
        a = assign
        for i in range(k):
            part = a % 3
            a //= 3
            if part == 0:
                below |= 1 << i
            elif part == 1:
                bag |= 1 << i
            else:
                ahead |= 1 << i
        if is_valid_triple(cov_adj, below, bag, ahead):
            out.add((below, bag))
    return out


def test_is_valid_triple_examples():
    edge = [0b10, 0b01]  # two cover vertices joined by an edge
    assert not is_valid_triple(edge, 0b01, 0b00, 0b10)
    assert is_valid_triple(edge, 0b01, 0b10, 0b00)
    single = [0]
    assert is_valid_triple(single, 1, 0, 0)
    assert is_valid_triple(single, 0, 1, 0)
    assert is_valid_triple(single, 0, 0, 1)
    # not a partition
    assert not is_valid_triple(edge, 0b01, 0b01, 0b10)
    assert not is_valid_triple(edge, 0b01, 0b00, 0b00)


def test_triple_counts():
    assert len(enumerate_valid_triples([0])) == 3
    edge = [0b10, 0b01]
    assert len(enumerate_valid_triples(edge)) == 7  # 9 minus the 2 split ways
    rng = random.Random(13)
    for _ in range(30):
        k = rng.randrange(1, 8)
        adj = cover_adjacency(rng, k, rng.random())
        triples = enumerate_valid_triples(adj)
        assert len(triples) <= 3 ** k
        assert len(set(triples)) == len(triples)
        assert set(triples) == brute_force_triples(adj)


def below_ranks_never_fall(triples):
    ranks = [below.bit_count() for below, _ in triples]
    return ranks == sorted(ranks)


def test_enumeration_is_linear_extension_of_precedence():
    rng = random.Random(14)
    for _ in range(10):
        k = rng.randrange(2, 6)
        adj = cover_adjacency(rng, k, rng.random())
        triples = enumerate_valid_triples(adj)
        assert below_ranks_never_fall(triples)
        for a, b in combinations(range(len(triples)), 2):
            # a strictly later triple must never precede an earlier one
            assert not (precedes(triples[b], triples[a])
                        and triples[a] != triples[b])


def test_require_bit_filters_bags():
    rng = random.Random(15)
    for _ in range(15):
        k = rng.randrange(2, 7)
        adj = cover_adjacency(rng, k, rng.random())
        bit = rng.randrange(k)
        with_bit = enumerate_valid_triples(adj, require_bit=bit)
        assert all(bag >> bit & 1 for _, bag in with_bit)
        # tw-vc-3k computes a bag's joins of rank s at its first triple of
        # rank s, so every lower rank must be swept by then
        assert below_ranks_never_fall(with_bit)
        expect = [t for t in enumerate_valid_triples(adj) if t[1] >> bit & 1]
        assert sorted(with_bit) == sorted(expect)


def test_half_keeps_the_triples_with_below_at_most_ahead():
    # the half is the full list filtered, in the same order, so it is a
    # linear extension of precedence too; and it is closed under
    # predecessors, which the pathwidth sweep reads
    rng = random.Random(16)
    kept = 0
    for _ in range(40):
        k = rng.randrange(1, 9)
        adj = cover_adjacency(rng, k, rng.random())
        full = (1 << k) - 1
        for bit in (None, rng.randrange(k)):
            half = enumerate_valid_triples(adj, require_bit=bit, half=True)
            assert half == [
                (below, bag)
                for below, bag in enumerate_valid_triples(adj, require_bit=bit)
                if below.bit_count() <= (full & ~(below | bag)).bit_count()]
            held = set(half)
            for below, bag in half:
                for u in iter_bits(bag):  # introduce(u) predecessors
                    if bit != u and not adj[u] & below:
                        assert (below, bag ^ 1 << u) in held
                for u in iter_bits(below):  # forget(u) predecessors
                    assert (below ^ 1 << u, bag | 1 << u) in held
            kept += len(half)
    assert kept > 1000


def test_tw_ops_examples():
    indep = [0, 0, 0]  # three cover vertices, no internal edges
    lowers = tw_lower_ops(indep, 0b000, 0b010, 0b101)
    assert ("introduce", 1) in lowers
    two = [0, 0]
    uppers = tw_upper_ops(two, 0b01, 0b10, 0b00)
    assert ("forget", 1) in uppers
    # independent a,b,c with below {a,b}: the split with part {a} is offered
    lowers = tw_lower_ops(indep, 0b011, 0b000, 0b100)
    assert ("join", 0b001) in lowers
    assert ("join", 0b010) not in lowers  # canonical part holds the low bit


def test_upper_join_iff_ahead_nonempty():
    rng = random.Random(16)
    for _ in range(25):
        k = rng.randrange(1, 7)
        adj = cover_adjacency(rng, k, rng.random())
        for below, bag in enumerate_valid_triples(adj):
            ahead = ((1 << k) - 1) ^ below ^ bag
            has_join = any(op.kind == "join"
                           for op in tw_upper_ops(adj, below, bag, ahead))
            assert has_join == bool(ahead)


def test_join_parts_are_component_unions():
    rng = random.Random(17)
    for _ in range(25):
        k = rng.randrange(2, 8)
        adj = cover_adjacency(rng, k, rng.random())
        for below, bag in enumerate_valid_triples(adj):
            parts = {op.arg for op in tw_lower_ops(adj, below, bag,
                                                   ((1 << k) - 1) ^ below ^ bag)
                     if op.kind == "join"}
            comps = components_outside(adj, below)
            unions = set()
            if len(comps) >= 2:
                first, rest = comps[0], comps[1:]
                for pick in range((1 << len(rest)) - 1):
                    m = first
                    for i in iter_bits(pick):
                        m |= rest[i]
                    unions.add(m)
            assert parts == unions


def test_pw_ops():
    indep = [0, 0, 0]
    lowers, uppers = pw_ops(indep, 0b000, 0b010, 0b101)
    assert lowers == [("introduce", 1)]
    assert all(op.kind in ("introduce", "forget") for op in lowers + uppers)
    # the closing state of an apexed instance can always forget the apex
    g = path_graph(3)
    gp, apex = add_universal_vertex(g)
    ctx = CoverContext(gp, minimum_vertex_cover(g) | {apex})
    ap = ctx.position[apex]
    below = ctx.full ^ (1 << ap)
    _, uppers = pw_ops(ctx.cov_adj, below, 1 << ap, 0)
    assert ("forget", ap) in uppers
    assert ("forget", ap) in tw_upper_ops(ctx.cov_adj, below, 1 << ap, 0)


def test_boundary_sets_tw_examples():
    # cover u=0, w=1 (no edge); one outside vertex 2 adjacent to both
    g = Graph(3, [(0, 2), (1, 2)])
    st = State(forget(0), 0b01, 0b00, 0b10, introduce(1))
    assert boundary_sets_tw(g, [0, 1], st) == ({2}, set(), set(), set(), 0)
    assert boundary_sets_pw(g, [0, 1], st) == ({2}, set(), set(), set(), 0)
    # outside vertex whose neighborhood is exactly the bag: tight
    st2 = State(None, 0b00, 0b11, 0b00, forget(0))
    crossing, xl, xr, confined, tight = boundary_sets_tw(g, [0, 1], st2)
    assert (crossing, xl, xr) == (set(), set(), set())
    assert confined == {2} and tight == 1
    # no outside vertices at all
    bare = Graph(2, [(0, 1)])
    st3 = State(forget(0), 0b01, 0b10, 0b00, forget(1))
    assert boundary_sets_tw(bare, [0, 1], st3) == \
        (set(), set(), set(), set(), 0)


def test_boundary_sets_pw_confinement():
    # x only sees u; introducing u means x's pendant bag must sit here
    g = Graph(3, [(0, 2)])
    st = State(introduce(0), 0b00, 0b01, 0b10, introduce(1))
    crossing, xl, xr, confined, eps = boundary_sets_pw(g, [0, 1], st)
    assert confined == {2} and eps == 1
    # x's neighborhood fits inside the pre-introduce bag: no pendant needed
    g2 = Graph(3, [(0, 2)])
    st2 = State(introduce(1), 0b00, 0b11, 0b00, forget(0))
    crossing, xl, xr, confined, eps = boundary_sets_pw(g2, [0, 1], st2)
    assert confined == set() and eps == 0


def test_boundary_join_lower_extra():
    # y sees both parts of the join, so it straddles the glued first bag
    g = Graph(4, [(0, 3), (1, 3)])
    st = State(join_with_part(0b001), 0b011, 0b100, 0b000, forget(2))
    assert boundary_sets_tw(g, [0, 1, 2], st) == \
        (set(), {3}, set(), set(), 0)


def test_local_width_formulas():
    assert local_width_tw(1, 0, 0, 0, 0) == 0
    assert local_width_tw(3, 0, 0, 0, 1) == 3
    assert local_width_tw(1, 1, 1, 0, 0) == 2
    assert local_width_pw(1, 0, 0, 0, 0) == 0
    assert local_width_pw(0, 1, 0, 0, 0) == 0
    assert local_width_pw(2, 0, 0, 0, 1) == 2
    assert local_width_pw(3, 2, 1, 4, 1) == 3 + 2 + 4 - 1


def test_boundary_disjointness():
    rng = random.Random(18)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(3, 9), rng.random())
        cover = minimum_vertex_cover(g)
        if len(cover) < 2:
            continue
        ctx = CoverContext(g, cover)
        order = ctx.order
        for below, bag in ctx.valid_triples():
            ahead = ctx.full ^ below ^ bag
            for low in tw_lower_ops(ctx.cov_adj, below, bag, ahead):
                for up in tw_upper_ops(ctx.cov_adj, below, bag, ahead):
                    st = State(low, below, bag, ahead, up)
                    crossing, xl, xr, confined, _ = \
                        boundary_sets_tw(g, order, st)
                    if low.kind == "join":
                        assert not (xl & crossing)
                    assert not (confined & (crossing | xl | xr))


class _AllReachable(dict):
    """A packed table in which every slot of every triple is reachable."""

    def get(self, key, default=None):
        return (1 << 256) - 1


def _count_spec_contexts():
    """Apexed contexts of small random graphs, of graphs with isolated
    vertices (type {apex}), and of graphs with n in the hundreds, k <= 6."""
    rng = random.Random(70)
    graphs = [random_graph(rng, rng.randrange(1, 9), rng.random())
              for _ in range(25)]
    graphs += [Graph(rng.randrange(3, 9), [(0, 1), (1, 2)])
               for _ in range(5)]
    for k in range(1, 7):
        graphs.append(random_graph_with_cover(
            rng, k, rng.randrange(100, 400), rng.choice([0.02, 0.3, 0.7])))
    for g in graphs:
        gp, apex = add_universal_vertex(g)
        ctx = CoverContext(gp, minimum_vertex_cover(g) | {apex})
        yield ctx, ctx.position[apex]


def test_boundary_counts_match_type_scan():
    # every count is also the length of the matching touching_vertices list
    table = _AllReachable()
    checked = splits = 0
    for ctx, ap in _count_spec_contexts():
        inside = ctx.inside

        def listed(outer, a, b):
            return len(ctx.touching_vertices(outer, a, b))

        for below, bag in ctx.valid_triples():
            ahead = ctx.full & ~(below | bag)
            below_bag, ahead_bag = below | bag, ahead | bag
            crossing, below_only, ahead_only, bag_only = scan_types(
                ctx.types, below, ahead)
            assert touching(inside, ctx.full, below, ahead) == crossing
            assert listed(ctx.full, below, ahead) == crossing
            want = [(u, sum(c for m, c in below_only if m >> u & 1))
                    for u in iter_bits(bag) if not ctx.cov_adj[u] & below]
            want += [(32 + u, 0) for u in iter_bits(below)]
            lowers = _lowers(ctx, table, below, bag)
            assert [(code, xl) for code, xl, _ in lowers] == want
            for code, xl, _ in lowers:
                if code < 32:
                    assert listed(below_bag, below, 1 << code) == xl
            forgets = _forgets(ctx, bag, ahead)
            assert forgets == [
                (v + 1, sum(c for m, c in ahead_only if m >> v & 1), v)
                for v in iter_bits(bag) if not ctx.cov_adj[v] & ahead]
            for _, xr, v in forgets:
                assert listed(ahead_bag, ahead, 1 << v) == xr
            for p1, p2, _, xl in _join_splits(ctx, table, below, bag):
                assert xl == sum(c for m, c in below_only
                                 if m & p1 and m & p2)
                assert listed(below_bag, p1, p2) == xl
                splits += 1
            if bag >> ap & 1:  # pathwidth bags all hold the apex
                for code in [32] + list(iter_bits(bag)):
                    for f in [-1] + list(iter_bits(bag)):
                        introduced = code if code < 32 else -1
                        tight = _tight(inside, bag, code, f)
                        assert tight == \
                            pw_tight_by_scan(bag_only, introduced, f)
                        a = 1 << code if code < 32 else bag
                        b = 1 << f if f >= 0 else bag
                        assert tight == min(1, listed(bag, a, b))
            checked += 1
    assert checked > 1000 and splits > 100


def _helper_contexts():
    """The contexts above and K_{2,300}, whose forget costs pass one byte."""
    wide = Graph(302, [(a, x) for a in (0, 1) for x in range(2, 302)])
    gp, apex = add_universal_vertex(wide)
    return list(_count_spec_contexts()) + [(CoverContext(gp, {0, 1, apex}),
                                            2)]


def _helper_cases():
    """(context, live table) pairs: each helper context with a random part
    of its finished treewidth table expanded into packed slots and of its
    packed pathwidth spec table, as a sweep sees its table part done."""
    rng = random.Random(71)
    for ctx, ap in _helper_contexts():
        tw_slots = tw_packed_slots(ctx, treewidth_table(ctx, ap), ap,
                                   width_bound(ctx))
        for full_table in (tw_slots, pw_apex_sweep_table(ctx, apex_pos=ap)):
            yield ctx, {key: val for key, val in full_table.items()
                        if rng.random() < 0.7}


def test_inside_counts_the_types_within_each_set():
    # with the implicit apex only the half holding it is transformed; the
    # table must still be the subset sums of the type counts, as it is with
    # an explicit apex or none
    rng = random.Random(20261019)
    for k in range(0, 8):
        g = random_graph_with_cover(rng, k, rng.randrange(k, 3 * k + 4),
                                    rng.choice([0.2, 0.5]))
        cover = set(range(k))
        for ctx in (apex_context(g, cover, None)[0], CoverContext(g, cover),
                    CoverContext(add_universal_vertex(g)[0], cover | {g.n})):
            assert ctx.inside == [
                sum(c for m, c in ctx.types if not m & ~s)
                for s in range(1 << ctx.k)]


def test_folded_helpers_match_their_lists():
    # the packed spec's _best_lower folds _lowers into one value and its
    # _packed_forgets packs _forgets with _pack's clamp; both must agree on
    # every triple
    rng = random.Random(72)
    lowers_seen = wide_slots = 0
    for ctx, table in _helper_cases():
        for below, bag in ctx.valid_triples():
            ahead = ctx.full & ~(below | bag)
            base = rng.randrange(0, 8)
            lowers = _lowers(ctx, table, below, bag)
            best, count = _best_lower(ctx, table.get, below, bag, base)
            assert count == len(lowers)
            if lowers:
                assert best == min(max(pred, base + xl)
                                   for _, xl, pred in lowers)
                lowers_seen += 1
            else:
                assert best == _NO_LOWER
            forgets = _forgets(ctx, bag, ahead)
            for floor in (base, base + rng.randrange(1, 300)):
                values = [(slot, max(floor, base + xr))
                          for slot, xr, _ in forgets]
                assert _packed_forgets(ctx, bag, ahead, floor, base) == \
                    (_pack(values), len(forgets))
                wide_slots += sum(val > 254 for _, val in values)
    assert lowers_seen > 1000 and wide_slots > 100


def _pw_pred(ctx, table, ap, below, bag, forgotten, base):
    """A pathwidth predecessor's slot read by a lower: the introduce slot,
    or the forget(`forgotten`) slot, through _slot."""
    slot = 0 if forgotten is None else forgotten + 1
    return _slot(ctx, table, 1 << ap, below, bag, slot)


def _tw_pred(ctx, table, ap, below, bag, forgotten, base):
    """A treewidth predecessor's slot read by a lower of a triple at
    `base`: V (_value, the degenerate floor at rank 0), and under the
    forget upper max(V, base + 1)."""
    pred = treewidth._value(ctx, table, below, bag)
    if pred is None or forgotten is None:
        return pred
    return max(pred, base + 1)


def test_best_lower_folds_the_slots_it_reads():
    # states.best_lower reads V and the flags of each predecessor directly;
    # it must equal the min over the valid lowers of max(the predecessor's
    # slot, base + xl), with their count and the mask of the introduce
    # lowers whose candidate is exactly base (xl = 0, pred <= base), on
    # every triple the sweep reads it for, those with something below; some
    # triples have such lowers. Its tables are random parts of
    # the pathwidth half table (V and flags) and of the treewidth table (V
    # alone), at each triple's own base: the forget slot's floor is this
    # triple's base + 1. Each is read through its own solver's rank-0
    # reader, _rank0_entry and the degenerate floor, and checked against
    # its own slots. The flagged entries it reads are those of the table
    # and the rank-0 predecessors of rank-1 triples
    rng = random.Random(73)
    every = _AllReachable()
    lowers_seen = flagged = frees = 0
    for ctx, ap in _helper_contexts():
        apex = 1 << ap

        def pw_rank0(bag):
            return pathwidth._rank0_entry(ctx, bag, apex, 255)

        for full_table, rank0, read in (
                (partial_width_table(ctx, apex_pos=ap, limit=255), pw_rank0,
                 _pw_pred),
                (treewidth_table(ctx, ap),
                 treewidth._sweep_hooks(ctx)["rank0"], _tw_pred)):
            table = {key: val for key, val in full_table.items()
                     if rng.random() < 0.7}
            flagged += sum(val >> 8 > 0 for val in table.values())
            rank0_read = set()
            for below, bag in ctx.valid_triples():
                if not below:
                    continue
                ahead = ctx.full & ~(below | bag)
                base = bag.bit_count() - 1 + touching(ctx.inside, ctx.full,
                                                      below, ahead)
                cands = []
                free = 0
                for code, xl, _ in _lowers(ctx, every, below, bag):
                    if code < 32:
                        pred = read(ctx, table, ap, below, bag ^ 1 << code,
                                    None, base)
                        if pred is not None and xl == 0 and pred <= base:
                            free |= 1 << code
                    else:
                        u = code - 32
                        pred = read(ctx, table, ap, below ^ 1 << u,
                                    bag | 1 << u, u, base)
                        if below == 1 << u:
                            rank0_read.add(bag | 1 << u)
                    if pred is not None:
                        cands.append(max(pred, base + xl))
                assert best_lower(ctx, table.get, below, bag, base,
                                  rank0) == \
                    (min(cands, default=_NO_LOWER), len(cands), free)
                lowers_seen += bool(cands)
                frees += bool(free)
            flagged += sum((rank0(bag) or 0) >> 8 > 0 for bag in rank0_read)
    assert lowers_seen > 1000 and flagged > 50 and frees > 5


def test_sweep_counters_of_the_ladder_k11_instance(monkeypatch):
    # the counters of ladder k = 11 (benchmark workload sparse-ladder):
    # the sweeps' order and helpers may change, the work they count not.
    # pw-vc sweeps the apex triples with |below| <= |ahead| within the
    # width bound, 10 here, and glues at once; the full apex sweep, kept
    # as a spec, still counts what pw-vc counted before it had a bound:
    # lowers times valid uppers, and upper slots stored. Every sweep stores
    # one value per triple and counts, as states, the lower candidates it
    # read for the triples it stores, and, as its peak table, the triples
    # it stores. No sweep stores or enumerates a triple with nothing below.
    # pw-vc computes its rank-0 triples where it reads them; when it swept
    # them, it enumerated all 2048, stored 2047 and counted 11254 lower
    # candidates for them. The treewidth sweeps never need a degenerate
    # triple. They decide at 9, one below the bound: rank 2 stores nothing,
    # so they stop before rank 3 and the greedy elimination order certifies
    # the width. With no bound they count the full sweep's work and the
    # table certifies it. tw-vc-3k builds the join data of a bag only when
    # a triple there has two or more cover vertices below: 544 join cells
    # at the bound, where rank 2 is the last one swept, against 49424 for
    # every apex bag with two or more outside components with no bound
    g = random_graph_with_cover(random.Random(20260814), 11, 28, 0.35)
    counted = ("valid_triples", "states", "peak_table")
    gp, apex = add_universal_vertex(g)
    ctx = CoverContext(gp, set(range(11)) | {apex})
    stats = {}
    pw_apex_sweep_table(ctx, stats, apex_pos=ctx.position[apex])
    assert tuple(stats[name] for name in counted) == (7623, 148770, 27363)
    expect = {pathwidth_vc: (1989, 2048, 504),
              treewidth_vc_4k: (2176, 858, 228),
              treewidth_vc_3k: (2176, 858, 228)}
    for solve, want in expect.items():
        stats = {}
        assert solve(g, set(range(11)), stats)[0] == 9
        assert tuple(stats[name] for name in counted) == want, solve
        assert (stats["width_bound"], stats["sweeps"]) == (10, 1)
        if solve is not pathwidth_vc:
            assert stats["certificate"] == "elimination order"
    joins = ("join_cells", "convolve_calls", "convolve_cells")
    assert tuple(stats[name] for name in joins) == (544, 8, 64)
    monkeypatch.setattr(treewidth, "width_bound", lambda ctx: 1 << 30)
    expect = {treewidth_vc_4k: (5575, 31357, 5575),
              treewidth_vc_3k: (5575, 30371, 5575)}
    for solve, want in expect.items():
        stats = {}
        assert solve(g, set(range(11)), stats)[0] == 9
        assert tuple(stats[name] for name in counted) == want, solve
        assert stats["certificate"] == "table"
    assert tuple(stats[name] for name in joins) == (49424, 4059, 31936)


def disjoint_edges(count):
    return Graph(2 * count, [(2 * i, 2 * i + 1) for i in range(count)])


def test_apex_context_takes_the_largest_cover_without_solving():
    # 25 cover vertices plus the apex: 26 positions, the most the packed
    # tables hold. Only the context is built; no zeta table, no sweep.
    stats = {}
    g = disjoint_edges(MAX_COVER)
    ctx, apex = apex_context(g, None, stats)
    assert (ctx.k, apex, stats["cover_size"]) == (26, 2 * MAX_COVER, 25)
    assert ctx.order[-1] == apex and "inside" not in vars(ctx)
    cover = {2 * i + 1 for i in range(MAX_COVER)}
    assert apex_context(g, cover, None)[0].order == sorted(cover) + [apex]


def test_apex_context_rejects_a_cover_above_the_maximum():
    g = disjoint_edges(MAX_COVER + 1)
    with pytest.raises(ResourceLimitError,
                       match="^cover of size 26 exceeds the supported "
                             "maximum of 25$"):
        apex_context(g, {2 * i for i in range(MAX_COVER + 1)}, {})
    with pytest.raises(ResourceLimitError,
                       match="^cover exceeds the supported maximum of 25$"):
        apex_context(g, None, {})
