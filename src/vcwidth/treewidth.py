"""Exact treewidth parameterized by vertex cover size (explicit join parts).

Same state space as the pathwidth solver — apex vertex, (lower op, below,
bag, ahead, upper op) states swept in precedence order — extended with join
operations: a lower join glues two partial solutions over a bipartition of
`below` with no edges between the parts (so parts are unions of connected
components of the cover graph minus the bag), an upper join is valid whenever
`ahead` is nonempty. Base cases are the degenerate states: `below` empty and
a forget upper op whose vertex has no cover neighbors ahead.

States with the apex outside the bag are skipped: with the apex ahead no
forget is ever valid (everything neighbors the apex), so no value is finite,
and with the apex below a state cannot reach the final one. The packed table
layout is the one in states.py, with byte slot k+1 for the join upper op.

The sweep fills only the states within an upper bound on the final value,
width_bound's greedy elimination width of the apexed graph. A state's value
is the max of its predecessor's value and its local width, so values never
fall along a path to the final state, and every state on an optimal path is
worth at most the final value. Every lower candidate of a triple is at
least its `cross`, so a triple whose `cross` exceeds the bound is skipped
before any candidate is read, and a triple whose floored best exceeds it is
not stored. What is stored stays exact: a value within the bound comes
from predecessors within it (both children, for a join), stored by
induction, and a predecessor missing from the table is worth more than the
bound, and so is its candidate. A stored triple keeps all its upper slots,
also those above the bound.

One sweep body, _tw_sweep, serves both treewidth solvers; they differ only
in where a triple's join candidates come from. treewidth_table enumerates
the bipartitions of `below` into component unions over the live table;
treewidth_fast computes each bag's minima by subset convolution, rank by
rank, as the sweep reaches them.
"""

from __future__ import annotations

import heapq

from .decomposition import Decomposition, contract, validate
from .errors import InternalError
from .states import (_best_lower, _forgets, _lowers, _packed_forgets, _read,
                     apex_context, components_outside, final_value,
                     iter_bits, state_bags, touching)


def _join_splits(ctx, table, below, bag, comps=None):
    """Join-lower candidates: (part1, part2, max child value, straddlers).

    `comps` are the components of the cover graph on `below` (computed if
    not given). part1 canonically holds the component of the lowest bit of
    `below`; bipartitions whose children are unreachable are dropped.
    """
    if comps is None:
        comps = components_outside(ctx.cov_adj, below)
    if len(comps) < 2:
        return []
    k = ctx.k
    inside = ctx.inside
    below_bag = below | bag
    join_slot = 8 * (k + 1)
    out = []
    first, rest = comps[0], comps[1:]
    for pick in range((1 << len(rest)) - 1):
        part1 = first
        for i in iter_bits(pick):
            part1 |= rest[i]
        part2 = below ^ part1
        pv1 = (table.get((part1 << k) | bag, 0) >> join_slot) & 255
        if not pv1:
            continue
        pv2 = (table.get((part2 << k) | bag, 0) >> join_slot) & 255
        if not pv2:
            continue
        out.append((part1, part2, max(pv1, pv2) - 1,
                    touching(inside, below_bag, part1, part2)))
    out.sort()
    return out


def width_bound(ctx):
    """Width of a greedy minimum-degree elimination order of the apexed
    graph: an upper bound on its treewidth, the final value of the sweep.

    Each step eliminates the cheapest of the independent-side types (their
    vertices see only their cover mask, which becomes a clique) and the
    cover vertices that at most one independent vertex still sees (that
    vertex takes over their cover neighbors); ties go to types, then to the
    earliest type or the lowest position. A cover vertex seen by two independent
    vertices waits, so no two independent vertices become adjacent. Costs
    O(#types * (k + log #types) + k^3), whatever the number of vertices.
    """
    adj = list(ctx.cov_adj)
    masks = [m for m, _ in ctx.types]
    seen = [0] * ctx.k  # live independent vertices seeing each position
    for m, mult in ctx.types:
        for i in iter_bits(m):
            seen[i] += mult
    heap = [(m.bit_count(), t, m) for t, m in enumerate(masks)]
    heapq.heapify(heap)
    left = ctx.full
    width = 0
    while heap or left:
        while heap and masks[heap[0][1]] != heap[0][2]:
            heapq.heappop(heap)  # a type gone or changed since pushed
        u, du = -1, ctx.k + 1
        for i in iter_bits(left):
            if seen[i] <= 1:
                d = (adj[i] & left).bit_count() + seen[i]
                if d < du:
                    u, du = i, d
        if heap and heap[0][0] <= du:
            d, t, m = heapq.heappop(heap)
            masks[t] = None
            for i in iter_bits(m):
                adj[i] |= m ^ (1 << i)
                seen[i] -= ctx.types[t][1]
        else:
            d = du
            left ^= 1 << u
            near = adj[u] & left
            for i in iter_bits(near):
                adj[i] |= near ^ (1 << i)
            if seen[u]:
                t = next(t for t, m in enumerate(masks)
                         if m is not None and m >> u & 1)
                for i in iter_bits(near & ~masks[t]):
                    seen[i] += 1
                masks[t] = (masks[t] | near) ^ (1 << u)
                heapq.heappush(heap, (masks[t].bit_count(), t, masks[t]))
        width = max(width, d)
    return width


def _tw_sweep(ctx, apex_pos, join_candidates, stats, join_values):
    """The treewidth DP sweep over bags containing the apex, filling only
    the states within width_bound(ctx).

    `join_candidates(table, below, bag, cross)` lists the values of the
    join lowers of a triple, each already max(child value, cross +
    straddlers), where cross is |bag| - 1 plus the crossing count. If
    `join_values` is a dict, the minimum over join lowers is recorded per
    (below, bag, upper slot).
    """
    k = ctx.k
    full = ctx.full
    inside = ctx.inside
    type_masks = ctx.type_masks
    join_shift = 8 * (k + 1)
    limit = width_bound(ctx)
    table = {}
    get = table.get
    triples = ctx.valid_triples(require_bit=apex_pos)
    states = 0
    slots = 0
    for below, bag in triples:
        ahead = full & ~(below | bag)
        base = bag.bit_count() - 1
        # a vertex whose neighborhood is exactly the bag needs a full bag
        floor = base + 1 if bag in type_masks else base
        if below == 0:
            # degenerate base states: no lower op, forget uppers only
            if floor > limit:
                continue
            packed, uppers = _packed_forgets(ctx, bag, ahead, floor, base)
            if uppers:
                table[bag] = packed
                states += uppers
                slots += uppers
            continue
        cross = base + touching(inside, full, below, ahead)
        if cross > limit:
            continue
        best, lowers = _best_lower(ctx, get, below, bag, cross)
        joins = join_candidates(table, below, bag, cross)
        if not lowers and not joins:
            continue
        if joins:
            best = min(best, *joins)
        # every candidate is at least cross, so the introduce and join
        # uppers (xr = 0) take best itself
        best = max(floor, best)
        if best > limit:
            continue
        packed, uppers = _packed_forgets(ctx, bag, ahead, best, cross)
        if ahead:
            val = min(best, 254) + 1
            packed |= val | val << join_shift
            uppers += 2
        if not uppers:
            continue
        states += (lowers + len(joins)) * uppers
        table[(below << k) | bag] = packed
        slots += uppers
        if join_values is not None and joins:
            mj = max(floor, min(joins))
            listed = [(0, 0, -1), (k + 1, 0, -1)] if ahead else []
            for slot, xr, _ in listed + _forgets(ctx, bag, ahead):
                join_values[(below, bag, slot)] = max(mj, cross + xr)
    if stats is not None:
        stats["width_bound"] = limit
        stats["valid_triples"] = len(triples)
        stats["states"] = states
        stats["peak_table"] = slots
    return table


def treewidth_table(ctx, apex_pos, stats=None, join_values=None):
    """Run the treewidth DP sweep, enumerating join bipartitions over the
    live table.

    Returns the packed table. If `join_values` is a dict, the minimum over
    join-lower candidates is recorded per (below, bag, upper slot) — the
    subset-convolution solver computes exactly these numbers and tests
    compare them.
    """
    comps_of = {}

    def join_candidates(table, below, bag, cross):
        comps = comps_of.get(below)
        if comps is None:
            comps = comps_of[below] = components_outside(ctx.cov_adj, below)
        return [max(pred, cross + xl) for _, _, pred, xl
                in _join_splits(ctx, table, below, bag, comps)]

    return _tw_sweep(ctx, apex_pos, join_candidates, stats, join_values)


def _expand_tree(ctx, table, below, bag, slot, val, nodes):
    """Recreate one optimal state and recurse into its predecessors.

    Appends (lower, below, bag, slot, child state indices) entries to
    `nodes`, where `lower` is state_bags' pair: (below, 1 << u) for
    introduce(u), (part1, part2) for a join, None for a forget or a
    degenerate state. Candidate lowers are probed in encoded-key order
    (introduce, forget, then joins by ascending first part), taking the
    first that reproduces `val`.
    """
    k = ctx.k
    full = ctx.full
    ahead = full & ~(below | bag)
    base = bag.bit_count() - 1
    tight = 1 if bag in ctx.type_masks else 0
    forgotten = slot - 1 if 1 <= slot <= k else -1
    xr = 0
    if forgotten >= 0:
        xr = touching(ctx.inside, bag | ahead, ahead, 1 << forgotten)
    me = len(nodes)
    nodes.append(None)
    if below == 0:
        if forgotten < 0 or base + max(xr, tight) != val \
                or ctx.cov_adj[forgotten] & ahead:
            raise InternalError("degenerate treewidth state mismatch")
        nodes[me] = (None, below, bag, slot, [])
        return me
    cross = base + touching(ctx.inside, full, below, ahead)
    for code, xl, pred in _lowers(ctx, table, below, bag):
        if max(pred, cross + max(xl, xr), base + tight) == val:
            if code < 32:
                lower = (below, 1 << code)
                child = _expand_tree(ctx, table, below, bag ^ (1 << code), 0,
                                     pred, nodes)
            else:
                lower = None
                u = code - 32
                child = _expand_tree(ctx, table, below ^ (1 << u),
                                     bag | (1 << u), u + 1, pred, nodes)
            nodes[me] = (lower, below, bag, slot, [child])
            return me
    for part1, part2, pred, xl in _join_splits(ctx, table, below, bag):
        if max(pred, cross + max(xl, xr), base + tight) == val:
            children = [_expand_tree(ctx, table, part, bag, k + 1,
                                     _read(table, k, part, bag, k + 1), nodes)
                        for part in (part1, part2)]
            nodes[me] = ((part1, part2), below, bag, slot, children)
            return me
    raise InternalError("treewidth back-walk lost the optimum")


def reconstruct_tree(g, ctx, table, apex, width):
    """Expand the optimal state tree into a tree decomposition of g.

    Each state becomes a three-bag chain (first/core/last); children hang
    below the first bag and confined vertices get pendant bags off the
    core. The apex is stripped and the tree contracted; the result is
    validated before returning.
    """
    apex_pos = ctx.position[apex]
    states = []
    _expand_tree(ctx, table, ctx.full ^ (1 << apex_pos), 1 << apex_pos,
                 apex_pos + 1, final_value(ctx, table, apex_pos), states)
    bags = []
    edges = []
    placed = set()

    def emit(idx):
        lower, below, bag, slot, children = states[idx]
        forgotten = slot - 1 if 1 <= slot <= ctx.k else -1
        i = len(bags)
        bags.extend(state_bags(ctx, below, bag, lower, forgotten))
        edges.extend([(i, i + 1), (i, i + 2)])
        for x in ctx.touching_vertices(bag, bag, bag):
            if x not in placed:
                placed.add(x)
                edges.append((i, len(bags)))
                bags.append(set(ctx.graph.adj[x]) | {x})
        for c in children:
            edges.append((emit(c), i + 1))
        return i + 2

    emit(0)
    dec = contract([b - {apex} for b in bags], edges, "tree")
    measured = validate(g, dec)
    if measured != width:
        raise InternalError(
            f"treewidth witness has width {measured}, solver reported {width}")
    return dec


def treewidth_vc_4k(g, cover=None, stats=None, join_values=None):
    """Exact treewidth of g and a tree decomposition witnessing it.

    Joins enumerate explicit part bipartitions (quartic-in-3^k state count).
    `cover` may inject a verified vertex cover; `join_values`, if a dict, is
    filled with the per-state join-only minima for cross-checking against
    treewidth_vc_3k.
    """
    if g.n == 0:
        return -1, Decomposition([], [], kind="tree")
    ctx, apex = apex_context(g, cover, stats)
    apex_pos = ctx.position[apex]
    table = treewidth_table(ctx, apex_pos, stats, join_values)
    width = final_value(ctx, table, apex_pos) - 1
    return width, reconstruct_tree(g, ctx, table, apex, width)
