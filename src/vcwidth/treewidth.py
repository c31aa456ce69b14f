"""Exact treewidth parameterized by vertex cover size (explicit join parts).

Same state space as the pathwidth solver — apex vertex, (lower op, below,
bag, ahead, upper op) states swept in precedence order — extended with join
operations: a lower join glues two partial solutions over a bipartition of
`below` with no edges between the parts (so parts are unions of connected
components of the cover graph minus the bag), an upper join is valid whenever
`ahead` is nonempty.

States with the apex outside the bag are skipped: with the apex ahead no
forget is ever valid (everything neighbors the apex), so no value is finite,
and with the apex below a state cannot reach the final one.

The table holds one value per triple (L, X, R): table[(L << k) | X] = V, its
best lower candidate floored at X's own need (|X| - 1, plus 1 if some
vertex's neighborhood is exactly X), and every upper slot is a function of
V. Every lower candidate is at least cross = |X| - 1 + crossing(L, R), so
the introduce and join slots are V. The forget(u) slot of P = (L - u, X + u,
R) is max(V_P, cross_P + xr_P(u)) = max(V_P, cross_S + 1), S = (L, X, R) its
successor: xr_P(u) counts the vertices that see u and R and nothing in
L - u, exactly those crossing L and R but not L - u. A degenerate state
(nothing below, no lower op, a forget upper) is a base case worth its floor,
computed where it is read, never stored or swept.

The sweep keeps only the states within a limit. A state's value is the
max of its predecessor's value and its local width, so values never fall
along a path to the final state, and every state on an optimal path is
worth at most the final value. A triple whose `cross` exceeds the limit is
skipped before any candidate is read, and one whose V exceeds it is not
stored. What is stored stays exact: a value within the limit comes from
predecessors within it (both children, for a join), stored by induction,
and a predecessor missing from the table is worth more than the limit, and
so is its candidate.

The solvers decide one below a greedy bound. elimination_order eliminates
the apexed graph greedily by minimum degree; its width b bounds the final
value, tw + 1. The sweep runs at limit b - 1. If it stores the final state,
its value is exact and the table's back-walk gives the witness. If not, tw
+ 1 > b - 1, so tw = b - 1, and the certificate is the elimination order's
own tree decomposition, the apex stripped: every bag before the apex goes
holds the apex, and every later bag lies in the apex's bag, so stripped,
no bag holds more than b vertices. Both witnesses are validated.

The sweep is states.sweep, the one pw-vc runs too. It goes rank by rank
and stops at the first rank that can no longer hold a stored triple,
counting join children of ranks a + b = r (states.no_rank_left); when the
greedy bound is tight, the sweep at b - 1 often ends after a few ranks.
Treewidth's hooks (_sweep_hooks) read a degenerate state as its floor and
floor a value at base, then apply the limit. The two treewidth solvers
differ only in their join provider: treewidth_table enumerates the
bipartitions of `below` into component unions over the live table;
treewidth_fast computes each bag's minima by subset convolution, rank by
rank, as the sweep reaches them.
"""

from __future__ import annotations

import heapq

from .decomposition import Decomposition, contract, validate
from .errors import InternalError
from .states import (apex_context, components_outside, iter_bits, state_bags,
                     sweep, touching)


def _value(ctx, table, below, bag):
    """V of a triple: its table entry (None if the sweep did not keep it),
    or, with nothing below, the degenerate state's floor."""
    if below:
        return table.get((below << ctx.k) | bag)
    return bag.bit_count() - 1 + (bag in ctx.type_masks)


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
    out = []
    first, rest = comps[0], comps[1:]
    for pick in range((1 << len(rest)) - 1):
        part1 = first
        for i in iter_bits(pick):
            part1 |= rest[i]
        part2 = below ^ part1
        v1 = table.get((part1 << k) | bag)
        v2 = table.get((part2 << k) | bag)
        if v1 is not None and v2 is not None:
            out.append((part1, part2, max(v1, v2),
                        touching(inside, below_bag, part1, part2)))
    out.sort()
    return out


def elimination_order(ctx):
    """(width, steps) of a greedy minimum-degree elimination order of the
    apexed graph. The width is an upper bound on its treewidth, the final
    value of the sweep; the steps list the order itself.

    Each step eliminates the cheapest of the independent-side types (their
    vertices see only their cover mask, which becomes a clique) and the
    cover vertices that at most one independent vertex still sees (that
    vertex takes over their cover neighbors); ties go to types, then to the
    earliest type or the lowest position. A cover vertex seen by two independent
    vertices waits, so no two independent vertices become adjacent. A step
    is (t, -1, m) for every vertex of type t, m their cover neighbors left,
    or (t, u, near) for cover position u, near its cover neighbors left and
    t the type of its one independent neighbor left (-1 if none). Costs
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
    steps = []
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
            steps.append((t, -1, m))
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
            t = -1
            if seen[u]:
                t = next(t for t, m in enumerate(masks)
                         if m is not None and m >> u & 1)
                for i in iter_bits(near & ~masks[t]):
                    seen[i] += 1
                masks[t] = (masks[t] | near) ^ (1 << u)
                heapq.heappush(heap, (masks[t].bit_count(), t, masks[t]))
            steps.append((t, u, near))
        width = max(width, d)
    return width, steps


def width_bound(ctx):
    """The width of elimination_order(ctx): an upper bound on the final
    value of the sweep, the treewidth of g plus one."""
    return elimination_order(ctx)[0]


def _sweep_hooks(ctx, limit=None):
    """states.sweep's limit and hooks for a treewidth table within `limit`
    (default width_bound(ctx)). The rank-0 reader gives a degenerate state
    its floor, as _value does; the finishing step floors a value at base
    the same way, then applies the limit."""
    if limit is None:
        limit = width_bound(ctx)
    type_masks = ctx.type_masks

    def rank0(bag):
        return bag.bit_count() - 1 + (bag in type_masks)

    def finish(free, below, bag, ahead, base):
        # a vertex whose neighborhood is exactly the bag needs a full bag,
        # one more than base if nothing crosses
        if bag in type_masks and base < bag.bit_count():
            base += 1
        return base if base <= limit else None

    return {"limit": limit, "rank0": rank0, "finish": finish}


def treewidth_table(ctx, apex_pos, stats=None, limit=None):
    """Run the treewidth DP sweep (states.sweep) within `limit` (default
    the width bound), enumerating join bipartitions over the live table;
    returns the table of V values.
    """
    comps_of = {}

    def joins(table, below, bag, cross):
        comps = comps_of.get(below)
        if comps is None:
            comps = comps_of[below] = components_outside(ctx.cov_adj, below)
        return [max(pred, cross + xl) for _, _, pred, xl
                in _join_splits(ctx, table, below, bag, comps)]

    return sweep(ctx, apex_pos, stats, joins=joins,
                 **_sweep_hooks(ctx, limit))


def _expand_tree(ctx, table, below, bag, slot, val, nodes):
    """Recreate one optimal state and recurse into its predecessors.

    Appends (lower, below, bag, slot, child state indices) entries to
    `nodes`, where `lower` is state_bags' pair: (below, 1 << u) for
    introduce(u), (part1, part2) for a join, None for a forget or a
    degenerate state. `val` is the state's value under upper slot `slot`
    (0 introduce, u+1 forget(u), k+1 join). Candidate lowers are probed in
    order (introduce, forget, then joins by ascending first part), taking
    the first that reproduces `val`.
    """
    k = ctx.k
    inside = ctx.inside
    ahead = ctx.full & ~(below | bag)
    base = bag.bit_count() - 1
    tight = 1 if bag in ctx.type_masks else 0
    forgotten = slot - 1 if 1 <= slot <= k else -1
    xr = 0
    if forgotten >= 0:
        xr = touching(inside, bag | ahead, ahead, 1 << forgotten)
    me = len(nodes)
    nodes.append((None, below, bag, slot, []))
    if below == 0:
        if forgotten < 0 or base + max(xr, tight) != val \
                or ctx.cov_adj[forgotten] & ahead:
            raise InternalError("degenerate treewidth state mismatch")
        return me
    cross = base + touching(inside, ctx.full, below, ahead)
    floor = max(cross + xr, base + tight)
    for u in iter_bits(bag):
        bit = 1 << u
        pred = None if ctx.cov_adj[u] & below else \
            table.get((below << k) | (bag ^ bit))
        if pred is not None and max(pred, floor, cross + touching(
                inside, below | bag, below, bit)) == val:
            child = _expand_tree(ctx, table, below, bag ^ bit, 0, pred, nodes)
            nodes[me] = ((below, bit), below, bag, slot, [child])
            return me
    for u in iter_bits(below):
        bit = 1 << u
        pred = _value(ctx, table, below ^ bit, bag | bit)
        if pred is not None and max(pred, cross + 1, floor) == val:
            child = _expand_tree(ctx, table, below ^ bit, bag | bit, u + 1,
                                 max(pred, cross + 1), nodes)
            nodes[me] = (None, below, bag, slot, [child])
            return me
    for part1, part2, pred, xl in _join_splits(ctx, table, below, bag):
        if max(pred, cross + xl, floor) == val:
            children = [_expand_tree(ctx, table, part, bag, k + 1,
                                     table[(part << k) | bag], nodes)
                        for part in (part1, part2)]
            nodes[me] = ((part1, part2), below, bag, slot, children)
            return me
    raise InternalError("treewidth back-walk lost the optimum")


def _final_value(ctx, table, apex_pos):
    """V of the final state (all but the apex below, the apex alone in the
    bag), the width plus one; None if the sweep did not keep it. With an
    empty cover it is degenerate and computed."""
    apex = 1 << apex_pos
    return _value(ctx, table, ctx.full ^ apex, apex)


def decide_width(ctx, apex_pos, sweep, stats):
    """(width, table): the treewidth of g, decided by one sweep(limit) at
    limit = width_bound(ctx) - 1, and the table that sweep returned.

    If the final state is within the limit, its value is the width plus
    one and the table is the certificate. If not, the width is the limit:
    the sweep shows it is at least that, and the greedy elimination order
    gives a decomposition of that width (reconstruct_tree).
    """
    bound = width_bound(ctx)
    table = sweep(bound - 1)
    value = _final_value(ctx, table, apex_pos)
    width = bound - 1 if value is None or value > bound else value - 1
    if stats is not None:
        stats["width_bound"] = bound
        stats["sweeps"] = 1
        stats["certificate"] = ("table" if value == width + 1
                                else "elimination order")
    return width, table


def _state_tree(ctx, table, apex_pos, width):
    """(bags, edges) of the optimal state tree, back-walked from the final
    state of value width + 1.

    Each state becomes a three-bag chain (first/core/last); children hang
    below the first bag and confined vertices get pendant bags off the
    core.
    """
    states = []
    _expand_tree(ctx, table, ctx.full ^ (1 << apex_pos), 1 << apex_pos,
                 apex_pos + 1, width + 1, states)
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
                bags.append({x, *ctx.graph.adj[x]})
        for c in children:
            edges.append((emit(c), i + 1))
        return i + 2

    emit(0)
    return bags, edges


def _elimination_tree(ctx):
    """(bags, edges) of the greedy elimination order's tree decomposition
    of the apexed graph: a vertex's bag holds it and its neighbors left
    when it goes, and hangs below the bag of the first of those to go.

    Its width is elimination_order's. Every bag before the apex goes holds
    the apex, and every later one lies in the apex's bag, so with the apex
    stripped the width is one less.
    """
    order = []  # (vertex, its neighbors left)
    for t, u, near in elimination_order(ctx)[1]:
        nbrs = ctx.expand(near)
        if u < 0:
            order += [(x, nbrs) for x in ctx.type_vertices[ctx.types[t][0]]]
        else:
            if t >= 0:
                nbrs.add(ctx.type_vertices[ctx.types[t][0]][0])
            order.append((ctx.order[u], nbrs))
    when = {v: i for i, (v, _) in enumerate(order)}
    edges = [(i, min(when[w] for w in nbrs))
             for i, (_, nbrs) in enumerate(order) if nbrs]
    return [nbrs | {v} for v, nbrs in order], edges


def reconstruct_tree(g, ctx, table, apex, width):
    """A tree decomposition of g of width `width`, from the certificate
    decide_width used: the optimal state tree if the final state's value is
    width + 1, else the greedy elimination order. The apex is stripped and
    the tree contracted; the result is validated before returning.
    """
    apex_pos = ctx.position[apex]
    if _final_value(ctx, table, apex_pos) == width + 1:
        bags, edges = _state_tree(ctx, table, apex_pos, width)
    else:
        bags, edges = _elimination_tree(ctx)
    for b in bags:  # no two bags share a set
        b.discard(apex)
    dec = contract(bags, edges, "tree")
    measured = validate(g, dec)
    if measured != width:
        raise InternalError(
            f"treewidth witness has width {measured}, solver reported {width}")
    return dec


def treewidth_vc_4k(g, cover=None, stats=None):
    """Exact treewidth of g and a tree decomposition witnessing it.

    Joins enumerate explicit part bipartitions (quartic-in-3^k state count).
    `cover` may inject a verified vertex cover.
    """
    if g.n == 0:
        return -1, Decomposition([], [], kind="tree")
    ctx, apex = apex_context(g, cover, stats)
    apex_pos = ctx.position[apex]
    width, table = decide_width(
        ctx, apex_pos, lambda limit: treewidth_table(
            ctx, apex_pos, stats, limit), stats)
    return width, reconstruct_tree(g, ctx, table, apex, width)
