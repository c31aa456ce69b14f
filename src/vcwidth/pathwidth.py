"""Exact pathwidth parameterized by vertex cover size.

Plan: add an apex vertex adjacent to everything, run a DP over states
(lower op, below, bag, ahead, upper op) in precedence order over the half
of the triples with |below| <= |ahead|, and glue the two halves of the
best path at its balanced state (see below). Independent-side vertices
enter the arithmetic only as counts grouped by their cover-neighborhood
type, read in O(1) from the zeta table `CoverContext.inside`; the witness
builder expands them back into concrete bags.

The table covers only the bags that hold the apex, which loses nothing.
The apex raises the pathwidth by exactly one, so adding it to every bag of
an optimal path decomposition of g gives an optimal one of g plus apex. Read
bag by bag, that decomposition's cover operations can introduce the apex
before anything else and forget it after everything else, so every state of
its chain has the apex in its bag: the base state is (nothing below, the
apex alone in the bag) and the final state (everything else below, the apex
alone in the bag). The DP over apex bags therefore reaches the optimum, and
the 2^(k-1) bags without the apex (apex ahead or below) are never swept.

Meet in the middle. Reversing a path decomposition maps the state
(a, L, X, R, b) to (b*, R, X, L, a*), where * swaps introduce and forget of
the same vertex, and every part of a state's local width survives that:
- the triple stays valid, since the test (no L-R edge) is symmetric;
- the crossing count touching(full, L, R) is symmetric in L and R;
- the extra of an introduce(u) lower, touching(L | X, L, u), is the extra
  of the mirrored forget(u) upper, touching(X | R', R', u) with R' = L;
- the tightness term touching(X, a, b) is symmetric in a and b.
So the reversed apex path has the same width. Along an apex path each op
raises |L| - |R| by exactly one, from -m to m (m cover vertices besides the
apex), so every apex path passes exactly one balanced state s0 with
|L| = |R|. Its part up to s0 lies in the half, and the mirror of its part
after s0 is again an apex path from the base state, in the half too. Hence
pw + 1 = min over s0 and its upper ops of max(T[s0][op], T[mirror(s1)][op*])
with s1 the state after s0 (_glue), and the witness chain is the left
back-walk followed by the right one reversed and mirrored (_optimal_chain).
The sweep touches about half the apex triples, with fewer lowers each.

Threshold and retry. The sweep stores only the triples whose best lower
candidate is within a limit; as in treewidth.py, values along a path never
fall, so every state of an optimal path is within pw + 1, and what is
stored is exact. The glue then finds pw + 1 if it is within the limit and
reports nothing otherwise. pathwidth_vc starts at treewidth.width_bound,
the greedy elimination width of the apexed graph, and sweeps again one
higher while the glue finds nothing. That bound is one on treewidth, and
pw >= tw, so the first sweep may fail; pw + 1 <= k bounds the retries. A
failed sweep costs nearly a full one, so pw does not decide one below the
bound the way treewidth does.

The sweep is states.sweep, the one treewidth runs, with pathwidth's hooks
(partial_width_table): the half, _rank0_entry as its rank-0 reader, and
_tight_flags as its finishing step. Without joins, a rank that stores
nothing ends it. Rank 0 is computed, not swept (see below), and always
holds the base state, so the sweep starts at rank 1.

Table layout: one int per stored triple (L, X, R), keyed (L << k) | X,
like the treewidth table. Its low byte is V, the best lower candidate
floored at base = |X| - 1 + crossing(L, R); a triple is stored only if V is
within the limit, which is at most 255. Every upper slot is derived from V
as in treewidth.py: the introduce slot is V, and the forget(u) slot is
max(V, base of the successor (L + u, X - u, R) + 1), since the vertices
forget(u) adds to the last bag are those that start crossing once u is
below. A pendant-bag vertex can raise one slot by one more, and only when
V = base and the slot's own term is 0; flag bit 8 marks that for the
introduce slot and bit u + 9 for forget(u). _slot reads a slot this way.

Rank 0 has a closed form and is never swept or stored. A triple (∅, X) has
no forget lower and no crossing, so base = |X| - 1, and its introduce(u)
lowers, u not the apex, have xl = touching(X, ∅, u) = 0 and read
(∅, X - u). The base state (∅, {apex}) is worth 0, its base; if every
(∅, X - u) is worth |X| - 2, every candidate of (∅, X) is
max(|X| - 2, base) = base, so by induction V(∅, X) = |X| - 1 for every X
that holds the apex, and a sweep at a limit keeps (∅, X) iff |X| - 1 is
within it. The flags are _tight_flags over those predecessors. These are
2^(k-1) triples, the bulk of the half (16,384 of its 23,998 at ladder
k = 14), and the sweep above them reads at most one per rank-1 triple, so
_rank0_entry computes an entry where it is read: by a rank-1 triple's
forget lower (states.best_lower), and through _slot by the glue and the
back-walk.
"""

from __future__ import annotations

import itertools

from .decomposition import Decomposition, contract, validate
from .errors import InternalError
from .states import apex_context, iter_bits, state_bags, sweep, touching
from .treewidth import width_bound


def _free_intros(ctx, get, below, bag, base, apex):
    """The bits u of the introduce(u) lowers with xl = 0 and pred <= base:
    the lowers that reach base. No forget(u) lower does: the vertices that
    see u and ahead but nothing else below are both what this triple's
    crossing adds to its predecessor's and that predecessor's forget(u)
    extra, so the predecessor's value is at least base + 1. With xl = 0
    the predecessor's base is base - 1, so its flag never matters here."""
    if below == 0 and bag == apex:
        return [apex]  # the base state: pred 0, xl 0
    cov_adj = ctx.cov_adj
    inside = ctx.inside
    below_bag = below | bag
    extra = inside[below_bag] - inside[bag]
    key = below << ctx.k
    intro = []
    m = bag
    while m:
        bit = m & -m
        m ^= bit
        if cov_adj[bit.bit_length() - 1] & below:
            continue
        pv = get(key | (bag ^ bit))
        if (pv is not None and pv & 255 <= base
                and extra == inside[below_bag ^ bit] - inside[bag ^ bit]):
            intro.append(bit)
    return intro


def _tight_flags(ctx, get, below, bag, ahead, base, apex):
    """The flag bits of a triple whose best lower reaches exactly base
    while some vertex is confined to the bag.

    Only the free lowers (_free_intros) reach base. A slot whose own term
    is 0 (the introduce upper, or forget(v) with xr = 0) costs base + 1
    unless one of them leaves every bag-confined vertex a pendant bag in a
    neighboring state: a vertex confined to the bag needs its pendant bag
    here only if it sees the introduced vertex and, under forget(v), v.
    """
    cov_adj = ctx.cov_adj
    inside = ctx.inside
    in_bag = inside[bag]
    flags = 0
    if ahead:
        # under the introduce upper, introduce(u) frees the pendant bags
        # only when no confined vertex sees u: check those lowers alone
        flags = 1 << 8
        below_bag = below | bag
        extra = inside[below_bag] - in_bag
        key = below << ctx.k
        m = bag
        while m:
            bit = m & -m
            m ^= bit
            rest = bag ^ bit
            if inside[rest] != in_bag or cov_adj[bit.bit_length() - 1] & below:
                continue
            pv = get(key | rest)
            if (pv is not None and pv & 255 <= base
                    and extra == inside[below_bag ^ bit] - inside[rest]):
                flags = 0
                break
    intro = None
    bag_ahead = bag | ahead
    extra = inside[bag_ahead] - in_bag
    m = bag
    while m:
        bit = m & -m
        m ^= bit
        v = bit.bit_length()
        if cov_adj[v - 1] & ahead:
            continue
        rest = bag ^ bit
        if extra == inside[bag_ahead ^ bit] - inside[rest]:  # xr = 0
            if intro is None:
                intro = _free_intros(ctx, get, below, bag, base, apex)
            if all(in_bag - inside[bag ^ a] - inside[rest] + inside[rest & ~a]
                   for a in intro):
                flags |= 1 << (v + 8)
    return flags


def _rank0_entry(ctx, bag, apex, limit=255):
    """The entry of the rank-0 triple (nothing below, `bag`), computed as a
    sweep at `limit` would store it: V = |bag| - 1, its base, plus the
    flags. None if the bag lacks the apex, as the table holds only apex
    bags, or if V is above the limit.

    `apex` is the apex bit, from the caller: ctx.apex is 0 when the apex is
    a vertex of the graph."""
    base = bag.bit_count() - 1
    if not bag & apex or base > limit:
        return None
    if not ctx.inside[bag]:
        return base

    def get(rest):  # V of (nothing below, rest), flags left out
        return rest.bit_count() - 1 if rest & apex else None

    return base | _tight_flags(ctx, get, 0, bag, ctx.full & ~bag, base, apex)


def partial_width_table(ctx, stats=None, *, apex_pos, limit=None):
    """Run the pathwidth DP sweep (states.sweep) over the apex triples with
    |below| <= |ahead|, the half that _glue reads; returns the table of V
    and flags.

    A triple is stored only if V is within `limit` (default k, since
    pw + 1 <= k; at most 255, the low byte); the slots of a stored triple
    are exact, those above the limit included. A rank-0 triple is computed
    where it is read (_rank0_entry), never stored or counted. Without
    joins, the sweep stops after the first rank that stores nothing.
    """
    apex = 1 << apex_pos
    limit = min(ctx.k if limit is None else limit, 255)

    def rank0(bag):
        return _rank0_entry(ctx, bag, apex, limit)

    def finish(get, below, bag, ahead, base):
        return base | _tight_flags(ctx, get, below, bag, ahead, base, apex)

    return sweep(ctx, apex_pos, stats, limit=limit, rank0=rank0,
                 finish=finish, half=True)


def _slot(ctx, table, apex, below, bag, slot):
    """Upper `slot` of a stored triple, derived from its entry (None if the
    sweep did not keep it): slot 0, the introduce upper, is V, and slot
    u+1, forget(u), is max(V, base of (below + u, bag - u) + 1); each plus
    its flag. A rank-0 entry is computed (_rank0_entry) whatever the
    sweep's limit; the glue and the back-walk bound what they read."""
    if below:
        entry = table.get((below << ctx.k) | bag)
    else:
        entry = _rank0_entry(ctx, bag, apex)
    if entry is None:
        return None
    val = entry & 255
    if slot:
        bit = 1 << (slot - 1)
        ahead = ctx.full & ~(below | bag)
        after = bag.bit_count() - 1 + touching(ctx.inside, ctx.full,
                                               below | bit, ahead)
        if val < after:
            val = after
    return val + (entry >> (slot + 8) & 1)


def _glue(ctx, table, apex_pos, limit=1 << 30):
    """(pw + 1, meet): the best apex path within `limit`, glued at its
    balanced state; None if no path is within the limit.

    Every apex path passes exactly one state s0 with |below| = |ahead|,
    and the state s1 after it mirrors into the half table, so pw + 1 is the
    min over s0 and its upper ops of max(T[s0][op], T[mirror(s1)][op*]):
    introduce(v) pairs with slot v+1 of (ahead - v, bag + v, below), and
    forget(u), u not the apex, with slot 0 of (ahead, bag - u, below + u).
    `meet` is ((below, bag, slot) of s0, the same of mirror(s1)). When the
    cover is the apex alone, the base state is the final state and the
    second part is None. The balanced rank-0 state (nothing below,
    everything in the bag) is computed and scanned first, where the sweep
    used to store it, so that ties keep their order.
    """
    k = ctx.k
    full = ctx.full
    apex = 1 << apex_pos
    if k == 1:
        val = _slot(ctx, table, apex, 0, apex, apex_pos + 1)
        if val is None or val > limit:
            return None
        return val, ((0, apex, apex_pos + 1), None)
    best = limit + 1
    meet = None
    first = (full, _rank0_entry(ctx, full, apex))  # (nothing below, full)
    for key, entry in itertools.chain([first], table.items()):
        below = key >> k
        bag = key & full
        if 2 * below.bit_count() + bag.bit_count() != k or entry & 255 >= best:
            continue  # not balanced, or every slot is at least V
        ahead = full ^ below ^ bag
        a = _slot(ctx, table, apex, below, bag, 0)
        if a < best:
            for v in iter_bits(ahead):
                b = _slot(ctx, table, apex, ahead ^ 1 << v, bag | 1 << v,
                          v + 1)
                if b is not None and max(a, b) < best:
                    best = max(a, b)
                    meet = ((below, bag, 0), (ahead ^ 1 << v, bag | 1 << v,
                                              v + 1))
        for u in iter_bits(bag ^ apex):
            b = _slot(ctx, table, apex, ahead, bag ^ 1 << u, 0)
            if b is not None and b < best:
                a = _slot(ctx, table, apex, below, bag, u + 1)
                if max(a, b) < best:
                    best = max(a, b)
                    meet = ((below, bag, u + 1), (ahead, bag ^ 1 << u, 0))
    return None if meet is None else (best, meet)


def _state_chain(ctx, table, apex_pos, below, bag, slot, val):
    """Back-walk the table from the state (below, bag, upper `slot`) of
    value `val` to the base state.

    Returns the state chain bottom-up as tuples
    (lower code, below, bag, upper slot): introduce(u) has code u,
    forget(u) code 32+u. Ties go to the lowest lower code, i.e. the lowest
    encoded state key. A lower's candidate is max(pred, base + max(xl, xr,
    tight)), where tight is 1 if some vertex confined to the bag sees the
    introduced vertex (under an introduce lower) and the forgotten one
    (under a forget upper); every vertex sees the apex, which is in the
    bag, so `bag` stands for "no condition".
    """
    full = ctx.full
    inside = ctx.inside
    cov_adj = ctx.cov_adj
    apex = 1 << apex_pos
    chain = []
    while True:
        ahead = full & ~(below | bag)
        base = bag.bit_count() + touching(inside, full, below, ahead) - 1
        seen = 1 << (slot - 1) if slot else bag
        xr = touching(inside, bag | ahead, ahead, seen) if slot else 0
        if below == 0 and bag == apex:
            lowers = [(apex_pos, 0, 0)]  # the base state: no predecessor
        else:
            lowers = [(u, touching(inside, below | bag, below, 1 << u),
                       _slot(ctx, table, apex, below, bag ^ 1 << u, 0))
                      for u in iter_bits(bag) if not cov_adj[u] & below]
            lowers += [(32 + u, 0, _slot(ctx, table, apex, below ^ 1 << u,
                                         bag | 1 << u, u + 1))
                       for u in iter_bits(below)]
        picked = None
        for code, xl, pred in lowers:
            if pred is None:
                continue
            t = 1 if touching(inside, bag, 1 << code if code < 32 else bag,
                              seen) else 0
            if max(pred, base + max(xl, xr, t)) == val:
                picked = (code, pred)
                break
        if picked is None:
            raise InternalError("pathwidth back-walk lost the optimum")
        code, pred = picked
        chain.append((code, below, bag, slot))
        if below == 0 and bag == apex:
            break
        if code < 32:  # introduce(u): undo it
            slot = 0
            bag ^= 1 << code
        else:  # forget(u)
            u = code - 32
            slot = u + 1
            below ^= 1 << u
            bag |= 1 << u
        val = pred
    chain.reverse()
    return chain


def _optimal_chain(ctx, table, apex_pos, meet):
    """The optimal apex path's state chain, bottom-up, from _glue's meet.

    The left half is walked back from s0. The right half is walked back
    from mirror(s1), then reversed and mirrored: below and ahead swap, a
    mirrored introduce(u) lower becomes the forget(u) upper, a mirrored
    forget lower the introduce upper, a mirrored forget(v) upper the
    introduce(v) lower, and a mirrored introduce upper the forget lower of
    the vertex that the state before it in the chain keeps in its bag.
    """
    full = ctx.full
    apex = 1 << apex_pos
    left, right = meet
    chain = _state_chain(ctx, table, apex_pos, *left,
                         _slot(ctx, table, apex, *left))
    if right is None:
        return chain
    mirrored = _state_chain(ctx, table, apex_pos, *right,
                            _slot(ctx, table, apex, *right))
    for code, ahead, bag, slot in reversed(mirrored):
        below = full & ~(ahead | bag)
        if slot:
            lower = slot - 1
        else:
            lower = 32 + (below ^ chain[-1][1]).bit_length() - 1
        chain.append((lower, below, bag, code + 1 if code < 32 else 0))
    return chain


def reconstruct_path(g, ctx, table, apex, meet, width):
    """Expand the optimal state chain into a path decomposition of g.

    Every state contributes a run of bags: first bag with the lower-op
    boundary vertices, one pendant bag per confined vertex placed here,
    last bag with the upper-op boundary vertices. A vertex confined in
    several states is placed in the one with the smallest core, the first
    on ties; the DP charged its pendant bag in each, so no width grows.
    The apex is stripped and the path contracted; the result is validated
    against g before being returned.
    """
    chain = _optimal_chain(ctx, table, ctx.position[apex], meet)
    home = {}  # confined vertex -> (core size, index) of its state
    for i, (code, below, bag, slot) in enumerate(chain):
        ahead = ctx.full & ~(below | bag)
        size = bag.bit_count() + touching(ctx.inside, ctx.full, below, ahead)
        key = (size, i)
        # as in _state_chain, `bag` stands for "no condition"
        for x in ctx.touching_vertices(bag, 1 << code if code < 32 else bag,
                                       1 << (slot - 1) if slot else bag):
            home[x] = min(home.get(x, key), key)
    pendants = [[] for _ in chain]
    for x in sorted(home):
        pendants[home[x][1]].append(x)
    bags = []
    for (code, below, bag, slot), placed in zip(chain, pendants):
        lower = (below, 1 << code) if code < 32 else None
        core, first, last = state_bags(ctx, below, bag, lower, slot - 1)
        bags.append(first)
        bags += [core | {x} for x in placed]
        bags.append(last)
    for b in bags:  # no two bags share a set
        b.discard(apex)
    dec = contract(bags, zip(range(len(bags)), range(1, len(bags))), "path")
    measured = validate(g, dec)
    if measured != width:
        raise InternalError(
            f"pathwidth witness has width {measured}, solver reported {width}")
    return dec


def pathwidth_vc(g, cover=None, stats=None):
    """Exact pathwidth of g and a path decomposition witnessing it.

    `cover` may inject a precomputed vertex cover (it is verified); by
    default a minimum one is computed. Runtime and memory are exponential in
    the cover size, mild in n. The half table is swept at limit =
    width_bound(ctx) and, while the glue finds no path within the limit,
    swept again at limit + 1; the counters are those of every sweep
    together, the peak table the largest one's.
    """
    if g.n == 0:
        return -1, Decomposition([], [], kind="path")
    ctx, apex = apex_context(g, cover, stats)
    apex_pos = ctx.position[apex]
    limit = bound = width_bound(ctx)
    sweeps = []
    while True:
        sweeps.append({})
        table = partial_width_table(ctx, sweeps[-1], apex_pos=apex_pos,
                                    limit=limit)
        glued = _glue(ctx, table, apex_pos, limit)
        if glued is not None:
            break
        if limit >= ctx.k:  # pw + 1 <= k, so this sweep held the optimum
            raise InternalError("the DP finished without a balanced state")
        limit += 1
    if stats is not None:
        for name in ("valid_triples", "states"):
            stats[name] = sum(run[name] for run in sweeps)
        stats["peak_table"] = max(run["peak_table"] for run in sweeps)
        stats["width_bound"] = bound
        stats["sweeps"] = len(sweeps)
    value, meet = glued
    return value - 1, reconstruct_path(g, ctx, table, apex, meet, value - 1)
