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

Threshold and retry. The sweep stores only the triples with some upper
slot within a limit; as in treewidth.py, values along a path never fall,
so every state of an optimal path is within pw + 1, and what is stored is
exact. The glue then finds pw + 1 if it is within the limit and reports
nothing otherwise. pathwidth_vc starts at treewidth.width_bound, the greedy
elimination width of the apexed graph, and sweeps again one higher while
the glue finds nothing. That bound is one on treewidth, and pw >= tw, so
the first sweep may fail; pw + 1 <= k bounds the retries. A failed sweep
costs nearly a full one, so pw does not decide one below the bound the way
treewidth does. Without joins, a rank that stores nothing ends the sweep.

Table layout: one packed int per valid triple, as described in states.py;
byte slot 0 is the introduce upper, slot u+1 the forget(u) upper.
"""

from __future__ import annotations

from .decomposition import Decomposition, contract, validate
from .errors import InternalError
from .states import (_best_lower, _lowers, _packed_forgets, _read,
                     apex_context, iter_bits, no_rank_left, state_bags,
                     touching)
from .treewidth import width_bound


def _pw_lowers(ctx, table, below, bag, apex):
    """Lower candidates (code, xl, pred) of a pathwidth triple. The base
    state (nothing below, the apex alone in the bag) introduces the apex
    with no predecessor; it carries pred = 0, which never dominates."""
    if below == 0 and bag == apex:
        return [(apex.bit_length() - 1, 0, 0)]
    return _lowers(ctx, table, below, bag)


def _tight(inside, bag, code, forgotten):
    """1 if some vertex confined to the bag needs its pendant bag in this
    state: it must see the introduced vertex under an introduce lower and
    the forgotten one under a forget upper, else the pendant bag fits in a
    neighboring state. Every vertex sees the apex, which is in the bag, so
    `bag` stands for "no condition"."""
    a = 1 << code if code < 32 else bag
    b = 1 << forgotten if forgotten >= 0 else bag
    return 1 if touching(inside, bag, a, b) else 0


def _free_intros(ctx, get, below, bag, base, apex):
    """The bits u of the introduce(u) lowers with xl = 0 and pred <= base:
    the lowers that reach base. No forget(u) lower does: the vertices that
    see u and ahead but nothing else below are both what this triple's
    crossing adds to its predecessor's and that predecessor's forget(u)
    extra, so the predecessor's value is at least base + 1."""
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
        pv = get(key | (bag ^ bit), 0) & 255
        if (pv and pv <= base + 1
                and extra == inside[below_bag ^ bit] - inside[bag ^ bit]):
            intro.append(bit)
    return intro


def _tight_uppers(ctx, get, below, bag, ahead, base, apex):
    """(packed upper slots, their count) of a triple whose best lower
    reaches exactly base while some vertex is confined to the bag.

    Only the free lowers (_free_intros) reach base. An upper with xr = 0
    costs base + 1 unless _tight is 0 for one of them: it leaves every
    bag-confined vertex a pendant bag in a neighboring state.
    """
    cov_adj = ctx.cov_adj
    inside = ctx.inside
    in_bag = inside[bag]
    packed = 0
    count = 0
    if ahead:
        # under the introduce upper, _tight of introduce(u) is 0 only when
        # no confined vertex sees u: check those lowers alone
        val = base + 1
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
            pv = get(key | rest, 0) & 255
            if (pv and pv <= base + 1
                    and extra == inside[below_bag ^ bit] - inside[rest]):
                val = base
                break
        packed = (val if val < 254 else 254) + 1
        count = 1
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
        count += 1
        rest = bag ^ bit
        val = base + extra - inside[bag_ahead ^ bit] + inside[rest]
        if val == base:  # xr = 0
            if intro is None:
                intro = _free_intros(ctx, get, below, bag, base, apex)
            val += all(
                in_bag - inside[bag ^ a] - inside[rest] + inside[rest & ~a]
                for a in intro)
        packed |= (val if val < 254 else 254) + 1 << (8 * v)
    return packed, count


def partial_width_table(ctx, stats=None, *, apex_pos, limit=None):
    """Run the pathwidth DP sweep over the apex triples with |below| <=
    |ahead|, the half that _glue reads; returns the packed state-value
    table.

    With a `limit`, a triple is stored only if some upper slot is within
    it; the slots of a stored triple are exact, those above the limit
    included. Ranks are enumerated as the sweep reaches them, and it stops
    after the first rank that stores nothing (states.no_rank_left).
    """
    k = ctx.k
    full = ctx.full
    inside = ctx.inside
    apex = 1 << apex_pos
    if limit is None:
        limit = 1 << 30
    table = {}
    get = table.get
    triples = states = slots = 0
    stored = []
    for rank in range(k):
        if no_rank_left(stored, False):
            break
        ranked = ctx.valid_triples(require_bit=apex_pos, half=True, rank=rank)
        triples += len(ranked)
        kept = len(table)
        for below, bag in ranked:
            ahead = full & ~(below | bag)
            base = bag.bit_count() + touching(inside, full, below, ahead) - 1
            if base > limit:
                continue  # every slot is at least base
            if below == 0 and bag == apex:
                m1, lowers = base, 1  # the base state: pred 0, xl 0
            else:
                m1, lowers = _best_lower(ctx, get, below, bag, base)
                if m1 > limit:  # no lower (_NO_LOWER), or every slot above
                    continue
            if m1 > base or not inside[bag]:
                # the tightness term, 0 or 1, cannot raise a lower that
                # reaches m1 > base, and it is 0 when no vertex is confined
                # to the bag
                packed, uppers = _packed_forgets(ctx, bag, ahead, m1, base)
                if ahead:  # the introduce upper: max(m1, base) = m1
                    packed |= min(m1, 254) + 1
                    uppers += 1
            else:
                packed, uppers = _tight_uppers(ctx, get, below, bag, ahead,
                                               base, apex)
            if not uppers:
                continue
            states += lowers * uppers
            table[(below << k) | bag] = packed
            slots += uppers
        stored.append(len(table) - kept)
    if stats is not None:
        stats["valid_triples"] = triples
        stats["states"] = states
        stats["peak_table"] = slots
    return table


def _glue(ctx, table, apex_pos, limit=253):
    """(pw + 1, meet): the best apex path within `limit`, glued at its
    balanced state; None if no path is within the limit.

    Every apex path passes exactly one state s0 with |below| = |ahead|,
    and the state s1 after it mirrors into the half table, so pw + 1 is the
    min over s0 and its upper ops of max(T[s0][op], T[mirror(s1)][op*]):
    introduce(v) pairs with slot v+1 of (ahead - v, bag + v, below), and
    forget(u), u not the apex, with slot 0 of (ahead, bag - u, below + u).
    `meet` is ((below, bag, slot) of s0, the same of mirror(s1)). When the
    cover is the apex alone, the base state is the final state and the
    second part is None. The default limit keeps every unsaturated value.
    """
    k = ctx.k
    full = ctx.full
    apex = 1 << apex_pos
    if k == 1:
        val = _read(table, k, 0, apex, apex_pos + 1)
        if val is None or val > limit:
            return None
        return val, ((0, apex, apex_pos + 1), None)
    get = table.get
    best = min(limit, 253) + 2  # stored bytes: min(value, 254) + 1
    meet = None
    for key, packed in table.items():
        below = key >> k
        bag = key & full
        if 2 * below.bit_count() + bag.bit_count() != k:
            continue
        ahead = full ^ below ^ bag
        a = packed & 255
        if a and a < best:
            for v in iter_bits(ahead):
                b = (get(((ahead ^ 1 << v) << k) | bag | 1 << v, 0)
                     >> (8 * v + 8)) & 255
                if b and max(a, b) < best:
                    best = max(a, b)
                    meet = ((below, bag, 0), (ahead ^ 1 << v, bag | 1 << v,
                                              v + 1))
        for u in iter_bits(bag ^ apex):
            a = (packed >> (8 * u + 8)) & 255
            if a and a < best:
                b = get((ahead << k) | (bag ^ 1 << u), 0) & 255
                if b and max(a, b) < best:
                    best = max(a, b)
                    meet = ((below, bag, u + 1), (ahead, bag ^ 1 << u, 0))
    return None if meet is None else (best - 1, meet)


def _state_chain(ctx, table, apex_pos, below, bag, slot, val):
    """Back-walk the table from the state (below, bag, upper `slot`) of
    value `val` to the base state.

    Returns the state chain bottom-up as tuples
    (lower code, below, bag, upper slot). Ties go to the lowest lower code,
    i.e. the lowest encoded state key.
    """
    full = ctx.full
    inside = ctx.inside
    apex = 1 << apex_pos
    chain = []
    while True:
        ahead = full & ~(below | bag)
        base = bag.bit_count() + touching(inside, full, below, ahead) - 1
        forgotten = slot - 1
        xr = 0
        if forgotten >= 0:
            xr = touching(inside, bag | ahead, ahead, 1 << forgotten)
        picked = None
        for code, xl, pred in _pw_lowers(ctx, table, below, bag, apex):
            t = _tight(inside, bag, code, forgotten)
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
    k = ctx.k
    full = ctx.full
    left, right = meet
    chain = _state_chain(ctx, table, apex_pos, *left,
                         _read(table, k, *left))
    if right is None:
        return chain
    mirrored = _state_chain(ctx, table, apex_pos, *right,
                            _read(table, k, *right))
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
        # as in _tight, `bag` stands for "no condition"
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
            stats[name] = sum(sweep[name] for sweep in sweeps)
        stats["peak_table"] = max(sweep["peak_table"] for sweep in sweeps)
        stats["width_bound"] = bound
        stats["sweeps"] = len(sweeps)
    value, meet = glued
    return value - 1, reconstruct_path(g, ctx, table, apex, meet, value - 1)
