"""Exact pathwidth parameterized by vertex cover size.

Plan: add an apex vertex adjacent to everything (pathwidth rises by exactly
one and every optimal layout can introduce the apex first among forgettable
things, which pins the final state), run a DP over states (lower op, below,
bag, ahead, upper op) in precedence order, and read the answer off the state
that forgets the apex last. Independent-side vertices enter the arithmetic
only as counts grouped by their cover-neighborhood type; the witness builder
expands them back into concrete bags.

Table layout: one packed int per valid triple. Byte slot 0 holds the best
value over states whose upper op introduces (any) vertex — the value does not
depend on which; byte slot u+1 holds the best value for upper op forget(u).
A zero byte means unreachable; otherwise the byte stores value+1.
"""

from __future__ import annotations

from .cover import is_vertex_cover, minimum_vertex_cover
from .decomposition import Decomposition, validate
from .errors import InputError, InternalError
from .graph import Graph
from .states import CoverContext, iter_bits


def _scan_types(types, below, ahead):
    """Split independent-vertex types by which sides of the triple they see.

    Returns (crossing count, below-only types, ahead-only types, bag-only
    types); the latter three keep (mask, count) pairs.
    """
    crossing = 0
    below_only = []
    ahead_only = []
    bag_only = []
    for m, cnt in types:
        if m & below:
            if m & ahead:
                crossing += cnt
            else:
                below_only.append((m, cnt))
        elif m & ahead:
            ahead_only.append((m, cnt))
        else:
            bag_only.append((m, cnt))
    return crossing, below_only, ahead_only, bag_only


def _lowers(ctx, table, below, bag, size_x, below_only):
    """Candidate lower ops with their boundary counts and predecessor values.

    Yields (code, xl, pred, introduced) in ascending code order: introduces
    first (code = u), then forgets (code = 32+u). The pathwidth base state —
    empty `below`, singleton bag — has no predecessor; it carries pred = 0,
    which never dominates. Unreachable predecessors are dropped.
    """
    k = ctx.k
    cov_adj = ctx.cov_adj
    out = []
    if below == 0 and size_x == 1:
        u = bag.bit_length() - 1
        out.append((u, 0, 0, u))
        return out
    for u in iter_bits(bag):
        if cov_adj[u] & below:
            continue
        packed = table.get((below << k) | (bag ^ (1 << u)), 0)
        pv = packed & 255
        if pv:
            xl = sum(cnt for m, cnt in below_only if m >> u & 1)
            out.append((u, xl, pv - 1, u))
    for u in iter_bits(below):
        packed = table.get(((below ^ (1 << u)) << k) | (bag | (1 << u)), 0)
        pv = (packed >> (8 * (u + 1))) & 255
        if pv:
            out.append((32 + u, 0, pv - 1, -1))
    return out


def _uppers(ctx, below, bag, ahead, ahead_only):
    """Candidate upper ops as (slot, xr, forgotten vertex or -1)."""
    out = []
    if ahead:
        out.append((0, 0, -1))
    for v in iter_bits(bag):
        if ctx.cov_adj[v] & ahead:
            continue
        xr = sum(cnt for m, cnt in ahead_only if m >> v & 1)
        out.append((v + 1, xr, v))
    return out


def _tight(bag_only, introduced, forgotten):
    """1 if some bag-confined vertex needs its pendant bag in this state."""
    for m, _ in bag_only:
        if introduced >= 0 and not m >> introduced & 1:
            continue
        if forgotten >= 0 and not m >> forgotten & 1:
            continue
        return 1
    return 0


def partial_width_table(ctx, stats=None):
    """Run the pathwidth DP sweep; returns the packed state-value table."""
    k = ctx.k
    full = ctx.full
    types = ctx.types
    table = {}
    triples = ctx.valid_triples()
    states = 0
    slots = 0
    for below, bag in triples:
        ahead = full & ~(below | bag)
        size_x = bag.bit_count()
        crossing, below_only, ahead_only, bag_only = _scan_types(types, below, ahead)
        lowers = _lowers(ctx, table, below, bag, size_x, below_only)
        if not lowers:
            continue
        uppers = _uppers(ctx, below, bag, ahead, ahead_only)
        if not uppers:
            continue
        base = size_x + crossing - 1
        states += len(lowers) * len(uppers)
        packed = 0
        if not bag_only:
            m1 = min(max(pred, base + xl) for _, xl, pred, _ in lowers)
            for slot, xr, _ in uppers:
                val = max(m1, base + xr)
                packed |= (val + 1) << (8 * slot)
        else:
            for slot, xr, forgotten in uppers:
                best = None
                for code, xl, pred, introduced in lowers:
                    t = _tight(bag_only, introduced, forgotten)
                    cand = max(pred, base + max(xl, xr, t))
                    if best is None or cand < best:
                        best = cand
                packed |= (best + 1) << (8 * slot)
        table[(below << k) | bag] = packed
        slots += len(uppers)
    if stats is not None:
        stats["valid_triples"] = len(triples)
        stats["states"] = states
        stats["peak_table"] = slots
    return table


def _read(table, k, below, bag, slot):
    pv = (table.get((below << k) | bag, 0) >> (8 * slot)) & 255
    return pv - 1 if pv else None


def _state_chain(ctx, table, apex_pos):
    """Back-walk the table from the apex-forgetting final state.

    Returns the optimal state chain bottom-up as tuples
    (lower code, below, bag, upper slot). Ties go to the lowest lower code,
    i.e. the lowest encoded state key.
    """
    k = ctx.k
    full = ctx.full
    below = full ^ (1 << apex_pos)
    bag = 1 << apex_pos
    slot = apex_pos + 1
    val = _read(table, k, below, bag, slot)
    if val is None:
        raise InternalError("final pathwidth state is unreachable")
    chain = []
    while True:
        ahead = full & ~(below | bag)
        size_x = bag.bit_count()
        crossing, below_only, ahead_only, bag_only = _scan_types(
            ctx.types, below, ahead)
        base = size_x + crossing - 1
        forgotten = slot - 1 if slot else -1
        xr = sum(cnt for m, cnt in ahead_only if forgotten >= 0
                 and m >> forgotten & 1)
        picked = None
        for code, xl, pred, introduced in _lowers(
                ctx, table, below, bag, size_x, below_only):
            t = _tight(bag_only, introduced, forgotten) if bag_only else 0
            if max(pred, base + max(xl, xr, t)) == val:
                picked = (code, pred)
                break
        if picked is None:
            raise InternalError("pathwidth back-walk lost the optimum")
        code, pred = picked
        chain.append((code, below, bag, slot))
        if below == 0 and size_x == 1:
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


def reconstruct_path(g, ctx, table, apex, width):
    """Expand the optimal state chain into a path decomposition of g.

    Every state contributes a run of bags: first bag with the lower-op
    boundary vertices, one pendant bag per not-yet-placed confined vertex,
    last bag with the upper-op boundary vertices. The apex is stripped at
    the end; the result is validated against g before being returned.
    """
    apex_pos = ctx.position[apex]
    chain = _state_chain(ctx, table, apex_pos)
    placed = set()
    bags = []
    for code, below, bag, slot in chain:
        ahead = ctx.full & ~(below | bag)
        bag_set = ctx.expand(bag)
        core = bag_set | set(ctx.vertices_of_types(
            lambda m: m & below and m & ahead))
        introduced = code if code < 32 else -1
        forgotten = slot - 1 if slot else -1
        first = set(core)
        if introduced >= 0:
            first |= set(ctx.vertices_of_types(
                lambda m: m & below and not m & ahead and m >> introduced & 1))
        last = set(core)
        if forgotten >= 0:
            last |= set(ctx.vertices_of_types(
                lambda m: m & ahead and not m & below and m >> forgotten & 1))
        confined = [x for x in ctx.vertices_of_types(
            lambda m: not m & (below | ahead)
            and (introduced < 0 or m >> introduced & 1)
            and (forgotten < 0 or m >> forgotten & 1)) if x not in placed]
        bags.append(first)
        for x in sorted(confined):
            bags.append(core | {x})
            placed.add(x)
        bags.append(last)
    cleaned = []
    for b in bags:
        b.discard(apex)
        if b and (not cleaned or b != cleaned[-1]):
            cleaned.append(b)
    dec = Decomposition(cleaned, [(i, i + 1) for i in range(len(cleaned) - 1)],
                        kind="path")
    measured = validate(g, dec)
    if measured != width:
        raise InternalError(
            f"pathwidth witness has width {measured}, solver reported {width}")
    return dec


def pathwidth_vc(g, cover=None, stats=None):
    """Exact pathwidth of g and a path decomposition witnessing it.

    `cover` may inject a precomputed vertex cover (it is verified); by
    default a minimum one is computed. Runtime and memory are exponential in
    the cover size, mild in n.
    """
    if g.n == 0:
        return -1, Decomposition([], [], kind="path")
    if cover is None:
        cover = minimum_vertex_cover(g)
    else:
        cover = set(cover)
        if not is_vertex_cover(g, cover):
            raise InputError("provided vertex set is not a vertex cover")
    gp, apex = g.add_universal_vertex()
    ctx = CoverContext(gp, cover | {apex})
    if stats is not None:
        stats["cover_size"] = len(cover)
    table = partial_width_table(ctx, stats)
    apex_pos = ctx.position[apex]
    final = _read(table, ctx.k, ctx.full ^ (1 << apex_pos), 1 << apex_pos,
                  apex_pos + 1)
    if final is None:
        raise InternalError("pathwidth DP finished without a final state")
    width = final - 1
    witness = reconstruct_path(g, ctx, table, apex, width)
    return width, witness
