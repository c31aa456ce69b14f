"""Exact pathwidth parameterized by vertex cover size.

Plan: add an apex vertex adjacent to everything, run a DP over states
(lower op, below, bag, ahead, upper op) in precedence order, and read the
answer off the state that forgets the apex last. Independent-side vertices
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

Table layout: one packed int per valid triple, as described in states.py;
byte slot 0 is the introduce upper, slot u+1 the forget(u) upper.
"""

from __future__ import annotations

from .decomposition import Decomposition, contract, validate
from .errors import InternalError
from .states import (_best_lower, _forgets, _lowers, _pack, _packed_forgets,
                     apex_context, final_value, state_bags, touching)


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


def partial_width_table(ctx, stats=None, *, apex_pos):
    """Run the pathwidth DP sweep over the bags holding the apex; returns
    the packed state-value table."""
    k = ctx.k
    full = ctx.full
    inside = ctx.inside
    apex = 1 << apex_pos
    table = {}
    get = table.get
    triples = ctx.valid_triples(require_bit=apex_pos)
    states = 0
    slots = 0
    for below, bag in triples:
        ahead = full & ~(below | bag)
        base = bag.bit_count() + touching(inside, full, below, ahead) - 1
        if below == 0 and bag == apex:
            m1, lowers = base, 1  # the base state: pred 0, xl 0
        else:
            m1, lowers = _best_lower(ctx, get, below, bag, base)
            if not lowers:
                continue
        if m1 > base or not inside[bag]:
            # the tightness term, 0 or 1, cannot raise a lower that reaches
            # m1 > base, and it is 0 when no vertex is confined to the bag
            packed, uppers = _packed_forgets(ctx, bag, ahead, m1, base)
            if ahead:  # the introduce upper: max(m1, base) = m1
                packed |= min(m1, 254) + 1
                uppers += 1
            if not uppers:
                continue
        else:
            # the lowers reaching m1 = base have xl = 0 and pred <= base;
            # an upper with xr = 0 costs one more unless one of them leaves
            # every bag-confined vertex a pendant bag elsewhere
            listed = [(0, 0, -1)] if ahead else []
            listed += _forgets(ctx, bag, ahead)
            if not listed:
                continue
            free = [code for code, xl, pred
                    in _pw_lowers(ctx, table, below, bag, apex)
                    if not xl and pred <= base]
            packed = _pack([(slot, base + (xr or all(
                _tight(inside, bag, code, forgotten) for code in free)))
                for slot, xr, forgotten in listed])
            uppers = len(listed)
        states += lowers * uppers
        table[(below << k) | bag] = packed
        slots += uppers
    if stats is not None:
        stats["valid_triples"] = len(triples)
        stats["states"] = states
        stats["peak_table"] = slots
    return table


def _state_chain(ctx, table, apex_pos):
    """Back-walk the table from the apex-forgetting final state.

    Returns the optimal state chain bottom-up as tuples
    (lower code, below, bag, upper slot). Ties go to the lowest lower code,
    i.e. the lowest encoded state key.
    """
    full = ctx.full
    inside = ctx.inside
    apex = 1 << apex_pos
    below = full ^ apex
    bag = apex
    slot = apex_pos + 1
    val = final_value(ctx, table, apex_pos)
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


def reconstruct_path(g, ctx, table, apex, width):
    """Expand the optimal state chain into a path decomposition of g.

    Every state contributes a run of bags: first bag with the lower-op
    boundary vertices, one pendant bag per not-yet-placed confined vertex,
    last bag with the upper-op boundary vertices. The apex is stripped and
    the path contracted; the result is validated against g before being
    returned.
    """
    bags = []
    placed = set()
    for code, below, bag, slot in _state_chain(ctx, table,
                                               ctx.position[apex]):
        lower = (below, 1 << code) if code < 32 else None
        core, first, last = state_bags(ctx, below, bag, lower, slot - 1)
        # as in _tight, `bag` stands for "no condition"
        confined = ctx.touching_vertices(
            bag, 1 << code if code < 32 else bag,
            1 << (slot - 1) if slot else bag)
        bags.append(first)
        for x in sorted(set(confined) - placed):
            bags.append(core | {x})
            placed.add(x)
        bags.append(last)
    bags = [b - {apex} for b in bags]
    dec = contract(bags, [(i, i + 1) for i in range(len(bags) - 1)], "path")
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
    ctx, apex = apex_context(g, cover, stats)
    apex_pos = ctx.position[apex]
    table = partial_width_table(ctx, stats, apex_pos=apex_pos)
    width = final_value(ctx, table, apex_pos) - 1
    return width, reconstruct_path(g, ctx, table, apex, width)
