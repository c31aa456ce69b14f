"""Reference (spec) code for the cover DP, kept out of the package.

The literal operation/state model of the paper's DP and its boundary sets
as actual vertex sets, and the nice-decomposition construction with node
traces. The solvers use none of this: they enumerate component unions and
read every boundary count from a zeta table. The tests check the solvers'
fast paths against these literal definitions.
"""

import sys
from collections import deque, namedtuple

from genutil import add_universal_vertex
from vcwidth.decomposition import Decomposition
from vcwidth.states import _NO_LOWER, iter_bits, touching


OpTag = namedtuple("OpTag", ["kind", "arg"])

JOIN = OpTag("join", None)


def introduce(v):
    return OpTag("introduce", v)


def forget(v):
    return OpTag("forget", v)


def join_with_part(part_mask):
    return OpTag("join", part_mask)


# A full DP state: masks for the triple, op tags for lower/upper.
# lower is None for degenerate (base) treewidth states.
State = namedtuple("State", ["lower", "below", "bag", "ahead", "upper"])


def is_valid_triple(cov_adj, below, bag, ahead):
    """True iff the masks partition the cover and no below-ahead edge exists.

    `cov_adj` is the cover-internal adjacency: cov_adj[i] = mask of cover
    positions adjacent to position i.
    """
    k = len(cov_adj)
    full = (1 << k) - 1
    if below | bag | ahead != full:
        return False
    if below & bag or below & ahead or bag & ahead:
        return False
    return all(not cov_adj[i] & ahead for i in iter_bits(below))


def precedes(t1, t2):
    """The predecessor partial order on triples (reflexive)."""
    l1, x1 = t1
    l2, x2 = t2
    return l1 | l2 == l2 and (l1 | x1) | (l2 | x2) == l2 | x2


def tw_lower_ops(cov_adj, below, bag, ahead):
    """Valid lower ops of a treewidth state on this triple.

    Join parts are enumerated literally over submasks of `below` holding the
    lowest bit, keeping those with no edge to the rest of `below`. The
    solvers enumerate component unions instead; both are cross-checked in
    tests. Degenerate bases are not ops and are not listed here.
    """
    ops = []
    for u in iter_bits(bag):
        if not cov_adj[u] & below:
            ops.append(introduce(u))
    for u in iter_bits(below):
        ops.append(forget(u))
    if below and below & (below - 1):  # at least two bits
        lowbit = below & -below
        parts = []
        m = below
        while m:
            if m & lowbit and m != below:
                rest = below & ~m
                if all(not cov_adj[i] & rest for i in iter_bits(m)):
                    parts.append(m)
            m = (m - 1) & below
        for part in sorted(parts):
            ops.append(join_with_part(part))
    return ops


def tw_upper_ops(cov_adj, below, bag, ahead):
    """Valid upper ops of a treewidth state on this triple.

    The join check is the literal one: some nonempty part of `ahead` with no
    edge to the rest of `ahead` or to `below`. (Taking the whole of `ahead`
    always satisfies it, so this is equivalent to `ahead` being nonempty;
    the solvers rely on that.)
    """
    ops = [introduce(v) for v in iter_bits(ahead)]
    for v in iter_bits(bag):
        if not cov_adj[v] & ahead:
            ops.append(forget(v))
    m = ahead
    while m:
        rest = (ahead & ~m) | below
        if all(not cov_adj[i] & rest for i in iter_bits(m)):
            ops.append(JOIN)
            break
        m = (m - 1) & ahead
    return ops


def pw_ops(cov_adj, below, bag, ahead):
    """(lower ops, upper ops) of a pathwidth state; no joins in either."""
    lowers = []
    for u in iter_bits(bag):
        if not cov_adj[u] & below:
            lowers.append(introduce(u))
    for u in iter_bits(below):
        lowers.append(forget(u))
    uppers = [introduce(v) for v in iter_bits(ahead)]
    for v in iter_bits(bag):
        if not cov_adj[v] & ahead:
            uppers.append(forget(v))
    return lowers, uppers


def _mask_to_set(mask, order):
    return {order[i] for i in iter_bits(mask)}


def boundary_sets_tw(g, cover_order, state):
    """Boundary sets of a treewidth state, as actual vertex sets.

    Returns (crossing, lower_extra, upper_extra, confined, tight):
      crossing     independent vertices with neighbors both below and ahead
                   (they sit in every bag of this state),
      lower_extra  extra content of the state's first bag (depends on the
                   lower op),
      upper_extra  extra content of the state's last bag (forget uppers only),
      confined     independent vertices whose whole neighborhood is inside
                   the bag (they get a private pendant bag),
      tight        1 if some independent vertex needs a full private bag
                   (treewidth: its neighborhood is exactly the bag), else 0.
    """
    below = _mask_to_set(state.below, cover_order)
    bag = _mask_to_set(state.bag, cover_order)
    ahead = _mask_to_set(state.ahead, cover_order)
    cover = set(cover_order)
    crossing, confined = set(), set()
    tight = 0
    lower_extra, upper_extra = set(), set()
    low, up = state.lower, state.upper
    for x in range(g.n):
        if x in cover:
            continue
        nb = g.adj[x]
        hits_below = bool(nb & below)
        hits_ahead = bool(nb & ahead)
        if hits_below and hits_ahead:
            crossing.add(x)
        if not hits_below and not hits_ahead:
            confined.add(x)
            if nb == frozenset(bag):
                tight = 1
        if low is not None and hits_below and not hits_ahead:
            if low.kind == "introduce" and cover_order[low.arg] in nb:
                lower_extra.add(x)
            elif low.kind == "join":
                part = _mask_to_set(low.arg, cover_order)
                other = below - part
                if nb & part and nb & other:
                    lower_extra.add(x)
        if up.kind == "forget" and not hits_below and hits_ahead:
            if cover_order[up.arg] in nb:
                upper_extra.add(x)
    return crossing, lower_extra, upper_extra, confined, tight


def boundary_sets_pw(g, cover_order, state):
    """Boundary sets of a pathwidth state, as actual vertex sets.

    Same shape as boundary_sets_tw, but `confined` only keeps vertices whose
    pendant bag could not live in a neighboring state instead: with an
    introduce(u) lower the vertex must see u, with a forget(v) upper it must
    see v. `tight` is 1 iff `confined` is nonempty.
    """
    below = _mask_to_set(state.below, cover_order)
    bag = _mask_to_set(state.bag, cover_order)
    ahead = _mask_to_set(state.ahead, cover_order)
    cover = set(cover_order)
    crossing, confined = set(), set()
    lower_extra, upper_extra = set(), set()
    low, up = state.lower, state.upper
    for x in range(g.n):
        if x in cover:
            continue
        nb = g.adj[x]
        hits_below = bool(nb & below)
        hits_ahead = bool(nb & ahead)
        if hits_below and hits_ahead:
            crossing.add(x)
        if not hits_below and not hits_ahead:
            needed = True
            if low is not None and low.kind == "introduce" \
                    and cover_order[low.arg] not in nb:
                needed = False  # pendant bag fits in the predecessor state
            if up.kind == "forget" and cover_order[up.arg] not in nb:
                needed = False  # pendant bag fits in the successor state
            if needed:
                confined.add(x)
        if hits_below and not hits_ahead:
            if low is not None and low.kind == "introduce" \
                    and cover_order[low.arg] in nb:
                lower_extra.add(x)
        if not hits_below and hits_ahead:
            if up.kind == "forget" and cover_order[up.arg] in nb:
                upper_extra.add(x)
    return crossing, lower_extra, upper_extra, confined, (1 if confined else 0)


def local_width_tw(bag_size, crossing, lower_extra, upper_extra, tight):
    """Largest bag this treewidth state forces, minus one (all args counts)."""
    return bag_size + max(crossing + lower_extra, crossing + upper_extra, tight) - 1


def local_width_pw(bag_size, crossing, lower_extra, upper_extra, tight):
    """Largest bag this pathwidth state forces, minus one (all args counts)."""
    return bag_size + crossing + max(lower_extra, upper_extra, tight) - 1


class NiceNode:
    __slots__ = ("kind", "vertex", "bag", "children", "parent")

    def __init__(self, kind, vertex, bag, children):
        self.kind = kind        # "leaf" | "introduce" | "forget" | "join"
        self.vertex = vertex    # introduced/forgotten vertex, else None
        self.bag = frozenset(bag)
        self.children = children
        self.parent = None

    def __repr__(self):
        v = "" if self.vertex is None else f" v={self.vertex}"
        return f"NiceNode({self.kind}{v}, bag={sorted(self.bag)})"


class NiceDecomposition:
    """Rooted decomposition where every node is leaf/introduce/forget/join.

    Leaf bags and the root bag have exactly one vertex; an introduce/forget
    node differs from its single child by one vertex; a join node has two
    children with bags equal to its own.
    """

    __slots__ = ("nodes", "root")

    def __init__(self, nodes, root):
        self.nodes = nodes
        self.root = root
        for i, node in enumerate(nodes):
            for c in node.children:
                nodes[c].parent = i

    @property
    def width(self):
        if not self.nodes:
            return -1
        return max(len(nd.bag) for nd in self.nodes) - 1

    def postorder(self):
        if self.root is None:
            return
        stack = [(self.root, False)]
        while stack:
            i, expanded = stack.pop()
            if expanded:
                yield i
            else:
                stack.append((i, True))
                for c in reversed(self.nodes[i].children):
                    stack.append((c, False))

    def as_decomposition(self, kind=None):
        if kind is None:
            kind = "tree" if any(nd.kind == "join" for nd in self.nodes) else "path"
        edges = [(i, c) for i, nd in enumerate(self.nodes) for c in nd.children]
        return Decomposition([nd.bag for nd in self.nodes], edges, kind=kind)


def _chain(nodes, top, have, want):
    """Append forget/introduce nodes taking bag `have` to bag `want`."""
    for v in sorted(have - want):
        have = have - {v}
        nodes.append(NiceNode("forget", v, have, [top]))
        top = len(nodes) - 1
    for v in sorted(want - have):
        have = have | {v}
        nodes.append(NiceNode("introduce", v, have, [top]))
        top = len(nodes) - 1
    return top


def make_nice(g, dec):
    """Turn a valid decomposition of `g` into an equivalent nice one.

    The width never increases. Multi-way branchings become balanced-left
    chains of binary joins (children combined in ascending node-id order);
    path decompositions produce join-free chains (rooted at an endpoint).
    """
    bags = dec.bags
    keep = [i for i, b in enumerate(bags) if b]
    if not keep:
        return NiceDecomposition([], None)

    # contract empty bags: route around them while building the rooted tree
    nbr = dec.neighbors()
    if dec.kind == "path":
        ends = [i for i in keep
                if sum(1 for j in nbr[i] if bags[j]) <= 1]
        root = min(ends) if ends else keep[0]
    else:
        root = keep[0]

    nodes = []

    def build(i, parent):
        """Nice subtree for input node i; returns top index with bag bags[i]."""
        child_tops = []
        stack = [(i, parent)]
        order = []
        while stack:  # collect non-empty descendants reachable through empties
            cur, par = stack.pop()
            for j in nbr[cur]:
                if j == par:
                    continue
                if bags[j]:
                    order.append((j, cur))
                else:
                    stack.append((j, cur))
        for j, pj in sorted(order):
            child_tops.append(_adapt(build(j, pj), bags[j], bags[i]))
        if not child_tops:
            vs = sorted(bags[i])
            nodes.append(NiceNode("leaf", None, {vs[0]}, []))
            top = len(nodes) - 1
            have = {vs[0]}
            for v in vs[1:]:
                have.add(v)
                nodes.append(NiceNode("introduce", v, set(have), [top]))
                top = len(nodes) - 1
            return top
        top = child_tops[0]
        for other in child_tops[1:]:
            nodes.append(NiceNode("join", None, bags[i], [top, other]))
            top = len(nodes) - 1
        return top

    def _adapt(top, have, want):
        return _chain(nodes, top, frozenset(have), frozenset(want))

    # recursion is fine for desk-scale inputs, but keep an explicit guard
    if len(bags) * 2 + 100 > sys.getrecursionlimit():
        sys.setrecursionlimit(len(bags) * 2 + 100)

    top = build(root, -1)
    rbag = frozenset(bags[root])
    keep_v = min(rbag)
    for v in sorted(rbag - {keep_v}):
        rbag = rbag - {v}
        nodes.append(NiceNode("forget", v, rbag, [top]))
        top = len(nodes) - 1
    return NiceDecomposition(nodes, top)


def trace_of_node(nd, i, cover):
    """Split `cover` by position relative to node i of a nice decomposition.

    Returns (below, here, ahead): cover vertices forgotten strictly below i,
    in the bag of i, and everything else (not seen yet from i's viewpoint).
    """
    cover = frozenset(cover)
    below_union = set()
    stack = [i]
    while stack:
        j = stack.pop()
        below_union |= nd.nodes[j].bag
        stack.extend(nd.nodes[j].children)
    here = nd.nodes[i].bag & cover
    below = (below_union & cover) - here
    ahead = cover - here - below
    return frozenset(below), frozenset(here), frozenset(ahead)


def rooted_pw_by_recurrence(g, order):
    """The complement-cover solver's rooted table by its recurrence, one
    mask at a time: rooted[L] = max(|N(L) \\ L|, min over u in L of
    rooted[L minus u]), rooted[empty] = 0, with L over the positions of
    `order`."""
    k = len(order)
    adj = [sum(1 << u for u in g.adj[v]) for v in order]
    rooted = [0] * (1 << k)
    for mask in range(1, 1 << k):
        members = union = 0
        for i in iter_bits(mask):
            members |= 1 << order[i]
            union |= adj[i]
        rooted[mask] = max((union & ~members).bit_count(),
                           min(rooted[mask ^ (1 << i)]
                               for i in iter_bits(mask)))
    return rooted


def glue_by_scan(g, order, rooted):
    """(width, L) of the complement-cover glue by a scan over every L in
    increasing order, keeping a candidate only when it is strictly better:
    width max(rooted[L], rooted[R], |S| - 1 + |N(L) in C|), where R is the
    cover minus N[L] and S the vertices outside the cover."""
    k = len(order)
    pos = {v: i for i, v in enumerate(order)}
    cov = [sum(1 << pos[u] for u in g.adj[v] if u in pos) for v in order]
    full = (1 << k) - 1
    s_width = g.n - k - 1
    best = None
    for l_mask in range(1 << k):
        cn = 0
        for i in iter_bits(l_mask):
            cn |= cov[i]
        cn &= ~l_mask
        cand = max(rooted[l_mask], rooted[full ^ (l_mask | cn)],
                   s_width + cn.bit_count())
        if best is None or cand < best[0]:
            best = (cand, l_mask)
    return best


# Packed tables: one int per triple, keyed (below << k) | bag, with one
# byte per upper slot. Byte slot 0 holds the best value over introduce
# uppers (it does not depend on which vertex) and slot u+1 the best value
# for forget(u); tw_packed_slots adds slot k+1 for the join upper. A zero
# byte means unreachable; otherwise the byte stores min(value, 254) + 1.
# Every optimum is at most k <= 26, so a saturated state never wins. The
# solvers store one value per triple instead; pw_packed_slots and
# tw_packed_slots expand their tables into this form.

def _read(table, k, below, bag, slot):
    pv = (table.get((below << k) | bag, 0) >> (8 * slot)) & 255
    return pv - 1 if pv else None


def _lowers(ctx, table, below, bag):
    """Non-join lower candidates of a packed table as (code, xl, pred),
    ascending code order: introduce(u) has code u, forget(u) code 32+u.
    Unreachable predecessors are dropped."""
    k = ctx.k
    cov_adj = ctx.cov_adj
    inside = ctx.inside
    below_bag = below | bag
    extra = inside[below_bag] - inside[bag]
    key = below << k
    out = []
    m = bag
    while m:
        bit = m & -m
        m ^= bit
        u = bit.bit_length() - 1
        if cov_adj[u] & below:
            continue
        pv = table.get(key | (bag ^ bit), 0) & 255
        if pv:  # xl = touching(inside, below | bag, below, bit)
            out.append((u, extra - inside[below_bag ^ bit] + inside[bag ^ bit],
                        pv - 1))
    m = below
    while m:
        bit = m & -m
        m ^= bit
        u = bit.bit_length() - 1
        packed = table.get(((below ^ bit) << k) | bag | bit, 0)
        pv = (packed >> (8 * u + 8)) & 255
        if pv:
            out.append((32 + u, 0, pv - 1))
    return out


def _best_lower(ctx, get, below, bag, base):
    """(min over the reachable non-join lowers of max(pred, base + xl),
    their count): _lowers folded into one value, reading a packed table
    through its `get`. The value is _NO_LOWER when the count is 0."""
    k = ctx.k
    cov_adj = ctx.cov_adj
    inside = ctx.inside
    below_bag = below | bag
    extra = base + inside[below_bag] - inside[bag]
    key = below << k
    best = _NO_LOWER
    count = 0
    m = bag
    while m:
        bit = m & -m
        m ^= bit
        if cov_adj[bit.bit_length() - 1] & below:
            continue
        pv = get(key | (bag ^ bit), 0) & 255
        if pv:
            count += 1
            val = extra - inside[below_bag ^ bit] + inside[bag ^ bit]
            if pv > val:
                val = pv - 1
            if val < best:
                best = val
    m = below
    while m:
        bit = m & -m
        m ^= bit
        pv = (get(((below ^ bit) << k) | bag | bit, 0)
              >> (8 * bit.bit_length())) & 255
        if pv:  # a forget lower has xl = 0
            count += 1
            val = pv - 1 if pv > base else base
            if val < best:
                best = val
    return best, count


def _packed_forgets(ctx, bag, ahead, floor, base):
    """(packed forget upper slots, their count): slot v+1 holds
    max(floor, base + xr) of each valid forget(v), stored as the packed
    tables store values."""
    cov_adj = ctx.cov_adj
    inside = ctx.inside
    bag_ahead = bag | ahead
    extra = base + inside[bag_ahead] - inside[bag]
    packed = 0
    count = 0
    m = bag
    while m:
        bit = m & -m
        m ^= bit
        v = bit.bit_length()
        if not cov_adj[v - 1] & ahead:
            count += 1
            val = extra - inside[bag_ahead ^ bit] + inside[bag ^ bit]
            if val < floor:
                val = floor
            packed |= (val if val < 254 else 254) + 1 << (8 * v)
    return packed, count


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


def _pack(values):
    """Packed int of a list of (slot, value) pairs, as the packed tables
    store them."""
    packed = 0
    for slot, val in values:
        packed |= (min(val, 254) + 1) << (8 * slot)
    return packed


def _forgets(ctx, bag, ahead):
    """Forget upper candidates as (slot, xr, v), ascending v."""
    cov_adj = ctx.cov_adj
    inside = ctx.inside
    bag_ahead = bag | ahead
    extra = inside[bag_ahead] - inside[bag]
    out = []
    m = bag
    while m:
        bit = m & -m
        m ^= bit
        v = bit.bit_length() - 1
        if not cov_adj[v] & ahead:  # xr = touching(inside, bag | ahead, ahead, bit)
            out.append((v + 1, extra - inside[bag_ahead ^ bit]
                        + inside[bag ^ bit], v))
    return out


def tw_packed_slots(ctx, table, apex_pos, limit):
    """A treewidth table of one value V per triple, expanded into packed
    upper slots (see _read): slot 0 the introduce upper, slot u+1
    forget(u), slot k+1 the join upper.

    The introduce and join slots are V. The forget(u) slot is max(V, the
    cross of the successor (below + u, bag - u) plus 1), where cross is
    |bag| - 1 plus the crossing count. A degenerate triple (nothing below)
    has forget slots only; its V is computed, not read: |bag| - 1, plus 1
    if some vertex's neighborhood is exactly the bag, and it is kept when
    that is at most `limit`, as the sweep keeps a stored triple.
    """
    k = ctx.k
    full = ctx.full
    out = {}
    for below, bag in ctx.valid_triples(require_bit=apex_pos):
        ahead = full & ~(below | bag)
        key = (below << k) | bag
        if below:
            val = table.get(key)
            if val is None:
                continue
            slots = [(0, val), (k + 1, val)] if ahead else []
        else:
            val = bag.bit_count() - 1 + (bag in ctx.type_masks)
            if val > limit:
                continue
            slots = []
        for slot, _, v in _forgets(ctx, bag, ahead):
            cross = (bag.bit_count() - 2
                     + touching(ctx.inside, full, below | 1 << v, ahead))
            slots.append((slot, max(val, cross + 1)))
        if slots:
            out[key] = _pack(slots)
    return out


def pw_packed_slots(ctx, table):
    """A pathwidth table of V and flag bits per triple, expanded into
    packed upper slots (see _read): slot 0 the introduce upper, slot u+1
    forget(u).

    The introduce slot is V, and the forget(u) slot max(V, the base of the
    successor (below + u, bag - u) plus 1), where base is |bag| - 1 plus the
    crossing count; each slot adds its flag, bit 8 for slot 0 and bit u+9
    for slot u+1. V is the entry's low byte.
    """
    k = ctx.k
    full = ctx.full
    out = {}
    for key, entry in table.items():
        below, bag = key >> k, key & full
        ahead = full & ~(below | bag)
        val = entry & 255
        slots = [(0, val + (entry >> 8 & 1))] if ahead else []
        for slot, _, v in _forgets(ctx, bag, ahead):
            after = (bag.bit_count() - 1
                     + touching(ctx.inside, full, below | 1 << v, ahead))
            slots.append((slot, max(val, after) + (entry >> (v + 9) & 1)))
        out[key] = _pack(slots)
    return out


def pw_packed_glue(ctx, table, apex_pos, limit):
    """(pw + 1, meet) of a packed half table, glued at the balanced state
    as pathwidth._glue glues its own table: the first strict minimum over
    the table's keys, the introduce upper before the forget uppers, each
    by ascending vertex. None if no path is within `limit`."""
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


def explicit_graph(ctx):
    """The graph a context's cover order names: ctx.graph, plus the apex
    as a real vertex when the context only implies it (cover id g.n)."""
    g = ctx.graph
    return add_universal_vertex(g)[0] if g.n in ctx.position else g


def tw_table_by_states(ctx, apex_pos):
    """The treewidth DP over literal states, as packed upper slots like
    tw_packed_slots' with no bound.

    Every state (lower op, below, bag, ahead, upper op) of an apex triple
    is built from tw_lower_ops and tw_upper_ops, its local width from
    boundary_sets_tw, and its value is the max of that and its
    predecessors' values: the introduce or forget slot of the predecessor
    triple, or the larger join slot of the two join children. A triple
    with nothing below also has the degenerate state, with no lower op and
    a forget upper, worth its local width. A slot is the min over the
    lower ops reaching it.
    """
    k = ctx.k
    g, order = explicit_graph(ctx), ctx.order
    slots = {}  # (below, bag, slot) -> value
    out = {}
    for below, bag in ctx.valid_triples(require_bit=apex_pos):
        ahead = ctx.full & ~(below | bag)
        lowers = tw_lower_ops(ctx.cov_adj, below, bag, ahead)
        if not below:
            lowers.append(None)
        values = {}
        for up in tw_upper_ops(ctx.cov_adj, below, bag, ahead):
            slot = (0 if up.kind == "introduce" else k + 1
                    if up.kind == "join" else up.arg + 1)
            for low in lowers:
                if low is None:
                    if up.kind != "forget":
                        continue
                    pred = 0
                elif low.kind == "introduce":
                    pred = slots.get((below, bag ^ 1 << low.arg, 0))
                elif low.kind == "forget":
                    u = low.arg
                    pred = slots.get((below ^ 1 << u, bag | 1 << u, u + 1))
                else:
                    kids = [slots.get((part, bag, k + 1))
                            for part in (low.arg, below ^ low.arg)]
                    pred = None if None in kids else max(kids)
                if pred is None:
                    continue
                crossing, xl, xr, _, tight = boundary_sets_tw(
                    g, order, State(low, below, bag, ahead, up))
                val = max(pred, local_width_tw(bag.bit_count(), len(crossing),
                                               len(xl), len(xr), tight))
                if val < values.get(slot, val + 1):
                    values[slot] = val
        for slot, val in values.items():
            slots[(below, bag, slot)] = val
        if values:
            out[(below << k) | bag] = _pack(values.items())
    return out


def final_value(ctx, table, apex_pos):
    """Value of the final state of a packed table: everything but the apex
    below, the apex alone in the bag and forgotten next. The width is one
    less."""
    val = _read(table, ctx.k, ctx.full ^ (1 << apex_pos), 1 << apex_pos,
                apex_pos + 1)
    assert val is not None, "the DP finished without a final state"
    return val


def pw_apex_sweep_table(ctx, stats=None, *, apex_pos, half=False,
                        limit=None):
    """The pathwidth DP over every apex triple, |below| > |ahead| included:
    the packed table whose final state (everything but the apex below, the
    apex alone in the bag, forgotten next) holds pw + 1. The solver sweeps
    the half with |below| <= |ahead| and glues; its table, expanded by
    pw_packed_slots, must equal this one on every key it holds, and its
    glued value this final value.

    With `half`, only that half is swept, and with a `limit` a triple is
    kept only if its best lower is within it, as the solver keeps one;
    every rank is swept, with no stop.
    """
    k = ctx.k
    full = ctx.full
    inside = ctx.inside
    apex = 1 << apex_pos
    if limit is None:
        limit = 1 << 30
    table = {}
    get = table.get
    triples = ctx.valid_triples(require_bit=apex_pos, half=half)
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
        if m1 > limit:
            continue
        if m1 > base or not inside[bag]:
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


def find_violations_by_scan(g, dec):
    """decomposition.find_violations as it was before subtree roots: an
    occurrence list for every vertex, each edge looked up in the bags of an
    endpoint, and a BFS over the bags of every vertex in more than one. The
    messages and their order are the contract the fast version keeps."""
    out = []
    nbags = len(dec.bags)

    for idx, bag in enumerate(dec.bags):
        for v in bag:
            if not (0 <= v < g.n):
                out.append(f"bag {idx} contains unknown vertex {v}")

    edge_set = set()
    for i, j in dec.edges:
        if i == j:
            out.append(f"bag edge ({i},{i}) is a self-loop")
        elif (i, j) in edge_set:
            out.append(f"duplicate bag edge ({i},{j})")
        edge_set.add((i, j))
    is_tree = True
    if nbags > 0:
        if len(dec.edges) != nbags - 1:
            out.append(f"bag graph has {len(dec.edges)} edges, "
                       f"a tree on {nbags} bags needs {nbags - 1}")
            is_tree = False
        nbr = dec.neighbors()
        seen = {0}
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for j in nbr[i]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        if len(seen) != nbags:
            out.append(f"bag graph is disconnected "
                       f"({len(seen)} of {nbags} bags reachable from bag 0)")
            is_tree = False
        if dec.kind == "path" and is_tree and any(len(x) > 2 for x in nbr):
            bad = next(i for i, x in enumerate(nbr) if len(x) > 2)
            out.append(f"path decomposition has branching bag {bad}")

    occurs = [[] for _ in range(g.n)]
    for idx, bag in enumerate(dec.bags):
        for v in bag:
            if 0 <= v < g.n:
                occurs[v].append(idx)
    for v in range(g.n):
        if not occurs[v]:
            out.append(f"vertex {v} appears in no bag")

    bags = dec.bags
    missed = []
    for u, v in g.edges:
        a, b = (u, v) if len(occurs[u]) <= len(occurs[v]) else (v, u)
        if not any(b in bags[i] for i in occurs[a]):
            missed.append((u, v))
    out += [f"edge ({u},{v}) is contained in no bag"
            for u, v in sorted(missed)]

    if is_tree and nbags > 0:
        for v in range(g.n):
            nodes = occurs[v]
            if len(nodes) <= 1:
                continue
            allowed = set(nodes)
            seen = {nodes[0]}
            queue = deque([nodes[0]])
            while queue:
                i = queue.popleft()
                for j in nbr[i]:
                    if j in allowed and j not in seen:
                        seen.add(j)
                        queue.append(j)
            if len(seen) != len(allowed):
                out.append(f"bags containing vertex {v} are disconnected "
                           f"({len(seen)} of {len(allowed)} connected)")
    return out
