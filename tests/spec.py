"""Reference (spec) code for the cover DP, kept out of the package.

The literal operation/state model of the paper's DP and its boundary sets
as actual vertex sets, and the nice-decomposition construction with node
traces. The solvers use none of this: they enumerate component unions and
read every boundary count from a zeta table. The tests check the solvers'
fast paths against these literal definitions.
"""

import sys
from collections import namedtuple

from vcwidth.decomposition import Decomposition
from vcwidth.states import iter_bits


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
