"""DP state space over a vertex cover.

Fix a vertex cover C of the (apexed) graph and order it; subsets of C are
bitmasks over cover positions. A *triple* (below, bag, ahead) — in formulas
(L, X, R) — partitions C into the cover vertices already forgotten, those in
the current bag, and those not introduced yet. A triple is valid iff no graph
edge runs between `below` and `ahead`: such an edge could never be covered by
a bag once one endpoint is forgotten before the other appears.

A *state* decorates a valid triple with the operation that created the
current bag from its predecessor (lower op) and the operation applied to it
next (upper op). Operations:

  introduce(u)   u enters the bag   (lower: u in X, N(u) disjoint from L;
                                     upper: u in R)
  forget(u)      u leaves the bag   (lower: u in L;
                                     upper: u in X, N(u) disjoint from R)
  join           two partial solutions over parts of `below` are glued
                 (lower carries the part L1; upper is parameterless)

Degenerate treewidth states have below == 0, no lower op, and a forget upper
op; they are the base cases of the treewidth recurrence, computed where they
are read. Pathwidth's triples with below == 0 are computed where they are
read too, by a closed form (pathwidth.py); among them is the pathwidth base,
the introduce-lower state with the apex alone in the bag.

Triples are enumerated by rank, the size of `below`: the sweep asks for
one rank at a time, in ascending order, and stops asking once no higher rank
can hold a state (no_rank_left), so the ranks it never reaches are never
built. Within a rank each `below`'s bags come in ascending order, with no
sort; that order linearly extends the predecessor relation, so one sweep
over triples in this order sees every predecessor before its successors.
The sweep never builds states or op tags: it keeps one value per triple,
its best lower candidate, and every upper slot is derived from it
(pathwidth adds a flag bit per slot that a pendant bag raises by one); the
tests check it against the literal model in tests/spec.py.

One sweep body, `sweep`, serves pw-vc, tw-vc-4k and tw-vc-3k, with one
lower kernel, best_lower. A solver passes only what differs: its rank-0
reader (pathwidth's closed form, or treewidth's degenerate floor), its
finishing step for a value at its base (pathwidth's flags, or treewidth's
floor and limit), `half` for pathwidth, and for treewidth a join provider
(bipartitions of `below`, or subset-convolution minima).
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .convolution import SetFunction, zeta
from .cover import is_vertex_cover, minimum_vertex_cover
from .errors import InputError, ResourceLimitError

# Largest cover the solvers take; the apex makes it 26 cover positions.
MAX_COVER = 25


def iter_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def components_outside(cov_adj, verts):
    """Connected components (as masks) of the cover graph induced on `verts`."""
    comps = []
    rem = verts
    while rem:
        comp = frontier = rem & -rem
        while frontier:
            grow = 0
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                grow |= cov_adj[bit.bit_length() - 1]
            frontier = grow & rem & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def _or_table(adj):
    """or[S]: the union of adj[i] over the bits i of S."""
    out = [0] * (1 << len(adj))
    for s in range(1, len(out)):
        low = s & -s
        out[s] = out[s ^ low] | adj[low.bit_length() - 1]
    return out


def enumerate_valid_triples(cov_adj, require_bit=None, half=False, rank=None):
    """The valid triples with |below| = `rank` as (below, bag) mask pairs,
    or, with no rank, those of every rank in ascending rank order.

    ahead is implied. A triple is valid iff every cover neighbor of `below`
    outside it is in the bag, so the bags of one `below` L are need | Y with
    need = N(L) - L and Y any subset of the rest. The belows of one rank
    come in lexicographic order of their positions, each L's bags in
    ascending order of Y. Swept rank by rank, that linearly extends the
    predecessor relation: forget and join predecessors have a smaller
    `below`, an introduce predecessor a smaller bag under the same one.
    If `require_bit` is given, only bags containing that position are
    produced (used with the apex position: the solvers never need the other
    states).

    With `half`, only the triples with |below| <= |ahead| are produced: the
    bags need | Y with |need | Y| <= k - 2|L|. An introduce predecessor has
    a larger ahead and a forget predecessor a smaller below, so the set is
    closed under predecessors.
    """
    k = len(cov_adj)
    if rank is None:
        out = []
        for r in range(k + 1):
            out += enumerate_valid_triples(cov_adj, require_bit, half, r)
        return out
    full = (1 << k) - 1
    req = 0 if require_bit is None else 1 << require_bit
    if half and 2 * rank + req.bit_count() > k:
        return []
    h = k // 2
    low, high = _or_table(cov_adj[:h]), _or_table(cov_adj[h:])
    low_mask = (1 << h) - 1
    bits = [1 << i for i in range(k) if i != require_bit]
    out = []
    for below in map(sum, combinations(bits, rank)):
        need = ((low[below & low_mask] | high[below >> h]) & ~below) | req
        m = full & ~(below | need)
        room = k - 2 * rank - need.bit_count() if half else k
        if room < 0:
            continue
        ys = [0]
        while m:
            bit = m & -m
            m ^= bit
            ys += [y | bit for y in ys if y.bit_count() < room]
        out += [(below, need | y) for y in ys]
    return out


def no_rank_left(stored, joins):
    """Whether no triple of rank r = len(stored) or above can be stored,
    given stored[i], the number of triples a sweep stored at rank i.

    A state of rank r has a forget predecessor of rank r - 1, an introduce
    predecessor of rank r, or (with `joins`) two children of ranks a + b =
    r, a, b >= 1, one of them of rank ceil(r/2) or more. An introduce chain
    starts at one of the others, so once ranks ceil(r/2) .. r - 1 (r - 1
    alone without joins, and for r = 1) store nothing, neither does rank r,
    and by the same argument no rank above it.
    """
    r = len(stored)
    lowest = min((r + 1) // 2, r - 1) if joins else r - 1
    return r > 0 and not any(stored[lowest:])


class CoverContext:
    """Precomputed bitmask data for one (graph, ordered cover) pair.

    Shared by the solvers: cover-internal adjacency masks, independent-side
    vertices grouped by their cover-neighborhood mask (with multiplicity:
    the DP only needs counts, the witness builders need the vertex lists).
    A cover id g.n stands for an apex outside g adjacent to all of it: the
    last position, whose bit is in every other vertex's mask.
    """

    def __init__(self, g, cover):
        self.graph = g
        self.order = sorted(cover)
        self.k = len(self.order)
        self.position = {v: i for i, v in enumerate(self.order)}
        self.full = (1 << self.k) - 1
        self.apex = apex = 1 << (self.k - 1) if g.n in self.position else 0
        self.cov_adj = [apex] * self.k
        for i, v in enumerate(self.order):
            if v == g.n:
                self.cov_adj[i] = self.full ^ apex
                continue
            for u in g.adj[v]:
                if u in self.position:
                    self.cov_adj[i] |= 1 << self.position[u]
        self.rest = [x for x in range(g.n) if x not in self.position]
        by_mask = {}
        for x in self.rest:
            m = apex
            for u in g.adj[x]:
                m |= 1 << self.position[u]
            by_mask.setdefault(m, []).append(x)
        self.type_vertices = by_mask
        self.types = sorted((m, len(vs)) for m, vs in by_mask.items())
        self.type_masks = set(by_mask)

    @cached_property
    def inside(self):
        """inside[S]: independent-side vertices whose neighborhood lies in S.

        The subset zeta transform of the type counts, built on first use; it
        turns every boundary count of the sweeps into an O(1) `touching`.
        Every type holds the implicit apex, if there is one, so a set without
        it holds none: only the half with the apex is transformed, over the
        other positions, and the lower half is zeros.
        """
        low = self.apex
        cnt = [0] * ((1 << self.k) - low)
        for m, c in self.types:
            cnt[m - low] = c
        upper = zeta(SetFunction(self.k - (low > 0), cnt)).values
        return [0] * low + upper if low else upper

    def valid_triples(self, require_bit=None, half=False, rank=None):
        return enumerate_valid_triples(self.cov_adj, require_bit, half, rank)

    def expand(self, mask):
        """Cover mask -> set of actual vertex ids."""
        return {self.order[i] for i in iter_bits(mask)}

    def touching_vertices(self, outer, a, b):
        """The independent-side vertices that touching(inside, outer, a, b)
        counts."""
        return [x for m, vs in self.type_vertices.items()
                if not m & ~outer and m & a and m & b for x in vs]


def apex_context(g, cover, stats):
    """(CoverContext, apex) of g plus an implicit apex g.n, for the solvers.

    `cover` is checked if given, else a minimum one is searched within
    MAX_COVER. The apex joins the cover; `stats["cover_size"]` counts the
    cover without it.
    """
    if cover is None:
        cover = minimum_vertex_cover(g, limit=MAX_COVER)
    elif not is_vertex_cover(g, cover):
        raise InputError("provided vertex set is not a vertex cover")
    if cover is None or len(cover) > MAX_COVER:
        size = "" if cover is None else f" of size {len(cover)}"
        raise ResourceLimitError(
            f"cover{size} exceeds the supported maximum of {MAX_COVER}")
    if stats is not None:
        stats["cover_size"] = len(cover)
    return CoverContext(g, set(cover) | {g.n}), g.n


def state_bags(ctx, below, bag, lower, forgotten):
    """(core, first, last) bags of one state of an optimal witness.

    The core is the bag plus the vertices crossing from below to ahead. The
    first bag adds those the lower op joins, touching(below | bag, *lower):
    `lower` is (below, 1 << u) for introduce(u), (part1, part2) for a join
    and None otherwise. The last bag adds those forget(`forgotten`) leaves
    ahead; `forgotten` is -1 under any other upper op.
    """
    ahead = ctx.full & ~(below | bag)
    core = ctx.expand(bag) | set(ctx.touching_vertices(ctx.full, below, ahead))
    first = set(core)
    if lower is not None:
        first.update(ctx.touching_vertices(below | bag, *lower))
    last = set(core)
    if forgotten >= 0:
        last.update(ctx.touching_vertices(bag | ahead, ahead, 1 << forgotten))
    return core, first, last


def touching(inside, outer, a, b):
    """Independent-side vertices with every neighbor in `outer` and at least
    one in `a` and one in `b`, by inclusion-exclusion over `inside`.

    The sweeps' boundary counts are all of this form, for a triple
    (L, X, R): crossing = touching(inside, full, L, R); the extra of an
    introduce(u) lower is touching(inside, L|X, L, u) and that of a
    forget(v) upper touching(inside, X|R, R, v); the straddlers of a join
    split L = P1 + P2 are touching(inside, L|X, P1, P2); and pathwidth's
    pendant-bag test of (introduced i, forgotten f) is
    touching(inside, X, i, f).
    """
    return (inside[outer] - inside[outer & ~a] - inside[outer & ~b]
            + inside[outer & ~(a | b)])


# A best lower candidate when no lower is reachable; above every real value.
_NO_LOWER = 1 << 62


def best_lower(ctx, get, below, bag, base, rank0):
    """(min over the reachable non-join lowers of max(pred, base + xl),
    their count), reading the table through its `get`; _NO_LOWER when the
    count is 0. `below` is not empty: the forget lower of a rank-1 triple
    reads its rank-0 predecessor through `rank0(bag)`, None if it is not
    kept.

    An entry is V, plus pathwidth's flag bits from bit 8 on. An
    introduce(u) lower reads V of (below, bag - u) and never its flag:
    base + xl is that predecessor's base + 1, so the flag, set only when
    its V is its base, cannot raise the candidate. A forget(u) lower has
    xl = 0 and reads the forget(u) slot of (below - u, bag + u), whose
    successor is this triple: max(V, base + 1) plus its flag.
    """
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
        pv = get(key | (bag ^ bit))
        if pv is not None:
            count += 1
            val = extra - inside[below_bag ^ bit] + inside[bag ^ bit]
            pv &= 255
            if pv > val:
                val = pv
            if val < best:
                best = val
    floor = base + 1
    m = below
    while m:
        bit = m & -m
        m ^= bit
        rest = below ^ bit
        if rest:
            pv = get((rest << k) | bag | bit)
        else:
            pv = rank0(bag | bit)
        if pv is not None:
            count += 1
            val = pv & 255
            if val < floor:
                val = floor
            val += pv >> (bit.bit_length() + 8) & 1
            if val < best:
                best = val
    return best, count


def sweep(ctx, apex_pos, stats, *, limit, rank0, finish, half=False,
          joins=None):
    """The cover DP sweep: the table {(below << k) | bag: entry} of the
    triples with the apex in the bag and something below whose value is
    within `limit`, in rank order. pw-vc, tw-vc-4k and tw-vc-3k all run
    it; they differ only in their hooks.

    A triple's base is |bag| - 1 plus its crossing count, and every lower
    candidate is at least base, so a triple with base above the limit is
    skipped before any is read. Its value is the min of best_lower's and,
    with `joins`, of joins(table, below, bag, base), the list of its join
    lowers' candidates. The tight term, 0 or 1, can raise only a value
    equal to base, and only when some vertex is confined to the bag, so
    only such a value goes through `finish(get, below, bag, ahead, base)`,
    which returns the entry to store, or None if it is above the limit.
    Rank-0 triples are computed where they are read (`rank0`), never swept
    or stored; `half` keeps |below| <= |ahead|.

    Ranks are enumerated as the sweep reaches them, and it stops at the
    first rank that can no longer hold a stored triple (no_rank_left).
    `stats` gets the triples enumerated, the lower candidates read for the
    triples stored ("states") and the entries stored.
    """
    k = ctx.k
    full = ctx.full
    inside = ctx.inside
    table = {}
    get = table.get
    triples = states = 0
    stored = [1]  # rank 0: computed where read, never empty
    for rank in range(1, k):
        if no_rank_left(stored, joins is not None):
            break
        ranked = ctx.valid_triples(require_bit=apex_pos, half=half, rank=rank)
        triples += len(ranked)
        kept = len(table)
        for below, bag in ranked:
            ahead = full & ~(below | bag)
            base = bag.bit_count() - 1 + touching(inside, full, below, ahead)
            if base > limit:
                continue
            val, lowers = best_lower(ctx, get, below, bag, base, rank0)
            if joins is not None:
                split = joins(table, below, bag, base)
                if split:
                    lowers += len(split)
                    val = min(val, *split)
            if val > limit:  # no lower (_NO_LOWER), or every slot above
                continue
            if val == base and inside[bag]:
                val = finish(get, below, bag, ahead, base)
                if val is None:
                    continue
            table[(below << k) | bag] = val
            states += lowers
        stored.append(len(table) - kept)
    if stats is not None:
        stats["valid_triples"] = triples
        stats["states"] = states
        stats["peak_table"] = len(table)
    return table
