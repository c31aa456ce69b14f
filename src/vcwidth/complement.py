"""Exact pathwidth parameterized by the vertex cover of the complement.

When C covers every non-edge of g, the outside S = V minus C is a clique, so
some bag of any path decomposition contains all of S. The solver computes,
for every L inside C, the best width of a path decomposition of G[N[L]]
whose inner end bag is N(L) — a vertex-layout DP over subsets of C — and
then glues a left part (ending in N(L)), the big middle bag S plus N(L), and
a mirrored right part built from R = C minus N[L].

Table value for L: rooted[L] = max(|N(L) \\ L|, min over u in L of
rooted[L minus u]), rooted[empty] = 0. Unfolding the recurrence gives the
fact the solver runs on: rooted[L] <= w exactly when L is reached from the
empty set by adding one cover vertex at a time, every subset on the way
having |N(.) \\ .| <= w. So for each threshold w the family of such L is one
Python int with a bit per subset (a bitset), grown to its fixpoint by
shifts and masks, and boundary counts are bit-sliced: count bit j of every
subset lives in one int, the j-th plane. No Python loop runs over the 2^k'
subsets. One loop raises w: it grows F_w, then takes one glue step on it,
and stops at the first w where some L glues, so no entry above the width is
ever computed. The table is kept only as bit planes: bit L of plane j is
bit j of min(rooted[L], width + 1), and the few entries the witness needs
are read from a byte copy of each plane.
"""

from __future__ import annotations

from collections import Counter

from .cover import minimum_vertex_cover
from .decomposition import Decomposition, contract, validate
from .errors import InputError, InternalError, ResourceLimitError
from .states import iter_bits

MAX_COMPLEMENT_COVER = 26
# a documented limit, checked before any work: past it, a graph whose
# complement has a cover within MAX_COMPLEMENT_COVER has over 2 * 10^9 edges
MAX_VERTICES = 65535
# subsets per piece in _members' conversions; a multiple of 8
_PIECE = 1 << 16


def _subsets_of(t):
    """Bitset over subsets of positions: bit L is set iff L is inside t.

    Built by doubling: adding position u to t copies the family found so
    far into the subsets that contain u, 2^u bits up.
    """
    family = 1
    while t:
        low = t & -t
        family |= family << low
        t ^= low
    return family


def _add(planes, x, j=0):
    """Add the 0/1 bitset x at weight 2^j to the bit-sliced count `planes`
    (least significant plane first)."""
    if j > len(planes):
        planes.extend([0] * (j - len(planes)))
    while x:
        if j == len(planes):
            planes.append(x)
            return
        p = planes[j]
        planes[j] = p ^ x
        x &= p
        j += 1


def _at_most(planes, w, all_subsets):
    """Bitset of the subsets whose bit-sliced count is at most w."""
    if w < 0:
        return 0
    if w >> len(planes):
        return all_subsets
    below, equal = 0, all_subsets
    for j in reversed(range(len(planes))):  # no ~: negative ints are slow
        if w >> j & 1:
            ones = equal & planes[j]
            below |= equal ^ ones
            equal = ones
        else:
            equal ^= equal & planes[j]
    return below | equal


def _cover_data(g, order):
    """(cov, outside, cover_boundary) for the cover positions `order`:
    cov[p] masks position p's cover neighbours, `outside` maps a nonzero
    cover-neighbour mask to its number of outside vertices, and
    cover_boundary holds the bit planes of |N(L) in C|, where p counts when
    L meets cov[p] and misses p."""
    k = len(order)
    pos = {v: i for i, v in enumerate(order)}
    masks = [sum(1 << pos[u] for u in g.adj[v] if u in pos)
             for v in range(g.n)]
    cov = [masks[v] for v in order]
    outside = Counter(masks[v] for v in range(g.n)
                      if v not in pos and masks[v])
    positions = (1 << k) - 1
    cover_boundary = []
    for p, nc in enumerate(cov):
        others = positions ^ (1 << p)
        _add(cover_boundary, _subsets_of(others) ^ _subsets_of(others ^ nc))
    return cov, outside, cover_boundary


def _boundary_planes(k, cover_boundary, outside):
    """Bit planes of |N(L) \\ L| over the subsets L of the k cover positions:
    the cover part, plus the outside vertices with each cover-neighbour mask
    in `outside` wherever L meets that mask."""
    positions = (1 << k) - 1
    all_subsets = (1 << (1 << k)) - 1
    planes = list(cover_boundary)
    for nc, count in outside.items():
        meets = all_subsets ^ _subsets_of(positions ^ nc)
        for j in iter_bits(count):
            _add(planes, meets, j)
    return planes


def _reach(family, allowed, k):
    """Close `family` under adding one of the k positions while staying in
    `allowed`; returns the closure and the number of sweeps over the
    positions."""
    sweeps = 0
    while True:
        sweeps += 1
        count = family.bit_count()  # it only grows: no old copy is held
        with_u = (1 << (1 << k)) - 1
        for u in reversed(range(k)):
            # the subsets containing u, from those containing u + 1 (all
            # subsets when u + 1 = k): shifting a subset without u up by
            # 2^u adds u, and shifting one with u lands outside them
            with_u ^= with_u >> (1 << u)
            family |= (family << (1 << u)) & with_u & allowed
        if family.bit_count() == count:
            return family, sweeps


def rooted_pw_table(g, order, stats=None):
    """(width, (L, N(L) in C, R), planes): the least glued width, the
    glue at its least L, and the bit planes of min(rooted[L], width + 1)
    over the subsets L of the cover, least significant first, as many as
    its largest value needs.

    order fixes the bit positions; rooted[L] is the least width of a path
    decomposition of G[N[L]] with N(L) as its inner end bag. Gluing at L
    costs max(rooted[L], rooted[R], s_width + |N(L) in C|), R = C minus
    N[L]. w walks upward, growing F_w until it holds every subset, and the
    L that first have rooted[L] <= w and |N(L) in C| <= w - s_width are
    evaluated in increasing order, each once. Such an L costs exactly w
    when R is in F_w, and otherwise waits until R enters. The first w that
    some L attains is the least width, and the least L attaining it is the
    one a scan over all L in increasing order would keep; no F_w above it
    is grown. `stats`, when given, gains the entries computed (the subsets
    reached), the threshold levels whose F_w was grown, the sweeps that
    took and the subsets the glue evaluated.
    """
    k = len(order)
    cov, outside, cover_boundary = _cover_data(g, order)
    boundary = _boundary_planes(k, cover_boundary, outside)
    full, all_subsets = (1 << k) - 1, (1 << (1 << k)) - 1
    s_width = g.n - k - 1  # the middle bag's width when N(L) is empty
    # every chain to a nonempty L starts at one vertex, whose boundary is
    # all of its neighbours: below that, F_w holds the empty set alone, and
    # gluing there waits for R = C
    w = lowest = min((len(g.adj[v]) for v in order), default=0)
    reached, value, pending = 1, [], []
    seen = levels = sweeps = evaluated = 0
    while True:
        if reached != all_subsets:
            grown, n = _reach(reached, _at_most(boundary, w, all_subsets), k)
            levels += 1
            sweeps += n
            for j in iter_bits(w):
                _add(value, grown ^ reached, j)
            reached = grown
        if w >= s_width:
            eligible = (_at_most(cover_boundary, w - s_width, all_subsets)
                        & reached)
            fresh, seen = eligible ^ seen, eligible  # seen is inside it
            inside = _reader([reached], 1 << k)  # 1 on the subsets in F_w
            # a waiting L whose R is in F_w entered at w
            hit = min((glue for glue in pending if inside(glue[2])),
                      default=None)
            for l_mask in _members(fresh, 1 << k):
                if hit is not None and l_mask > hit[0]:
                    break
                evaluated += 1
                cn = 0
                for p in iter_bits(l_mask):
                    cn |= cov[p]
                cn &= ~l_mask
                glue = (l_mask, cn, full ^ (l_mask | cn))
                if inside(glue[2]):
                    hit = glue
                    break
                pending.append(glue)
            del inside, fresh  # freed before the next big ints
            if hit is not None:
                break
        w += 1
    if reached != all_subsets:  # read as w + 1, above every reached entry
        for j in iter_bits(w + 1):
            _add(value, all_subsets ^ reached, j)
    if stats is not None:
        stats["table_entries"] = reached.bit_count()
        stats["threshold_levels"] = levels
        stats["reach_sweeps"] = sweeps
        stats["glue_evaluated"] = evaluated
    return w, hit, value


def _reader(planes, size):
    """rooted(L): the entry of subset L, one of `size`, in the table whose
    bit planes are `planes`, read from a byte copy of each plane."""
    data = [p.to_bytes((size + 7) // 8, "little") for p in planes]

    def rooted(mask):
        byte, bit = mask >> 3, mask & 7
        return sum((plane[byte] >> bit & 1) << j
                   for j, plane in enumerate(data))
    return rooted


def _members(family, size):
    """The subsets in a bitset over `size` subsets, in increasing order,
    converted piece by piece so that no conversion holds a whole table's
    text."""
    data = family.to_bytes((size + 7) // 8, "little")
    width = min(size, _PIECE)
    for start in range(0, size, width):
        piece = data[start // 8:(start + width + 7) // 8]
        bits = format(int.from_bytes(piece, "little"), "b")
        top = start + len(bits) - 1  # bits[0] is the highest member
        i = bits.rfind("1")
        while i >= 0:
            yield top - i
            i = bits.rfind("1", 0, i)


def _peel_order(rooted, mask):
    """Optimal layout of `mask`, outermost vertex position last. Entries
    above the width read as width + 1, and no choice here takes one: a
    nonempty L within the width has some L minus u within it too."""
    order = []
    while mask:  # the least position on ties
        u = min(iter_bits(mask), key=lambda u: rooted(mask ^ (1 << u)))
        order.append(u)
        mask ^= 1 << u
    return order


def _side_bags(g, order, positions):
    """Bags of one side, middle-adjacent first, for a peel order of positions."""
    bags = []
    remaining = list(positions)
    for u in positions:
        neigh = set()
        for p in remaining:
            neigh.update(g.adj[order[p]])
        members = {order[p] for p in remaining}
        bags.append((neigh - members) | {order[u]})
        remaining.remove(u)
    return bags


def _over_cap(size, max_cover):
    """The ResourceLimitError for a complement cover over max_cover: a cap
    set below MAX_COMPLEMENT_COVER is named as a cap, as the vc solvers'
    are, and this module's own as its supported maximum."""
    limit = (f"the cap {max_cover}" if max_cover < MAX_COMPLEMENT_COVER
             else f"the supported maximum of {max_cover}")
    return ResourceLimitError(f"complement cover{size} exceeds {limit}")


def pathwidth_cvc(g, cover=None, stats=None, max_cover=MAX_COMPLEMENT_COVER):
    """Exact pathwidth of g and a path decomposition, parameterized by a
    vertex cover of the complement graph.

    `cover` may inject one (it is verified against the complement); the size
    cap keeps the 2^k' table within reach and raises ResourceLimitError
    beyond it.
    """
    if g.n == 0:
        return -1, Decomposition([], [], kind="path")
    if g.n > MAX_VERTICES:
        raise ResourceLimitError(
            f"graph has {g.n} vertices, the complement-cover solver "
            f"supports at most {MAX_VERTICES}")
    if cover is None:
        # every complement edge has an end in the cover, and one cover
        # vertex ends at most n - 1 of them: check before building them
        if g.n * (g.n - 1) // 2 - g.m <= max_cover * (g.n - 1):
            cover = minimum_vertex_cover(g.complement(), limit=max_cover)
        if cover is None:
            raise _over_cap("", max_cover)
    else:
        # a cover of the complement leaves a clique of g outside; the check
        # stops at the first vertex missing a neighbor there
        cover = set(cover)
        outside = set(range(g.n)) - cover
        if any(len(outside - g.adj[v]) > 1 for v in outside):
            raise InputError(
                "provided vertex set is not a vertex cover of the complement")
    k = len(cover)
    if k > max_cover:
        raise _over_cap(f" of size {k}", max_cover)
    order = sorted(cover)
    width, (l_mask, cn, r_mask), planes = rooted_pw_table(g, order, stats)
    rooted = _reader(planes, 1 << k)
    if stats is not None:
        stats["cover_size"] = k
        stats["states"] = stats["table_entries"]  # the subsets computed
        stats["peak_table"] = 1 << k  # the span of the bit planes

    # glue: L, the middle bag S plus N(L) in C, and R = C minus N[L]
    left = _side_bags(g, order, _peel_order(rooted, l_mask))
    right = _side_bags(g, order, _peel_order(rooted, r_mask))
    middle = (set(range(g.n)) - cover) | {order[i] for i in iter_bits(cn)}
    bags = list(reversed(left)) + [middle] + right
    dec = contract(bags, [(i, i + 1) for i in range(len(bags) - 1)], "path")
    measured = validate(g, dec)
    if measured != width:
        raise InternalError(
            f"complement-cover witness has width {measured}, "
            f"solver reported {width}")
    return width, dec
