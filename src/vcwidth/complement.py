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
subsets. The table holds one byte per subset, or two once n > 256, since
its values are widths up to n - 1 (graphs with more than 65535 vertices are
rejected).
"""

from __future__ import annotations

import sys
from array import array

from .cover import is_vertex_cover, minimum_vertex_cover
from .decomposition import Decomposition, contract, validate
from .errors import InputError, InternalError, ResourceLimitError
from .states import iter_bits

MAX_COMPLEMENT_COVER = 26
MAX_VERTICES = 65535  # widths must fit the table's unsigned 16-bit entries
# subsets per piece in plane / lane / member conversions; a multiple of 8
_PIECE = 1 << 16
# "0"/"1" to 0/2^j, and a byte to "1" when its bit j is set, else "0"
_SPREAD = [bytes.maketrans(b"01", bytes([0, 1 << j])) for j in range(8)]
_BIT = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]


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
    for j in reversed(range(len(planes))):
        if w >> j & 1:
            below |= equal & ~planes[j]
            equal &= planes[j]
        else:
            equal &= ~planes[j]
    return below | equal


def _boundary_planes(k, cov, outside):
    """Bit planes of |N(L) \\ L| over the subsets L of the k cover positions.

    Cover position p counts when L meets cov[p] (its cover neighbours) and
    misses p; `outside` maps a cover-neighbour mask to the number of outside
    vertices with it, and each counts when L meets its mask.
    """
    positions = (1 << k) - 1
    all_subsets = (1 << (1 << k)) - 1
    planes = []
    for p, nc in enumerate(cov):
        others = positions ^ (1 << p)
        _add(planes, _subsets_of(others) ^ _subsets_of(others ^ nc))
    for nc, count in outside.items():
        meets = all_subsets ^ _subsets_of(positions ^ nc)
        for j in iter_bits(count):
            _add(planes, meets, j)
    return planes


def _reach(family, allowed, k):
    """Close `family` under adding one of the k positions while staying in
    `allowed`; returns the closure and the number of sweeps over the
    positions."""
    positions = (1 << k) - 1
    sweeps = 0
    while True:
        sweeps += 1
        before = family
        for u in range(k):
            # the subsets without u, rebuilt per use: k stored masks of 2^k
            # bits would outweigh the table
            without_u = _subsets_of(positions ^ (1 << u))
            family |= ((family & without_u) << (1 << u)) & allowed
        if family == before:
            return family, sweeps


def _thresholds(k, boundary, w):
    """Bit planes of rooted[L], the least w whose F_w holds L, over the
    subsets of the k cover positions, with the number of thresholds whose
    F_w was grown and of the sweeps that took. `boundary` holds the planes
    of |N(L) \\ L|, and w is a lower bound on every nonempty L's value."""
    all_subsets = (1 << (1 << k)) - 1
    reached, allowed, value = 1, None, []
    levels = sweeps = 0
    while reached != all_subsets:
        at_most = _at_most(boundary, w, all_subsets)
        if at_most != allowed:  # else F_w is F_(w-1)
            allowed = at_most
            grown, n = _reach(reached, allowed, k)
            levels += 1
            sweeps += n
            value.extend([0] * (w.bit_length() - len(value)))
            for j in iter_bits(w):
                value[j] |= grown & ~reached
            reached = grown
        w += 1
    return value, levels, sweeps


def _pieces(size):
    """(start, width) of the pieces that bitsets over `size` subsets are
    converted in, so that no conversion holds a whole table's text."""
    width = min(size, _PIECE)
    return [(start, width) for start in range(0, size, width)]


def _piece(data, start, width):
    """Bits start..start+width-1 of a bitset held as little-endian bytes."""
    return int.from_bytes(data[start // 8:(start + width + 7) // 8], "little")


def _byte_lanes(planes, size):
    """bytearray whose byte L holds bits 0..7 of the count that `planes`
    slice, for each of the `size` subsets."""
    data = [p.to_bytes((size + 7) // 8, "little") for p in planes[:8]]
    out = bytearray(size)
    for start, width in _pieces(size):
        lanes = 0
        for plane, spread in zip(data, _SPREAD):
            text = format(_piece(plane, start, width), f"0{width}b")
            lanes |= int.from_bytes(
                text.encode("ascii").translate(spread), "big")
        out[start:start + width] = lanes.to_bytes(width, "little")
    return out


def rooted_pw_table(g, order, stats=None):
    """rooted[L] for every L subset of the cover, as a byte or 16-bit array
    over masks.

    order fixes the bit positions; rooted[L] is the least width of a path
    decomposition of G[N[L]] with N(L) as its inner end bag. `stats`, when
    given, gains the threshold levels whose reachable family was grown and
    the sweeps that growing took.
    """
    k = len(order)
    pos = {v: i for i, v in enumerate(order)}
    cov = [sum(1 << pos[u] for u in g.adj[v] if u in pos) for v in order]
    outside = {}  # cover-neighbour mask -> outside vertices with it
    for v in range(g.n):
        if v not in pos:
            nc = sum(1 << pos[u] for u in g.adj[v] if u in pos)
            outside[nc] = outside.get(nc, 0) + 1
    outside.pop(0, None)
    # every chain to a nonempty L starts at one vertex, whose boundary is
    # all of its neighbours
    lowest = min((len(g.adj[v]) for v in order), default=0)
    value, levels, sweeps = _thresholds(
        k, _boundary_planes(k, cov, outside), lowest)
    if stats is not None:
        stats["threshold_levels"] = levels
        stats["reach_sweeps"] = sweeps
    lanes = 1 if g.n <= 256 else 2  # widths are at most n - 1
    data = bytearray(lanes << k)  # little-endian lanes
    for b in range(lanes):
        data[b::lanes] = _byte_lanes(value[8 * b:], 1 << k)
    if lanes == 1:
        return data
    rooted = array("H")
    rooted.frombytes(data)
    if sys.byteorder == "big":
        rooted.byteswap()
    return rooted


def _table_planes(rooted, bits):
    """The low `bits` bit planes of a table's entries, read back from its
    bytes a piece at a time."""
    lanes = memoryview(rooted).itemsize
    data = rooted if lanes == 1 else rooted.tobytes()
    parts = [[] for _ in range(bits)]
    for start, width in _pieces(len(rooted)):
        piece = data[start * lanes:(start + width) * lanes]
        # each byte of the lanes, reversed: int() reads the top digit first
        backwards = [piece[b::lanes][::-1] for b in range(lanes)]
        if sys.byteorder == "big":
            backwards.reverse()
        for j, part in enumerate(parts):
            plane = int(backwards[j >> 3].translate(_BIT[j & 7]), 2)
            part.append(plane.to_bytes((width + 7) // 8, "little"))
    return [int.from_bytes(b"".join(part), "little") for part in parts]


def _members(family, size):
    """The subsets in a bitset over `size` subsets, in increasing order."""
    data = family.to_bytes((size + 7) // 8, "little")
    for start, width in _pieces(size):
        bits = format(_piece(data, start, width), "b")
        top = start + len(bits) - 1  # bits[0] is the highest member
        i = bits.rfind("1")
        while i >= 0:
            yield top - i
            i = bits.rfind("1", 0, i)


def _glue(rooted, cov, s_width, bits):
    """(width, L, N(L) in C, subsets evaluated) of the best glue.

    Gluing at L costs max(rooted[L], rooted[R], s_width + |N(L) in C|),
    R = C minus N[L]. That is at most w only if L is in F_w and
    |N(L) in C| <= w - s_width, so w walks upward and the L that first pass
    both tests at w are evaluated in increasing order, each once. The first
    w that some L attains is the least width, and the least L attaining it
    is the one a scan over all L in increasing order would keep. `bits`
    bounds the bit length of the table's entries.
    """
    k = len(cov)
    full = (1 << k) - 1
    all_subsets = (1 << (1 << k)) - 1
    cover_boundary = _boundary_planes(k, cov, {})
    table = _table_planes(rooted, bits)
    seen = evaluated = 0
    best = {}  # width -> (least L evaluated with it, N(L) in C)
    w = max(s_width, 0)
    while True:
        hit = best.get(w)
        fresh = (_at_most(cover_boundary, w - s_width, all_subsets)
                 & _at_most(table, w, all_subsets) & ~seen)
        seen |= fresh
        for l_mask in _members(fresh, 1 << k):
            if hit is not None and l_mask > hit[0]:
                break
            evaluated += 1
            cn = 0
            for p in iter_bits(l_mask):
                cn |= cov[p]
            cn &= ~l_mask
            cand = max(rooted[l_mask], rooted[full ^ (l_mask | cn)],
                       s_width + cn.bit_count())
            if cand == w:
                hit = (l_mask, cn)
                break
            if cand not in best or l_mask < best[cand][0]:
                best[cand] = (l_mask, cn)
        if hit is not None:
            return w, hit[0], hit[1], evaluated
        w += 1


def _peel_order(rooted, mask):
    """Optimal layout of `mask`, outermost vertex position last."""
    order = []
    while mask:
        pick = None
        for u in iter_bits(mask):
            prev = rooted[mask ^ (1 << u)]
            if pick is None or prev < pick[1]:
                pick = (u, prev)
        order.append(pick[0])
        mask ^= 1 << pick[0]
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
    comp = g.complement()
    if cover is None:
        cover = minimum_vertex_cover(comp, limit=max_cover)
        if cover is None:
            raise ResourceLimitError(
                f"complement cover exceeds the supported maximum "
                f"of {max_cover}")
    else:
        cover = set(cover)
        if not is_vertex_cover(comp, cover):
            raise InputError(
                "provided vertex set is not a vertex cover of the complement")
    k = len(cover)
    if k > max_cover:
        raise ResourceLimitError(
            f"complement cover of size {k} exceeds the supported maximum "
            f"of {max_cover}")
    order = sorted(cover)
    pos = {v: i for i, v in enumerate(order)}
    # cover neighbours in cover positions
    cov = [sum(1 << pos[u] for u in g.adj[v] if u in pos) for v in order]
    outside = [v for v in range(g.n) if v not in pos]
    rooted = rooted_pw_table(g, order, stats)
    if stats is not None:
        stats["cover_size"] = k
        stats["table_entries"] = 1 << k
        stats["states"] = 1 << k  # one rooted-table state per subset of C
        stats["peak_table"] = 1 << k

    # glue: L, the middle bag S plus N(L) in C, and R = C minus N[L]
    s_width = len(outside) - 1  # the middle bag's width when N(L) is empty
    width, l_mask, cn, evaluated = _glue(
        rooted, cov, s_width, (g.n - 1).bit_length())
    r_mask = ((1 << k) - 1) ^ (l_mask | cn)
    if stats is not None:
        stats["glue_evaluated"] = evaluated

    left = _side_bags(g, order, _peel_order(rooted, l_mask))
    right = _side_bags(g, order, _peel_order(rooted, r_mask))
    middle = set(outside) | {order[i] for i in iter_bits(cn)}
    bags = list(reversed(left)) + [middle] + right
    dec = contract(bags, [(i, i + 1) for i in range(len(bags) - 1)], "path")
    measured = validate(g, dec)
    if measured != width:
        raise InternalError(
            f"complement-cover witness has width {measured}, "
            f"solver reported {width}")
    return width, dec
