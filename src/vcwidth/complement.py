"""Exact pathwidth parameterized by the vertex cover of the complement.

When C covers every non-edge of g, the outside S = V minus C is a clique, so
some bag of any path decomposition contains all of S. The solver computes,
for every L inside C, the best width of a path decomposition of G[N[L]]
whose inner end bag is N(L) — a vertex-layout DP over subsets of C — and
then glues a left part (ending in N(L)), the big middle bag S plus N(L), and
a mirrored right part built from R = C minus N[L].

Table value for L: rooted[L] = max(|N(L) \\ L|, min over u in L of
rooted[L minus u]), rooted[empty] = 0. Unions of neighbourhoods over L are
read from two small tables, one over the low 16 bits of L and one over the
rest, so the only full-size allocation is the table itself: one byte per subset, or two once n > 256,
since its values are widths up to n - 1 (graphs with more than 65535
vertices are rejected).
"""

from __future__ import annotations

from array import array

from .cover import is_vertex_cover, minimum_vertex_cover
from .decomposition import Decomposition, contract, validate
from .errors import InputError, InternalError, ResourceLimitError
from .states import iter_bits

MAX_COMPLEMENT_COVER = 26
MAX_VERTICES = 65535  # widths must fit the table's unsigned 16-bit entries
_BLOCK_BITS = 16


def _unions(masks):
    """unions[P]: the union of masks[i] over the bits i of P."""
    out = [0] * (1 << len(masks))
    for p in range(1, len(out)):
        low = p & -p
        out[p] = out[p ^ low] | masks[low.bit_length() - 1]
    return out


def rooted_pw_table(g, order):
    """rooted[L] for every L subset of the cover, as a byte or 16-bit array
    over masks.

    order fixes the bit positions; rooted[L] is the least width of a path
    decomposition of G[N[L]] with N(L) as its inner end bag.
    """
    k = len(order)
    adj = [sum(1 << u for u in g.adj[v]) for v in order]
    vbit = [1 << v for v in order]
    # widths are at most n - 1; a bytearray is faster to index when they fit
    rooted = (bytearray(1 << k) if g.n <= 256
              else array("H", [0]) * (1 << k))
    # neighbourhood unions and vertex masks per block of the low b subset
    # bits and of the high ones
    b = min(k, _BLOCK_BITS)
    um_low, um_hi = _unions(adj[:b]), _unions(adj[b:])
    lf_low, lf_hi = _unions(vbit[:b]), _unions(vbit[b:])
    for high in range(1 << (k - b)):
        um_high = um_hi[high]
        lf_high = lf_hi[high]
        base = high << b
        for low in range(1 << b):
            mask = base | low
            if mask == 0:
                continue
            lf = lf_high | lf_low[low]
            boundary = (um_high | um_low[low]) & ~lf
            best = None
            m = mask
            while m:
                u = m & -m
                prev = rooted[mask ^ u]
                if best is None or prev < best:
                    best = prev
                m ^= u
            rooted[mask] = max(boundary.bit_count(), best)
    return rooted


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
    rooted = rooted_pw_table(g, order)
    if stats is not None:
        stats["cover_size"] = k
        stats["table_entries"] = 1 << k
        stats["states"] = 1 << k  # one rooted-table state per subset of C
        stats["peak_table"] = 1 << k

    # glue: L, the middle bag S plus N(L) in C, and R = C minus N[L]
    full = (1 << k) - 1
    b = min(k, _BLOCK_BITS)
    cn_low, cn_hi = _unions(cov[:b]), _unions(cov[b:])
    s_width = len(outside) - 1  # the middle bag's width when N(L) is empty
    best = None
    for high in range(1 << (k - b)):
        cn_high = cn_hi[high]
        for low in range(1 << b):
            l_mask = high << b | low
            cn = (cn_high | cn_low[low]) & ~l_mask
            r_mask = full ^ (l_mask | cn)
            cand = max(rooted[l_mask], rooted[r_mask],
                       s_width + cn.bit_count())
            if best is None or cand < best[0]:
                best = (cand, l_mask, cn, r_mask)
    width, l_mask, cn, r_mask = best

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
