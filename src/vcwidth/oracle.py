"""Brute-force exact treewidth/pathwidth over all 2^n vertex subsets.

These are the reference answers the cover-based solvers are tested against,
so they deliberately share no machinery with them: neighborhoods are rebuilt
from the raw edge list, and the recurrences are the classic elimination /
vertex-separation DPs over induced subsets.
"""

from __future__ import annotations

from array import array

from .errors import ResourceLimitError

ORACLE_MAX_N = 26


def _neighbor_masks(g):
    nb = [0] * g.n
    for u, v in g.edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    return nb


def _check_size(g, max_n):
    if g.n > max_n:
        raise ResourceLimitError(
            f"oracle handles at most n = {max_n} vertices, got {g.n}")


def treewidth_exact(g, max_n=ORACLE_MAX_N):
    """Exact treewidth via the elimination-order DP over vertex subsets.

    best[S] = width of the best elimination prefix consisting of S; when v is
    eliminated after S \\ {v}, its bag is its neighbors reachable through the
    already-eliminated part.
    """
    _check_size(g, max_n)
    n = g.n
    if n == 0:
        return -1
    nb = _neighbor_masks(g)
    full = (1 << n) - 1
    best = bytearray(full + 1)
    for subset in range(1, full + 1):
        cur = 255
        rem = subset
        while rem:
            low = rem & -rem
            rem ^= low
            v = low.bit_length() - 1
            prev = best[subset ^ low]
            if prev >= cur:
                continue
            through = subset ^ low
            seen = nb[v] | low
            frontier = nb[v] & through
            while frontier:
                grow = 0
                f = frontier
                while f:
                    b = f & -f
                    f ^= b
                    grow |= nb[b.bit_length() - 1]
                grow &= ~seen
                seen |= grow
                frontier = grow & through
            back_degree = (seen & ~subset).bit_count()
            if back_degree < cur:
                cur = max(prev, back_degree)
        best[subset] = cur
    return best[full]


def pathwidth_exact(g, max_n=ORACLE_MAX_N):
    """Exact pathwidth via the vertex-separation DP over vertex subsets.

    sep[S] = best over orders placing S first of the max boundary |N(prefix)|;
    pathwidth equals vertex separation.
    """
    _check_size(g, max_n)
    n = g.n
    if n == 0:
        return -1
    nb = _neighbor_masks(g)
    full = (1 << n) - 1
    # union of neighborhoods over the subset; flat C array keeps the table
    # at 8 bytes per subset even near the size cap
    union = array("q", [0]) * (full + 1)
    sep = bytearray(full + 1)
    for subset in range(1, full + 1):
        low = subset & -subset
        union[subset] = union[subset ^ low] | nb[low.bit_length() - 1]
        boundary = (union[subset] & ~subset).bit_count()
        cur = 255
        rem = subset
        while rem:
            b = rem & -rem
            rem ^= b
            prev = sep[subset ^ b]
            if prev < cur:
                cur = prev
        sep[subset] = max(boundary, cur)
    return sep[full]

