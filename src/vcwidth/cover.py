"""Exact minimum vertex cover by branch and bound.

Instances here are small (the solvers are exponential in the cover size
anyway), so the classic scheme suffices: resolve degree-1 vertices greedily
(taking the neighbor is always at least as good), branch on a maximum-degree
vertex v into "v in the cover" vs "N(v) in the cover", and prune with a
greedy-matching lower bound. Ties everywhere go to the lowest vertex id, so
the result is deterministic. The search edits one copy of the adjacency and
undoes each node's removals (the `log`) on its way back; the greedy cover
and the forced moves take their next vertex from heaps, not from scans.

With a `limit`, the search starts from Buss's high-degree kernel (Buss &
Goldsmith, SIAM J. Comput. 1993): a vertex with more than `limit`
neighbours is in every cover within the limit, since leaving it out takes
all its neighbours. So if more than `limit` vertices are that heavy, no
cover fits; and if the heavy vertices H cover every edge, every cover within
the limit contains H, so H is the only minimum cover, the one the unbounded
search returns too. A large graph with a few hubs is then settled in one
pass over the degrees, without copying the adjacency.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def is_vertex_cover(g, vertices):
    vs = set(vertices)
    return all(u in vs or v in vs for u, v in g.edges)


def _remove(adj, v, log):
    for u in adj[v]:
        adj[u].discard(v)
    log.append((v, adj[v]))
    adj[v] = set()


def _restore(adj, log):
    """Undo the removals noted in `log`, last first."""
    while log:
        v, nbrs = log.pop()
        adj[v] = nbrs
        for u in nbrs:
            adj[u].add(v)


def _greedy_cover(adj):
    """Take a vertex of maximum degree, lowest id first, while edges remain.
    Degrees only fall, so a queued one is an upper bound: the least entry
    still current is a true maximum, and a stale one is queued again."""
    heap = [(-len(nbrs), v) for v, nbrs in enumerate(adj)]
    heapify(heap)
    edges = sum(map(len, adj)) // 2
    log = []
    while edges:
        queued, v = heappop(heap)
        degree = len(adj[v])
        if -queued != degree:
            heappush(heap, (-degree, v))
        else:
            edges -= degree
            _remove(adj, v, log)
    cover = [u for u, _ in log]
    _restore(adj, log)
    return cover


def _matching_bound(adj):
    """Size of a greedy maximal matching: a lower bound on any cover."""
    matched = set()
    count = 0
    for v in range(len(adj)):
        if v in matched or not adj[v]:
            continue
        u = min((w for w in adj[v] if w not in matched), default=None)
        if u is not None:
            matched.add(v)
            matched.add(u)
            count += 1
    return count


def minimum_vertex_cover(g, limit=None):
    """A minimum vertex cover of g as a set of vertices (deterministic).

    With a `limit`, returns None when every cover is larger than it: at once
    if the high-degree kernel or the matching bound already exceeds it, else
    once a search that must beat limit + 1 finds nothing. Branches are taken
    in the same order as without a limit, so a cover within it is the one the
    unbounded search returns.
    """
    n = g.n
    if n == 0 or not g.edges:
        return set()
    if limit is not None:  # the high-degree kernel (module docstring)
        heavy = [v for v, nbrs in enumerate(g.adj) if len(nbrs) > limit]
        if len(heavy) > limit:
            return None
        hs = set(heavy)
        inner = sum(len(g.adj[v] & hs) for v in heavy) // 2
        if sum(len(g.adj[v]) for v in heavy) - inner == len(g.edges):
            return hs
    adj = [set(s) for s in g.adj]
    if limit is not None and _matching_bound(adj) > limit:
        return None
    best = _greedy_cover(adj)
    if limit is not None and len(best) > limit:
        best = None
    bound = limit + 1 if best is None else len(best)  # size to beat

    def search(adj, picked, take):
        nonlocal best, bound
        log = []
        picked = picked + sorted(take)
        for u in take:
            _remove(adj, u, log)
        # forced moves: a degree-1 vertex gives up its neighbor. Degrees only
        # fall here, so the heap gains each vertex once, as it drops to 1
        ones = [v for v in range(n) if len(adj[v]) == 1]
        while ones:
            v1 = heappop(ones)
            if not adj[v1]:
                continue  # it lost its neighbor since
            u = min(adj[v1])
            picked.append(u)
            _remove(adj, u, log)
            for x in log[-1][1]:
                if len(adj[x]) == 1:
                    heappush(ones, x)
        if len(picked) < bound:
            live = [v for v in range(n) if adj[v]]
            if not live:
                best, bound = picked, len(picked)
            elif len(picked) + _matching_bound(adj) < bound:
                v = max(live, key=lambda x: (len(adj[x]), -x))
                search(adj, picked, (v,))
                search(adj, picked, sorted(adj[v]))
        _restore(adj, log)

    search(adj, [], ())
    return None if best is None else set(best)
