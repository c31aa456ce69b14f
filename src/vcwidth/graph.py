"""Simple undirected graphs on vertices 0..n-1.

Graphs are immutable once built: solvers hand them around freely and cache
derived data keyed on identity. Vertices are dense 0-based ints everywhere;
1-based ids exist only at the file-format boundary (see formats.py).
"""

from __future__ import annotations

from itertools import combinations


class Graph:
    """An undirected simple graph (no loops, no parallel edges)."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        adj = [set() for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(e)
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.edges = frozenset(seen)
        del seen
        for v, s in enumerate(adj):  # frozen in place: one copy at a time
            adj[v] = frozenset(s)
        self.adj = tuple(adj)

    @property
    def m(self):
        return len(self.edges)

    def complement(self):
        """Complement graph on the same vertex set."""
        edges = [(u, v) for u, v in combinations(range(self.n), 2)
                 if v not in self.adj[u]]
        return Graph(self.n, edges)

    def __eq__(self, other):
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

