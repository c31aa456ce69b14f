"""Tree/path decompositions: data model, validation and witness contraction.

A Decomposition is a list of bags (frozensets of vertices) plus tree edges
between bag indices. `kind` records whether it is meant as a path
decomposition ("path") or a general tree decomposition ("tree"); path
decompositions must have path-shaped bag graphs.
"""

from __future__ import annotations

from collections import deque

from .errors import InvalidDecompositionError


class Decomposition:
    __slots__ = ("bags", "edges", "kind")

    def __init__(self, bags, edges, kind="tree"):
        if kind not in ("tree", "path"):
            raise ValueError(f"unknown decomposition kind {kind!r}")
        self.bags = [frozenset(b) for b in bags]
        self.edges = [(min(i, j), max(i, j)) for i, j in edges]
        for i, j in self.edges:
            if not (0 <= i < len(self.bags) and 0 <= j < len(self.bags)):
                raise ValueError(f"bag edge ({i},{j}) out of range")
        self.kind = kind

    @property
    def width(self):
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags) - 1

    def neighbors(self):
        nbr = [[] for _ in self.bags]
        for i, j in self.edges:
            nbr[i].append(j)
            nbr[j].append(i)
        return nbr

    def __eq__(self, other):
        return (isinstance(other, Decomposition)
                and self.bags == other.bags
                and sorted(self.edges) == sorted(other.edges)
                and self.kind == other.kind)

    def __repr__(self):
        return (f"Decomposition(nodes={len(self.bags)}, width={self.width}, "
                f"kind={self.kind!r})")


def contract(bags, edges, kind):
    """Decomposition of `bags` and tree `edges`, with every bag that a
    neighbour contains merged into it; this drops empty, repeated and
    subset bags. The list `bags` is frozen in place.

    Merging bag i into a neighbour j that contains it reattaches i's other
    neighbours to j. The bag graph stays a tree, and a path stays a path.
    Every vertex and edge of i is in j, and a vertex whose bags ran through
    i now runs through j, so all three axioms still hold. No bag grows, so
    neither does the width. One pass in index order suffices: the vertices
    two bags share lie in every bag between them, so a bag that gains a
    neighbour containing it already had one.
    """
    for i, bag in enumerate(bags):
        bags[i] = frozenset(bag)
    nbr = [set() for _ in bags]
    for i, j in edges:
        nbr[i].add(j)
        nbr[j].add(i)
    keep = []
    for i, bag in enumerate(bags):
        j = min((j for j in nbr[i] if bag <= bags[j]), default=None)
        if j is None:
            keep.append(i)
            continue
        nbr[j].discard(i)
        for h in nbr[i] - {j}:
            nbr[h].discard(i)
            nbr[h].add(j)
            nbr[j].add(h)
    index = {i: n for n, i in enumerate(keep)}
    return Decomposition([bags[i] for i in keep],
                         sorted((index[i], index[j]) for i in keep
                                for j in nbr[i] if i < j), kind)


def find_violations(g, dec):
    """All axiom violations of `dec` as a decomposition of `g`, as strings.

    Checks structure first (bag graph is a tree; a path for kind="path"),
    then the three axioms: vertex coverage, edge coverage, and connectivity
    of each vertex's set of bags.
    """
    out = []
    nbags = len(dec.bags)

    for idx, bag in enumerate(dec.bags):
        for v in bag:
            if not (0 <= v < g.n):
                out.append(f"bag {idx} contains unknown vertex {v}")

    # structure: connected and exactly nbags-1 edges => tree
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

    # axiom 1: every vertex occurs in some bag
    occurs = [[] for _ in range(g.n)]
    for idx, bag in enumerate(dec.bags):
        for v in bag:
            if 0 <= v < g.n:
                occurs[v].append(idx)
    for v in range(g.n):
        if not occurs[v]:
            out.append(f"vertex {v} appears in no bag")

    # axiom 2: every edge is inside some bag; scan the bags of the endpoint
    # that occurs in fewer of them for the other one, and sort the misses
    bags = dec.bags
    missed = []
    for u, v in g.edges:
        a, b = (u, v) if len(occurs[u]) <= len(occurs[v]) else (v, u)
        if not any(b in bags[i] for i in occurs[a]):
            missed.append((u, v))
    out += [f"edge ({u},{v}) is contained in no bag"
            for u, v in sorted(missed)]

    # axiom 3: the bags holding a vertex form a connected subtree
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


def validate(g, dec):
    """Width of `dec` as a decomposition of `g`; raises on any violation."""
    violations = find_violations(g, dec)
    if violations:
        raise InvalidDecompositionError(violations)
    return dec.width
