"""Tree/path decompositions: data model, validation and witness contraction.

A Decomposition is a list of bags (frozensets of vertices) plus tree edges
between bag indices. `kind` records whether it is meant as a path
decomposition ("path") or a general tree decomposition ("tree"); path
decompositions must have path-shaped bag graphs.

`find_violations` checks a witness in about one pass over its bags. On a
tree bag graph, rooted at bag 0, the bags holding a vertex v split into
subtrees, each topped by a bag whose parent lacks v, so counting those roots
gives v's connectivity: 0 roots means v is in no bag, 1 that its bags are
connected. Take an edge uv whose ends have one root each, u's no deeper
than v's. Their subtrees meet iff v's root bag holds u: a bag holding both
lies below both roots, so u's root is an ancestor of v's, and u's subtree,
running from its root down to that bag, passes through v's root. Only
vertices of two or more roots, or every vertex when the bag graph is no
tree, get lists of the bags holding them.
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
    n = g.n
    bags = dec.bags
    nbags = len(bags)

    known = frozenset(range(n))
    unknown = not all(map(known.issuperset, bags))
    if unknown:
        for idx, bag in enumerate(bags):
            out += [f"bag {idx} contains unknown vertex {v}"
                    for v in bag if not 0 <= v < n]

    # structure: connected and exactly nbags-1 edges => tree
    edge_set = set()
    for i, j in dec.edges:
        if i == j:
            out.append(f"bag edge ({i},{i}) is a self-loop")
        elif (i, j) in edge_set:
            out.append(f"duplicate bag edge ({i},{j})")
        edge_set.add((i, j))
    is_tree = True
    order = []  # the bags reachable from bag 0, parents first
    if nbags > 0:
        if len(dec.edges) != nbags - 1:
            out.append(f"bag graph has {len(dec.edges)} edges, "
                       f"a tree on {nbags} bags needs {nbags - 1}")
            is_tree = False
        nbr = dec.neighbors()
        parent = [None] * nbags
        parent[0] = -1
        depth = [0] * nbags
        order.append(0)
        for i in order:
            for j in nbr[i]:
                if parent[j] is None:
                    parent[j] = i
                    depth[j] = depth[i] + 1
                    order.append(j)
        if len(order) != nbags:
            out.append(f"bag graph is disconnected "
                       f"({len(order)} of {nbags} bags reachable from bag 0)")
            is_tree = False
        if dec.kind == "path" and is_tree and any(len(x) > 2 for x in nbr):
            bad = next(i for i, x in enumerate(nbr) if len(x) > 2)
            out.append(f"path decomposition has branching bag {bad}")

    # on a tree, the bags holding v form roots[v] subtrees, each topped by a
    # bag whose parent lacks v; 1 means connected. Only vertices in two or
    # more subtrees (every vertex, off a tree) get occurrence lists
    if is_tree:
        roots = [0] * n
        root = [0] * n
        for i in order:
            p = parent[i]
            new = bags[i] if p < 0 else bags[i] - bags[p]
            if unknown:
                new = new & known
            for v in new:
                roots[v] += 1
                root[v] = i
        settled = roots.count(1) == n
        listed = [] if settled else [v for v, c in enumerate(roots) if c > 1]
    else:
        listed = range(n)
    occurs = {v: [] for v in listed}
    if listed:
        wanted = frozenset(listed)
        for idx, bag in enumerate(bags):
            for v in bag & wanted:
                occurs[v].append(idx)

    # axiom 1: every vertex occurs in some bag
    if is_tree:
        missing = [] if settled else [v for v, c in enumerate(roots) if not c]
    else:
        missing = [v for v in range(n) if not occurs[v]]
    out += [f"vertex {v} appears in no bag" for v in missing]

    # axiom 2: every edge is inside some bag. Two single subtrees meet iff
    # the shallower root's vertex lies in the deeper root's bag; otherwise
    # scan the bags of an endpoint with a list for the other one (an end
    # with no list and no single subtree is in no bag)
    missed = []
    for u, v in g.edges:
        if is_tree and roots[u] == 1 == roots[v]:
            ru, rv = root[u], root[v]
            if (v in bags[ru]) if depth[ru] >= depth[rv] else (u in bags[rv]):
                continue
        else:
            a, b = (u, v) if u in occurs else (v, u)
            if any(b in bags[i] for i in occurs.get(a, ())):
                continue
        missed.append((u, v))
    out += [f"edge ({u},{v}) is contained in no bag"
            for u, v in sorted(missed)]

    # axiom 3: the bags holding a vertex form a connected subtree
    if is_tree:
        for v in listed:
            nodes = occurs[v]
            allowed = set(nodes)
            seen = {nodes[0]}
            queue = deque([nodes[0]])
            while queue:
                i = queue.popleft()
                for j in nbr[i]:
                    if j in allowed and j not in seen:
                        seen.add(j)
                        queue.append(j)
            out.append(f"bags containing vertex {v} are disconnected "
                       f"({len(seen)} of {len(allowed)} connected)")
    return out


def validate(g, dec):
    """Width of `dec` as a decomposition of `g`; raises on any violation."""
    violations = find_violations(g, dec)
    if violations:
        raise InvalidDecompositionError(violations)
    return dec.width
