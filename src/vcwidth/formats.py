"""Reading and writing .gr graphs and .td decompositions.

The formats follow the PACE conventions: 1-based vertex ids, 'c' comment
lines, a single 'p tw <n> <m>' (graph) or 's td <N> <w+1> <n>' (decomposition)
header. Parsers are whitespace tolerant, accept blank lines, and report every
rejection as a ParseError carrying a 1-based line number. All ids are
converted to the package's dense 0-based vertices at this boundary.
"""

from __future__ import annotations

from .decomposition import Decomposition
from .errors import ParseError
from .graph import Graph


def _lines(data):
    if isinstance(data, bytes):
        data = data.decode("utf-8", "replace")
    return data.splitlines()


def _nonneg(token, lineno, what):
    try:
        value = int(token)
    except ValueError:
        raise ParseError(lineno, f"{what} is not an integer: {token!r}") from None
    if value < 0:
        raise ParseError(lineno, f"{what} is negative: {value}")
    return value


def parse_gr(data):
    """Parse .gr text (str or bytes) into a Graph."""
    lines = _lines(data)
    header = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(lines, 1):
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            if header is not None:
                raise ParseError(lineno, "duplicate 'p' header")
            if len(tok) != 4 or tok[1] != "tw":
                raise ParseError(lineno, "malformed header, expected 'p tw <n> <m>'")
            n = _nonneg(tok[2], lineno, "vertex count")
            m = _nonneg(tok[3], lineno, "edge count")
            header = (n, m)
            continue
        if header is None:
            raise ParseError(lineno, "edge line before 'p tw' header")
        if len(tok) != 2:
            raise ParseError(lineno, "malformed edge line, expected '<u> <v>'")
        n, m = header
        u = _nonneg(tok[0], lineno, "edge endpoint")
        v = _nonneg(tok[1], lineno, "edge endpoint")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(lineno, f"edge endpoint out of range 1..{n}")
        if u == v:
            raise ParseError(lineno, f"self-loop at vertex {u}")
        e = u * n + v if u < v else v * n + u
        if e in seen:
            raise ParseError(lineno, f"duplicate edge {u} {v}")
        seen.add(e)
        if len(edges) >= m:
            raise ParseError(lineno, f"more than the declared {m} edge lines")
        edges.append((u - 1, v - 1))
    last = len(lines) if lines else 1
    if header is None:
        raise ParseError(last, "missing 'p tw <n> <m>' header")
    n, m = header
    if len(edges) != m:
        raise ParseError(last, f"declared {m} edges but found {len(edges)}")
    del lines, seen  # freed before the Graph builds its own sets
    return Graph(n, edges)


def emit_gr(g):
    """Graph -> .gr text (deterministic: edges sorted, min endpoint first)."""
    out = [f"p tw {g.n} {g.m}"]
    for u, v in sorted(g.edges):
        out.append(f"{u + 1} {v + 1}")
    return "\n".join(out) + "\n"


class DecompositionDocument:
    """A parsed .td file: 1-based ids exactly as written."""

    __slots__ = ("num_bags", "width_plus_one", "n", "bags", "edges", "kind")

    def __init__(self, num_bags, width_plus_one, n, bags, edges, kind):
        self.num_bags = num_bags
        self.width_plus_one = width_plus_one
        self.n = n
        self.bags = bags      # dict: bag id -> sorted tuple of vertex ids
        self.edges = edges    # list of (i, j) bag-id pairs, i < j
        self.kind = kind

    def __eq__(self, other):
        return (isinstance(other, DecompositionDocument)
                and self.num_bags == other.num_bags
                and self.width_plus_one == other.width_plus_one
                and self.n == other.n
                and self.bags == other.bags
                and sorted(self.edges) == sorted(other.edges)
                and self.kind == other.kind)

    def __repr__(self):
        return (f"DecompositionDocument(bags={self.num_bags}, "
                f"width={self.width_plus_one - 1}, n={self.n}, kind={self.kind!r})")


def parse_td(data):
    """Parse .td text (str or bytes) into a DecompositionDocument."""
    lines = _lines(data)
    header = None
    bags = {}
    edges = []
    edge_seen = set()
    kind = "tree"
    for lineno, raw in enumerate(lines, 1):
        tok = raw.split()
        if not tok:
            continue
        if tok[0] == "c":
            if tok[1:2] == ["path"]:
                kind = "path"
            continue
        if tok[0] == "s":
            if header is not None:
                raise ParseError(lineno, "duplicate 's' header")
            if len(tok) != 5 or tok[1] != "td":
                raise ParseError(lineno, "malformed header, expected 's td <N> <w+1> <n>'")
            header = (_nonneg(tok[2], lineno, "bag count"),
                      _nonneg(tok[3], lineno, "width"),
                      _nonneg(tok[4], lineno, "vertex count"))
            continue
        if header is None:
            raise ParseError(lineno, f"{tok[0]!r} line before 's td' header")
        num_bags, _, n = header
        if tok[0] == "b":
            if len(tok) < 2:
                raise ParseError(lineno, "bag line without a bag id")
            i = _nonneg(tok[1], lineno, "bag id")
            if i == 0:
                raise ParseError(lineno, "bag id 0 (ids are 1-based)")
            if i > num_bags:
                raise ParseError(lineno, f"bag id {i} out of range 1..{num_bags}")
            if i in bags:
                raise ParseError(lineno, f"bag {i} defined twice")
            content = set()
            for t in tok[2:]:
                v = _nonneg(t, lineno, "bag vertex")
                if not (1 <= v <= n):
                    raise ParseError(lineno, f"bag vertex {v} out of range 1..{n}")
                content.add(v)
            bags[i] = tuple(sorted(content))
            continue
        if len(tok) != 2:
            raise ParseError(lineno, "malformed bag edge line, expected '<i> <j>'")
        i = _nonneg(tok[0], lineno, "bag id")
        j = _nonneg(tok[1], lineno, "bag id")
        if i == 0 or j == 0:
            raise ParseError(lineno, "bag id 0 (ids are 1-based)")
        if i > num_bags or j > num_bags:
            raise ParseError(lineno, f"bag id out of range 1..{num_bags}")
        if i == j:
            raise ParseError(lineno, f"self-loop bag edge at {i}")
        e = (min(i, j), max(i, j))
        if e in edge_seen:
            raise ParseError(lineno, f"duplicate bag edge {i} {j}")
        edge_seen.add(e)
        edges.append(e)

    last = len(lines) if lines else 1
    if header is None:
        raise ParseError(last, "missing 's td <N> <w+1> <n>' header")
    num_bags, width_plus_one, n = header
    for i in range(1, num_bags + 1):
        if i not in bags:
            raise ParseError(last, f"bag {i} never defined")
    if num_bags > 0 and len(edges) != num_bags - 1:
        raise ParseError(last, f"{len(edges)} bag edges do not form a tree "
                               f"on {num_bags} bags")
    if num_bags > 0:
        # connectivity over bag ids 1..num_bags
        nbr = {i: [] for i in range(1, num_bags + 1)}
        for i, j in edges:
            nbr[i].append(j)
            nbr[j].append(i)
        seen = {1}
        stack = [1]
        while stack:
            i = stack.pop()
            for j in nbr[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != num_bags:
            raise ParseError(last, "bag edges do not form a tree (disconnected)")
        if kind == "path" and any(len(v) > 2 for v in nbr.values()):
            raise ParseError(last, "declared path decomposition branches")
    declared_max = max((len(b) for b in bags.values()), default=0)
    if declared_max != width_plus_one:
        raise ParseError(last, f"header declares max bag size {width_plus_one} "
                               f"but largest bag has {declared_max}")
    return DecompositionDocument(num_bags, width_plus_one, n, bags, edges, kind)


def emit_td(dec, n):
    """Decomposition (0-based, of a graph on n vertices) -> .td text.

    Deterministic: bag i of the decomposition becomes bag id i+1, vertices
    sorted ascending, edges sorted. Path decompositions get a 'c path' line.
    Every id is read from one list of labels, each formatted once, so bag
    vertices must lie in 0..n-1, as they do in a validated witness.
    """
    out = []
    if dec.kind == "path":
        out.append("c path")
    width_plus_one = max((len(b) for b in dec.bags), default=0)
    out.append(f"s td {len(dec.bags)} {width_plus_one} {n}")
    label = [str(i) for i in range(1, max(n, len(dec.bags)) + 1)].__getitem__
    for i, bag in enumerate(dec.bags):
        vs = " ".join(map(label, sorted(bag)))
        out.append(f"b {label(i)} {vs}".rstrip())
    for i, j in sorted(dec.edges):
        out.append(f"{label(i)} {label(j)}")
    return "\n".join(out) + "\n"


def decomposition_of(doc):
    """DecompositionDocument -> (Decomposition with 0-based ids, n)."""
    order = sorted(doc.bags)
    index = {i: k for k, i in enumerate(order)}
    bags = [frozenset(v - 1 for v in doc.bags[i]) for i in order]
    edges = [(index[i], index[j]) for i, j in doc.edges]
    return Decomposition(bags, edges, kind=doc.kind), doc.n


def parse_cover(data, n):
    """Parse a cover file: one line of whitespace-separated 1-based ids."""
    lines = _lines(data)
    ids = []
    seen = set()
    found = False
    for lineno, raw in enumerate(lines, 1):
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if found:
            raise ParseError(lineno, "cover file has more than one content line")
        found = True
        for t in tok:
            v = _nonneg(t, lineno, "cover vertex")
            if not (1 <= v <= n):
                raise ParseError(lineno, f"cover vertex {v} out of range 1..{n}")
            if v in seen:
                raise ParseError(lineno, f"cover vertex {v} listed twice")
            seen.add(v)
            ids.append(v - 1)
    return set(ids)
