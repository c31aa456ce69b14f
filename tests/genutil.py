"""Shared test helpers: seeded generators, independent reference solvers,
and a recorder of the treewidth sweep's join values.

Everything here is deliberately primitive. The reference solvers re-derive
widths from first principles (permutation search, literal submask sums) so
they share no machinery with the package code they check.
"""

from itertools import combinations, permutations

from vcwidth import states, treewidth, treewidth_fast
from vcwidth.convolution import SetFunction
from vcwidth.graph import Graph


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, list(combinations(range(n), 2)))


def grid_graph(rows, cols):
    def vid(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(rows * cols, edges)


def add_universal_vertex(g):
    """(g plus one vertex adjacent to all of g, that vertex's id g.n): the
    explicit apex that the solvers' contexts only imply."""
    return Graph(g.n + 1, list(g.edges) + [(v, g.n) for v in range(g.n)]), g.n


def enumerate_small_graphs(n):
    """Yield every labelled simple graph on n vertices (2^(n choose 2) many)."""
    pairs = list(combinations(range(n), 2))
    for pick in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if pick >> i & 1]
        yield Graph(n, edges)


def small_graphs_up_to_isomorphism(n):
    """Yield one graph on n vertices per isomorphism class: the first
    labelled graph of each class in enumerate_small_graphs' order, its
    whole orbit under vertex permutations marked as seen."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    relabel = [[index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
               for perm in permutations(range(n))]
    seen = set()
    for pick in range(1 << len(pairs)):
        if pick in seen:
            continue
        bits = [i for i in range(len(pairs)) if pick >> i & 1]
        seen.update(sum(1 << moved[i] for i in bits) for moved in relabel)
        yield Graph(n, [pairs[i] for i in bits])


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_tree(rng, n):
    """Random attachment tree on n >= 1 vertices."""
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def random_graph_with_cover(rng, k, n, p):
    """Random graph all of whose edges touch 0..k-1, so that set is a cover."""
    edges = []
    for u in range(k):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph(n, edges)


def naive_convolve(f_values, g_values, s):
    """Literal subset convolution: for each W sum f[V]*g[W\\V] over V <= W."""
    out = [0] * (1 << s)
    for w in range(1 << s):
        v = w
        while True:
            out[w] += f_values[v] * g_values[w ^ v]
            if v == 0:
                break
            v = (v - 1) & w
    return out


def identity(s):
    """The convolution identity: 1 on the empty set, 0 elsewhere."""
    f = SetFunction(s)
    f.values[0] = 1
    return f


def mobius(f):
    """Inverse of zeta."""
    out = list(f.values)
    size = 1 << f.s
    for i in range(f.s):
        bit = 1 << i
        for w in range(size):
            if w & bit:
                out[w] -= out[w ^ bit]
    return SetFunction(f.s, out)


def tw_by_elimination_orders(g):
    """Treewidth by trying every elimination order (pruned on the running best).

    Eliminating v costs its current degree and turns its neighborhood into a
    clique; the treewidth is the min over orders of the max cost.
    """
    best = max(g.n - 1, 0)
    for order in permutations(range(g.n)):
        adj = [set(g.adj[v]) for v in range(g.n)]
        worst = 0
        for v in order:
            nb = adj[v]
            if len(nb) > worst:
                worst = len(nb)
                if worst >= best:
                    break
            for a in nb:
                adj[a] |= nb
                adj[a].discard(a)
                adj[a].discard(v)
            adj[v] = set()
        else:
            best = worst
    return best


def pw_by_layouts(g):
    """Pathwidth as vertex separation by trying every layout (pruned)."""
    if g.n == 0:
        return -1
    best = g.n - 1
    for order in permutations(range(g.n)):
        placed = set()
        boundary = set()
        worst = 0
        for v in order:
            placed.add(v)
            boundary.discard(v)
            boundary |= g.adj[v] - placed
            if len(boundary) > worst:
                worst = len(boundary)
                if worst >= best:
                    break
        else:
            best = worst
    return best


def elimination_decomposition(rng, g):
    """A valid tree decomposition from a random elimination order.

    Bag of v holds v plus its later neighbors in the fill-in graph; each bag
    hangs off the bag of its earliest later member. Width varies with the
    order, which is the point: these are realistic non-optimal inputs.
    """
    from vcwidth.decomposition import Decomposition

    order = list(range(g.n))
    rng.shuffle(order)
    pos = {v: i for i, v in enumerate(order)}
    adj = [set(g.adj[v]) for v in range(g.n)]
    bags = []
    for v in order:
        later = {u for u in adj[v] if pos[u] > pos[v]}
        bags.append({v} | later)
        for a in later:
            adj[a] |= later
            adj[a].discard(a)
    edges = []
    for i, v in enumerate(order):
        later = bags[i] - {v}
        if later:
            edges.append((i, pos[min(later, key=lambda x: pos[x])]))
        elif i + 1 < g.n:
            edges.append((i, i + 1))  # keep disconnected graphs in one tree
    return Decomposition(bags, edges, kind="tree")


def join_minima_by_splits(ctx, apex_pos, table):
    """treewidth_fast's join minima by trying every split of every target.

    For each bag holding the apex, the targets are the unions P of two or
    more components of the cover graph outside the bag; the value of P is
    the min over splits P = A + B into children that have a value in the
    finished treewidth `table` of max(a[A], a[B], |bag| - 1 + (vertices
    straddling the split)), where a non-cover vertex straddles unless all
    its neighbours outside the bag lie in A, in B or outside P. Returns
    {(union(P) << k) | bag: value} over the targets that have a split.
    """
    k = ctx.k
    slot = 8 * (k + 1)
    out = {}
    for bag in range(1 << k):
        if not bag >> apex_pos & 1:
            continue
        rest = ctx.full & ~bag
        comps = []
        left = rest
        while left:
            comp = left & -left
            while True:
                grown = comp
                for i in range(k):
                    if comp >> i & 1:
                        grown |= ctx.cov_adj[i] & rest
                if grown == comp:
                    break
                comp = grown
            comps.append(comp)
            left &= ~comp

        def child(w):
            v = (table.get((w << k) | bag, 0) >> slot) & 255
            return v - 1 if v else None

        def straddling(a_side, b_side):
            outside = rest & ~(a_side | b_side)
            return sum(cnt for m, cnt in ctx.types
                       if m & rest and all(m & rest & ~side for side in
                                           (a_side, b_side, outside)))

        def union(pick):
            return sum(comps[i] for i in range(len(comps)) if pick >> i & 1)

        for pick in range(1 << len(comps)):
            if bin(pick).count("1") < 2:
                continue
            best = None
            sub = (pick - 1) & pick
            while sub:
                a_side, b_side = union(sub), union(pick ^ sub)
                va, vb = child(a_side), child(b_side)
                if va is not None and vb is not None:
                    val = max(va, vb, bin(bag).count("1") - 1
                              + straddling(a_side, b_side))
                    best = val if best is None else min(best, val)
                sub = (sub - 1) & pick
            if best is not None:
                out[(union(pick) << k) | bag] = best
    return out


def solve_recording_joins(solve, g, *args, **kwargs):
    """(solve(g, ...), its join values) for a treewidth solver.

    The join values map each (below, bag) that the sweep stored with a join
    lower to max(|bag| - 1 + tight, the min of its join candidates), tight
    being 1 if some vertex's neighborhood is exactly the bag. The sweep's
    join provider is wrapped to see the candidates, and the table the sweep
    returns tells which triples it stored.
    """
    values = {}

    def recording(ctx, apex_pos, stats, *, joins, **hooks):
        seen = {}

        def recorded(table, below, bag, cross):
            split = joins(table, below, bag, cross)
            if split:
                seen[(below, bag)] = min(split)
            return split

        table = states.sweep(ctx, apex_pos, stats, joins=recorded, **hooks)
        for (below, bag), best in seen.items():
            if (below << ctx.k) | bag in table:
                floor = bag.bit_count() - 1 + (bag in ctx.type_masks)
                values[(below, bag)] = max(floor, best)
        return table

    bound = treewidth.sweep, treewidth_fast.sweep
    treewidth.sweep = treewidth_fast.sweep = recording
    try:
        return solve(g, *args, **kwargs), values
    finally:
        treewidth.sweep, treewidth_fast.sweep = bound


def scan_types(types, below, ahead):
    """Split independent-vertex types by which sides of a triple they see.

    Returns (crossing count, below-only types, ahead-only types, bag-only
    types); the latter three keep (mask, count) pairs. The reference for the
    solvers' O(1) boundary counts.
    """
    crossing = 0
    below_only = []
    ahead_only = []
    bag_only = []
    for m, cnt in types:
        if m & below:
            if m & ahead:
                crossing += cnt
            else:
                below_only.append((m, cnt))
        elif m & ahead:
            ahead_only.append((m, cnt))
        else:
            bag_only.append((m, cnt))
    return crossing, below_only, ahead_only, bag_only


def pw_tight_by_scan(bag_only, introduced, forgotten):
    """1 if a bag-only type sees the introduced vertex (if any, >= 0) and
    the forgotten one (if any, >= 0): its pendant bag must sit in this
    pathwidth state."""
    return int(any((introduced < 0 or m >> introduced & 1)
                   and (forgotten < 0 or m >> forgotten & 1)
                   for m, _ in bag_only))


def pw_by_full_sweep(ctx, apex_pos):
    """Pathwidth DP value over every valid triple, bags without the apex
    included, by literal type scans: the final state's value, which is the
    apexed graph's pathwidth.

    Bases are the singleton bags with nothing below. Each state value is
    the min over lower ops of max(predecessor, local width), with an
    introduce(u) lower charging the below-only types that see u, a forget(v)
    upper the ahead-only types that see v, and a tightness of one when a
    bag-only type needs its pendant bag in this state.
    """
    k, full = ctx.k, ctx.full
    value = {}  # (below, bag, upper) -> value; upper -1 introduces
    for below, bag in ctx.valid_triples():
        ahead = full & ~(below | bag)
        crossing, below_only, ahead_only, bag_only = scan_types(
            ctx.types, below, ahead)
        base = bag.bit_count() + crossing - 1
        lowers = []  # (introduced or -1, xl, predecessor value)
        if below == 0 and bag.bit_count() == 1:
            lowers.append((bag.bit_length() - 1, 0, 0))
        for u in range(k):
            if bag >> u & 1 and not ctx.cov_adj[u] & below:
                pred = value.get((below, bag ^ (1 << u), -1))
                if pred is not None:
                    xl = sum(c for m, c in below_only if m >> u & 1)
                    lowers.append((u, xl, pred))
            if below >> u & 1:
                pred = value.get((below ^ (1 << u), bag | (1 << u), u))
                if pred is not None:
                    lowers.append((-1, 0, pred))
        uppers = [(-1, 0)] if ahead else []
        uppers += [(v, sum(c for m, c in ahead_only if m >> v & 1))
                   for v in range(k)
                   if bag >> v & 1 and not ctx.cov_adj[v] & ahead]
        for v, xr in uppers:
            cands = [max(pred, base + max(xl, xr,
                                          pw_tight_by_scan(bag_only, u, v)))
                     for u, xl, pred in lowers]
            if cands:
                value[(below, bag, v)] = min(cands)
    return value[(full ^ (1 << apex_pos), 1 << apex_pos, apex_pos)]
