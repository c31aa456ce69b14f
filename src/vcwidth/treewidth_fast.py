"""Treewidth solver with joins via subset convolution instead of part
enumeration.

Same states, values and sweep (states.sweep, with treewidth's hooks) as
treewidth.py, but the per-state minimum over join bipartitions, the join
provider's answer, is not found by enumerating bipartitions of `below`.
The sweep runs once, its triples ordered so that |below| never falls. The
first time it reaches a triple with |below| = s at bag X within the width
bound, it computes X's join minima for every target of cover rank s from
the live table: a join of a target of rank s reads only children of rank
below s at X, and the sweep has finished all of those, while no child of
rank s or higher at X has been reached yet.

The universe of a bag's joins is its c components: the connected components
of the cover graph minus X. Every feasible child W and every target L is a
union of them, so all tables have 2^c cells, with c at most the number of
cover vertices outside X. z[W] counts the non-cover vertices confined to W
(a vertex counts for the unions that hold all its neighbours outside X);
maximizing z[A] + z[B] over the splits L = A + B minimizes the vertices
straddling the split, the only part of the local width that depends on it.

Candidate thresholds t run over the distinct child values; the optimum
split's larger child value is one of them, so the probe is exhaustive. At t
the new splits are those whose larger child value is exactly t. For each
group of such children sharing one z value v1, a single subset convolution
pairs the group's 0/1 indicator with every child of value at most t, packed
as g[B] = 1 << ((c+1) * rank(z[B])) over every partner rank at once: h[L]
counts the splits of L per partner rank in digits of c+1 bits, so the top
non-zero digit of h[L] names the best partner z for v1. A group is skipped
once no pending target can gain from it.

A bag's data (components, z, the union of each component pick, the split
penalty base, the targets by rank) is built once, when the sweep first
reaches a triple at the bag with two or more cover vertices below, the
least rank of a target; `join_cells` counts the 2^|C minus X| cells of the
bags built. A child's value is its table entry, the triple's V, which is
also its join upper slot. The table is treewidth_table's entry for entry, and so are the join minima of
every stored triple, so the answers and the witness reconstruction are
treewidth.py's.
"""

from __future__ import annotations

from .convolution import STATS, SetFunction, convolve, zeta
from .decomposition import Decomposition
from .states import apex_context, components_outside, sweep
from .treewidth import _sweep_hooks, decide_width, reconstruct_tree


def _split_minima(c, z, a, base, targets):
    """Best split value of each target, a union of at least two of c
    components.

    `z[P]` counts the non-cover vertices confined to the components in P,
    `a[P]` is the child value of P (None if P is no feasible child), and
    `base` is the local width of a split that confines nothing. Returns
    {P: value} over the targets P that split into two feasible children,
    the value being the minimum over splits P = A + B of max(a[A], a[B],
    base - z[~P] - z[A] - z[B]).

    Thresholds t run over the distinct child values; at t only splits whose
    larger child value is exactly t are new, so the A side is a group of
    children with a == t and one z value v1, the B side every child with
    a <= t. The B side is packed as g[B] = 1 << ((c+1) * rank(z[B])): the
    convolution h[P] then counts, digit by digit, the splits of P whose
    B-side z has that rank (at most 2^c < 2^(c+1) of them), so the top
    non-zero digit of h[P] names the best partner of v1 in P. One
    convolution carries every partner rank: with R distinct z values among
    the children of value at most t (R <= min(2^c, n) on n vertices), it
    holds 2^c cells of at most 2c+1 lanes of (c+1)*R + 1 bits each.
    """
    size = 1 << c
    full = size - 1
    digit = c + 1
    by_value = {}
    for p in range(1, size):
        if a[p] is not None:
            by_value.setdefault(a[p], []).append(p)
    best = {}
    pending = targets
    active = []
    for t in sorted(by_value):
        # a split first seen at t is worth at least t
        pending = [p for p in pending if best.get(p, t + 1) > t]
        if not pending:
            break
        new = by_value[t]
        active.extend(new)
        vals = sorted({z[p] for p in active})
        rank = {v: i for i, v in enumerate(vals)}
        groups = {}
        for p in new:
            groups.setdefault(z[p], []).append(p)
        g = [0] * size
        for p in active:
            g[p] = 1 << (digit * rank[z[p]])
        g = SetFunction(c, g)
        straddle = {}
        for v1 in sorted(groups, reverse=True):
            if all(straddle.get(p, -1) >= v1 + vals[-1] for p in pending):
                break  # nor can any group of a smaller v1
            f = [0] * size
            for p in groups[v1]:
                f[p] = 1
            h = convolve(SetFunction(c, f), g).values
            for p in pending:
                if h[p]:
                    ssum = v1 + vals[(h[p].bit_length() - 1) // digit]
                    if ssum > straddle.get(p, -1):
                        straddle[p] = ssum
        for p, ssum in straddle.items():
            val = max(t, base - z[full ^ p] - ssum)
            if val < best.get(p, val + 1):
                best[p] = val
    return best


class _BagJoins:
    """Join data of one bag, built by the sweep's join provider when it
    first asks for the bag's joins.

    The universe is the bag's c components outside the cover: every child
    and every target of a join below the bag is a union of them. `keys[P]`
    is the state key of the union of the components in P, and `targets`
    maps each cover rank s to the unions of two or more components with s
    cover vertices whose minima are still to be computed.
    """

    __slots__ = ("c", "z", "base", "keys", "targets")

    def __init__(self, ctx, bag, rest, comps):
        k = ctx.k
        c = len(comps)
        size = 1 << c
        masks = [0] * size
        for p in range(1, size):
            low = p & -p
            masks[p] = masks[p ^ low] | comps[low.bit_length() - 1]
        cnt = [0] * size
        total = 0
        for m, mult in ctx.types:
            m &= rest
            if m:
                foot = 0
                for i, comp in enumerate(comps):
                    if m & comp:
                        foot |= 1 << i
                cnt[foot] += mult
                total += mult
        self.c = c
        self.z = zeta(SetFunction(c, cnt)).values
        self.base = bag.bit_count() - 1 + total
        self.keys = [(w << k) | bag for w in masks]
        self.targets = {}
        for p in range(3, size):
            if p & (p - 1):
                self.targets.setdefault(masks[p].bit_count(), []).append(p)


def _join_minima(ctx, bj, targets, table):
    """Best join-bipartition value of each target of one bag, read from the
    live table, whose entries are the children's values as they stand:
    {(below << k) | bag: value} over the targets that split into two
    reached children. Entries already include the split penalty (crossing +
    straddlers) but not the bag-only tightness.
    """
    a = [table.get(key) for key in bj.keys]
    best = _split_minima(bj.c, bj.z, a, bj.base, targets)
    return {bj.keys[p]: v for p, v in best.items()}


def _layer_sweep(ctx, apex_pos, stats=None, limit=None):
    """The treewidth DP sweep (states.sweep) within `limit` (default the
    width bound), building each bag's join data and computing its join
    minima rank by rank as the sweep reaches them."""
    k = ctx.k
    bags = {}  # bag: its _BagJoins, or None if it has no joins
    jmin = {}

    def joins(table, below, bag, cross):
        if not below & (below - 1):
            return []  # a target spans two components, so two cover vertices
        bj = bags.get(bag, False)
        if bj is False:  # first ask at this bag: build its join data
            rest = ctx.full ^ bag
            comps = components_outside(ctx.cov_adj, rest)
            bj = bags[bag] = (_BagJoins(ctx, bag, rest, comps)
                              if len(comps) >= 2 else None)
        if bj is None:
            return []
        targets = bj.targets.pop(below.bit_count(), None)
        if targets:
            jmin.update(_join_minima(ctx, bj, targets, table))
        split = jmin.pop((below << k) | bag, None)
        return [] if split is None else [split]

    table = sweep(ctx, apex_pos, stats, joins=joins,
                  **_sweep_hooks(ctx, limit))
    if stats is not None:  # the cells of the bags built
        stats["join_cells"] = sum(1 << (ctx.full ^ bag).bit_count()
                                  for bag, bj in bags.items() if bj)
    return table


def treewidth_vc_3k(g, cover=None, stats=None):
    """Exact treewidth of g via joins by subset convolution, plus witness.

    Interface matches treewidth_vc_4k, and so do the computed values, the
    join minima of every triple included; only the join machinery differs.
    """
    if g.n == 0:
        return -1, Decomposition([], [], kind="tree")
    ctx, apex = apex_context(g, cover, stats)
    if stats is not None:
        calls0 = STATS["convolve_calls"]
        cells0 = STATS["convolve_cells"]
    apex_pos = ctx.position[apex]
    width, table = decide_width(
        ctx, apex_pos, lambda limit: _layer_sweep(
            ctx, apex_pos, stats, limit), stats)
    if stats is not None:  # this solve's real convolution work
        stats["convolve_calls"] = STATS["convolve_calls"] - calls0
        stats["convolve_cells"] = STATS["convolve_cells"] - cells0
    return width, reconstruct_tree(g, ctx, table, apex, width)
