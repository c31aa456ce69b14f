"""Seeded instances and the calls each benchmark workload makes.

Graph structures come from `random_graph_with_cover` and `random_graph`,
which draw exactly like the helpers of the same name in `tests/genutil.py`,
always at STRUCTURE_SEED, the seed of ROADMAP item 1's baseline table
(instance 0 of each size uses `random.Random(STRUCTURE_SEED)` itself, so the
sparse ladder is that table's instances). The benchmark's `--seed` draws a
random relabeling of every vertex, which changes every input file, the
cover's bit order and every witness, but no width. At the default seed the
relabeling is the identity. The one exception is `wide`'s over-cap input,
whose labels set the exact cover search's work; it keeps its labels.

Why fixed structures: the solvers' time on fresh random structures is
heavy-tailed. Forty fresh tw-vc-3k instances at k = 8 (n = 22, p = 0.5)
took 9.0 s in-process under one seed and 21.7 s under another, one instance
alone 6.6 s, so passes over freshly drawn structures cannot be compared run
to run. Relabeled copies of one structure take the same time to within a
few percent. The program only
ever sees the `.gr` and cover files written here.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

STRUCTURE_SEED = 20260814
DEFAULT_SEED = STRUCTURE_SEED


def random_graph_with_cover(rng, k, n, p):
    """Edge list of a random graph all of whose edges touch 0..k-1."""
    return [(u, v) for u in range(k) for v in range(u + 1, n)
            if rng.random() < p]


def random_graph(rng, n, p):
    """Edge list of G(n, p)."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def complement_edges(n, edges):
    present = set(edges)
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if (u, v) not in present]


def instance_rng(index):
    """Instance 0 draws from Random(STRUCTURE_SEED), as the ROADMAP does."""
    return random.Random(STRUCTURE_SEED if index == 0
                         else f"{STRUCTURE_SEED}/{index}")


def full_type_count(k, edges):
    """Vertices outside 0..k-1 adjacent to all of it (K_{k,k} needs k)."""
    seen = {}
    for u, v in edges:
        if u < k <= v:
            seen[v] = seen.get(v, 0) + 1
    return sum(1 for c in seen.values() if c == k)


@dataclass
class Instance:
    """One graph structure; `key` names it by generator and parameters.

    `full_types` counts the vertices outside the planted cover 0..k-1 that
    see all of it, taken before relabeling.
    """
    key: str
    kind: str  # "cover", "complement" (of a "cover" graph) or "gnp"
    n: int
    edges: list
    cover: list | None = None  # 0-based planted cover, written if given
    k: int | None = None
    full_types: int = 0

    def relabeled(self, seed):
        """This structure with vertex v renamed perm[v], perm from `seed`."""
        if seed == DEFAULT_SEED:
            return self
        perm = list(range(self.n))
        random.Random(f"relabel/{seed}").shuffle(perm)
        edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                       for u, v in self.edges)
        cover = (None if self.cover is None
                 else sorted(perm[v] for v in self.cover))
        return Instance(f"{self.key}-r{seed}", self.kind, self.n, edges,
                        cover, self.k, self.full_types)

    def write(self, workdir):
        """Write `<key>.gr` (and `<key>.cover`); returns their paths."""
        gr = os.path.join(workdir, f"{self.key}.gr")
        with open(gr, "w") as fh:
            fh.write(f"p tw {self.n} {len(self.edges)}\n")
            fh.writelines(f"{u + 1} {v + 1}\n" for u, v in self.edges)
        cov = None
        if self.cover is not None:
            cov = os.path.join(workdir, f"{self.key}.cover")
            with open(cov, "w") as fh:
                fh.write(" ".join(str(v + 1) for v in self.cover) + "\n")
        return gr, cov


def sparse_instance(k, n, p, index):
    edges = random_graph_with_cover(instance_rng(index), k, n, p)
    return Instance(f"cov-k{k}-n{n}-p{p}-i{index}", "cover", n, edges,
                    list(range(k)), k, full_type_count(k, edges))


def dense_instance(k, n, p, index):
    """Complement of a sparse instance: the cover is of the complement."""
    edges = random_graph_with_cover(instance_rng(index), k, n, p)
    return Instance(f"cmp-k{k}-n{n}-p{p}-i{index}", "complement", n,
                    complement_edges(n, edges), list(range(k)), k)


def gnp_instance(n, p, index):
    edges = random_graph(instance_rng(index), n, p)
    return Instance(f"gnp-n{n}-p{p}-i{index}", "gnp", n, edges)


@dataclass
class Call:
    """One CLI invocation and what a correct answer looks like.

    `measure` is "pw" or "tw"; calls sharing an instance get the check
    tw <= pw. A call expected to exit 0 emits and has checked a witness;
    `expect_exit` 3 means the instance must hit the cover cap.
    `references` holds (width, source) pairs; the width must equal each.
    """
    name: str
    instance: Instance
    argv: list
    measure: str
    use_cover: bool = False
    expect_exit: int = 0
    references: list = field(default_factory=list)


def _cli_args(sub, algo):
    return [sub] + ([] if algo is None else ["--algo", algo])


def _solve_calls(inst, specs, use_cover):
    return [Call(f"{sub}{'-' + algo if algo else ''}:{inst.key}", inst,
                 _cli_args(sub, algo), sub, use_cover=use_cover)
            for sub, algo in specs]


def _relabel(calls, seed):
    """Give every call its instance relabeled by `seed`, one copy per
    structure. Call names keep the structure's key: a call's reference
    width holds under every seed."""
    copies = {}
    for call in calls:
        key = call.instance.key
        if key not in copies:
            copies[key] = call.instance.relabeled(seed)
        call.instance = copies[key]
    return calls


def sparse_ladder(seed):
    """Cover-DP sweeps with many states and few independent-vertex types:
    pw-vc and tw-vc-4k on ROADMAP item 1's ladder, cover given."""
    calls = []
    for k in (11, 12, 13, 14):
        inst = sparse_instance(k, 2 * k + 6, 0.35, 0)
        calls += _solve_calls(inst, [("pw", None), ("tw", "4k")], True)
    return _relabel(calls, seed)


def tw_default(seed):
    """What `vcwidth tw` runs by default, tw-vc-3k: layered joins by
    subset convolution. Cover given, so the cover size is fixed."""
    calls = []
    for i in range(20):  # many short calls: no single call dominates
        inst = sparse_instance(7, 20, 0.35, i)
        calls += _solve_calls(inst, [("tw", None)], True)
    return _relabel(calls, seed)


def wide(seed):
    """Large n with small k, cover searched: few states, many types, big
    witnesses to validate; and one input whose cover is far above the cap,
    where the CLI must exit 3 after the exact cover search."""
    calls = []
    for n in (2000, 3000):
        inst = sparse_instance(5, n, 0.35, 0)
        calls += _solve_calls(inst, [("pw", None), ("tw", "4k")], False)
    inst = sparse_instance(12, 400, 0.35, 0)
    calls += _solve_calls(inst, [("pw", None)], False)
    # Not relabeled: the cover search breaks ties by vertex number, so a
    # relabeling changes its work (7.7k to 11k search nodes over 12 seeds),
    # where the solvers' work stays the same.
    over = gnp_instance(150, 0.04, 0)
    return _relabel(calls, seed) + [
        Call(f"pw:{over.key}", over, ["pw"], "pw", expect_exit=3)]


def dense_cvc(seed):
    """pw-cvc on complements of sparse graphs: the 2^k' rooted table and
    glue loop. Two calls search the complement's cover themselves."""
    calls = []
    for i in range(8):  # short calls: host-speed calibration follows them
        inst = dense_instance(18, 24, 0.35, i)
        calls += _solve_calls(inst, [("pw", "cvc")], use_cover=i < 6)
    return _relabel(calls, seed)


WORKLOADS = {
    "sparse-ladder": sparse_ladder,
    "tw-default": tw_default,
    "wide": wide,
    "dense-cvc": dense_cvc,
}
