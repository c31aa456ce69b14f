"""Acceptance gate: one test per shipped guarantee, pass/fail per line.

The two instance suites (exhaustive n=6, stratified random n=7..10) are
computed once per session and shared; their aggregate counters are asserted
by the individual criteria so each guarantee gets its own verdict line.
"""

import random
import time

import pytest

from vcwidth.complement import pathwidth_cvc
from vcwidth.convolution import SetFunction, convolve
from vcwidth.cover import minimum_vertex_cover
from vcwidth.decomposition import find_violations
from vcwidth.errors import ParseError
from vcwidth.formats import emit_gr, emit_td, parse_gr, parse_td
from vcwidth.graph import Graph
from vcwidth.oracle import pathwidth_exact, treewidth_exact
from vcwidth.pathwidth import pathwidth_vc
from vcwidth import treewidth
from vcwidth.treewidth import treewidth_vc_4k
from vcwidth.treewidth_fast import treewidth_vc_3k

from genutil import (add_universal_vertex, enumerate_small_graphs, identity,
                     naive_convolve, random_graph, random_graph_with_cover,
                     solve_recording_joins)

TRIPLE_CAP = lambda k: 3 ** (k + 1)  # noqa: E731


def witness_ok(g, width, dec):
    return not find_violations(g, dec) and dec.width == width


def check_instance(g, agg):
    """Run every solver on g, compare to the oracles, update counters."""
    otw = treewidth_exact(g)
    opw = pathwidth_exact(g)
    s_pw, s_t4, s_t3 = {}, {}, {}
    pw, pdec = pathwidth_vc(g, stats=s_pw)
    (tw4, tdec4), jv4 = solve_recording_joins(treewidth_vc_4k, g, stats=s_t4)
    (tw3, tdec3), jv3 = solve_recording_joins(treewidth_vc_3k, g, stats=s_t3)
    agg["graphs"] += 1
    if pw != opw or tw4 != otw or tw3 != otw:
        agg["oracle_mismatch"] += 1
    if tw3 != tw4:
        agg["cross_mismatch"] += 1
    if jv3 != jv4:
        agg["join_key_mismatch"] += 1
    for w, dec in ((pw, pdec), (tw4, tdec4), (tw3, tdec3)):
        if not witness_ok(g, w, dec):
            agg["witness_bad"] += 1
    for st in (s_pw, s_t4, s_t3):
        if st["valid_triples"] > TRIPLE_CAP(st["cover_size"]):
            agg["triples_excess"] += 1


def fresh_agg():
    return {"graphs": 0, "oracle_mismatch": 0, "cross_mismatch": 0,
            "join_key_mismatch": 0, "witness_bad": 0, "triples_excess": 0}


@pytest.fixture(scope="module")
def exhaustive6():
    agg = fresh_agg()
    start = time.monotonic()
    for g in enumerate_small_graphs(6):
        check_instance(g, agg)
    agg["elapsed"] = time.monotonic() - start
    return agg


@pytest.fixture(scope="module")
def random_suite():
    rng = random.Random(20260814)
    agg = fresh_agg()
    agg["per_n"] = {}
    agg["cvc_tested"] = 0
    agg["cvc_mismatch"] = 0
    start = time.monotonic()
    for n in range(7, 11):
        for p in (0.2, 0.5, 0.8):
            for _ in range(168):
                g = random_graph(rng, n, p)
                check_instance(g, agg)
                agg["per_n"][n] = agg["per_n"].get(n, 0) + 1
                if p == 0.8:
                    comp_cover = minimum_vertex_cover(g.complement())
                    if len(comp_cover) <= 8:
                        w, dec = pathwidth_cvc(g)
                        agg["cvc_tested"] += 1
                        if w != pathwidth_exact(g) or not witness_ok(g, w, dec):
                            agg["cvc_mismatch"] += 1
    agg["elapsed"] = time.monotonic() - start
    return agg


def test_criterion_1_exhaustive_oracle_equivalence(exhaustive6):
    assert exhaustive6["graphs"] == 1 << 15
    assert exhaustive6["oracle_mismatch"] == 0
    assert exhaustive6["elapsed"] < 1200


def test_criterion_2_randomized_oracle_equivalence(random_suite):
    for n in range(7, 11):
        assert random_suite["per_n"][n] == 504
        assert random_suite["per_n"][n] >= 500
    assert random_suite["oracle_mismatch"] == 0
    assert random_suite["cvc_tested"] > 0
    assert random_suite["cvc_mismatch"] == 0


def test_criterion_3_witness_soundness(exhaustive6, random_suite):
    assert exhaustive6["witness_bad"] == 0
    assert random_suite["witness_bad"] == 0


def test_criterion_4_cross_solver_equality(exhaustive6, random_suite):
    assert exhaustive6["cross_mismatch"] == 0
    assert random_suite["cross_mismatch"] == 0
    assert exhaustive6["join_key_mismatch"] == 0


def test_criterion_5_subset_convolution():
    rng = random.Random(77)
    for s in range(1, 13):
        one = identity(s)
        for _ in range(100):
            fv = [rng.randrange(0, 50) for _ in range(1 << s)]
            gv = [rng.randrange(0, 50) for _ in range(1 << s)]
            f, g = SetFunction(s, fv), SetFunction(s, gv)
            fast = convolve(f, g).values
            assert fast == naive_convolve(fv, gv, s)
            assert convolve(g, f).values == fast
            assert convolve(f, one).values == fv


def test_criterion_6_universal_vertex_shift():
    rng = random.Random(78)
    for _ in range(200):
        n = rng.randrange(1, 9)
        g = random_graph(rng, n, rng.random())
        gp, _ = add_universal_vertex(g)
        assert treewidth_exact(gp) == treewidth_exact(g) + 1
        assert pathwidth_exact(gp) == pathwidth_exact(g) + 1


def test_criterion_7_structural_bounds(exhaustive6, random_suite,
                                       monkeypatch):
    # join cells are read from unbounded sweeps, which reach every apex bag,
    # so they measure the whole join universe and not how far a bounded
    # sweep got
    assert exhaustive6["triples_excess"] == 0
    assert random_suite["triples_excess"] == 0
    cases = []
    for k in (8, 10, 12):
        rng = random.Random(4000 + k)
        cases.append((k, random_graph_with_cover(rng, k, k + 10, 0.35)))
    for k, g in cases:
        stats = {}
        treewidth_vc_3k(g, cover=set(range(k)), stats=stats)
        assert stats["valid_triples"] <= TRIPLE_CAP(k)
    monkeypatch.setattr(treewidth, "width_bound", lambda ctx: 1 << 30)
    cells = []
    for k, g in cases:
        stats = {}
        treewidth_vc_3k(g, cover=set(range(k)), stats=stats)
        cells.append(stats["join_cells"])
    assert cells == [2676, 56352, 211624]
    ratios = [c / 3 ** k for c, (k, _) in zip(cells, cases)]
    assert max(ratios) <= 4 * min(ratios), ratios


def test_criterion_8_scale_smoke():
    start = time.monotonic()
    g = random_graph_with_cover(random.Random(20260814), 16, 40, 0.35)
    w, dec = pathwidth_vc(g, cover=set(range(16)))
    assert w == 14 and witness_ok(g, w, dec)
    assert time.monotonic() - start < 300

    start = time.monotonic()
    g = random_graph_with_cover(random.Random(20260814), 12, 30, 0.35)
    w, dec = treewidth_vc_3k(g, cover=set(range(12)))
    assert w == 10 and witness_ok(g, w, dec)
    assert time.monotonic() - start < 600

    start = time.monotonic()
    base = Graph(24, [(u, v) for u in range(19) for v in range(u + 1, 19)])
    g = base.complement()
    stats = {}
    w, dec = pathwidth_cvc(g, stats=stats)
    assert stats["cover_size"] == 18
    assert w == 5 and witness_ok(g, w, dec)
    assert time.monotonic() - start < 300


def _fuzz_case(rng):
    kind = rng.randrange(6)
    if kind == 0:  # raw bytes
        return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60))), rng.random() < 0.5
    if kind == 1:  # random ascii token soup
        tokens = "p tw s td b c 0 1 2 -1 17 x % \t".split(" ")
        lines = [" ".join(rng.choice(tokens)
                          for _ in range(rng.randrange(0, 6)))
                 for _ in range(rng.randrange(0, 8))]
        return "\n".join(lines), rng.random() < 0.5
    n = rng.randrange(0, 7)
    g = random_graph(rng, n, rng.random())
    if kind in (2, 3):
        text = emit_gr(g)
        use_gr = True
    else:
        w, dec = pathwidth_vc(g) if rng.random() < 0.5 else treewidth_vc_4k(g)
        text = emit_td(dec, n)
        use_gr = False
    if kind in (3, 5):  # mutate the valid document
        lines = text.splitlines()
        for _ in range(rng.randrange(1, 4)):
            op = rng.randrange(5)
            if op == 0 and lines:
                del lines[rng.randrange(len(lines))]
            elif op == 1 and lines:
                lines.insert(rng.randrange(len(lines) + 1),
                             lines[rng.randrange(len(lines))])
            elif op == 2 and lines:
                i = rng.randrange(len(lines))
                toks = lines[i].split()
                if toks:
                    toks[rng.randrange(len(toks))] = str(rng.randrange(-999, 9999))
                    lines[i] = " ".join(toks)
            elif op == 3:
                lines.insert(rng.randrange(len(lines) + 1), "zz 1 2")
            elif op == 4 and lines:
                i = rng.randrange(len(lines))
                lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        text = "\n".join(lines)
    return text, use_gr


def test_criterion_9_parser_fuzz():
    rng = random.Random(90009)
    accepted = rejected = 0
    for case in range(10000):
        data, use_gr = _fuzz_case(rng)
        text = data.decode("utf-8", "replace") if isinstance(data, bytes) else data
        line_count = max(1, len(text.splitlines()))
        try:
            if use_gr:
                parse_gr(data)
            else:
                # the reader leaves the bag graph's shape to the validator,
                # which must judge whatever the reader accepts
                dec, n = parse_td(data)
                find_violations(Graph(n), dec)
            accepted += 1
        except ParseError as exc:
            rejected += 1
            assert isinstance(exc.line, int) and 1 <= exc.line <= line_count + 1, \
                f"case {case}: bad line number {exc.line!r}"
            assert exc.message and "line" in str(exc), f"case {case}"
    assert accepted > 100 and rejected > 1000, (accepted, rejected)
