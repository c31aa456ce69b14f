"""Tests of the benchmark itself: the generator, the answer gate and the
traced run. Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import random
import sys

import pytest

import gate
import run
import spans
import workloads

sys.path.insert(0, str(run.ROOT / "src"))
sys.path.insert(0, str(run.ROOT / "tests"))

from vcwidth import cli  # noqa: E402


def tiny(seed):
    """Two small instances, each solved by pw (cover given) and default tw."""
    calls = []
    for i in range(2):
        inst = workloads.sparse_instance(4, 10, 0.5, i)
        calls += workloads._solve_calls(inst, [("pw", None)], True)
        calls += workloads._solve_calls(inst, [("tw", None)], False)
    return workloads._relabel(calls, seed)


@pytest.fixture
def bench(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    monkeypatch.setitem(run.EXPECTED_SPANS, "tiny",
                        ["pathwidth.partial_width_table",
                         "convolution.convolve", "decomposition.validate"])
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return run.Bench("tiny", 7, str(tmp_path), cli)


def tampered_spawn(monkeypatch, edit):
    """Make every CLI call's result pass through `edit` first."""
    real = gate.spawn

    def fake(argv, env, workdir, timeout_s):
        res = real(argv, env, workdir, timeout_s)
        return res if argv[-1].endswith("one-edge.gr") else edit(res)

    monkeypatch.setattr(gate, "spawn", fake)


def test_generator_matches_test_helpers():
    genutil = pytest.importorskip("genutil")
    seed = workloads.STRUCTURE_SEED
    g = genutil.random_graph_with_cover(random.Random(seed), 9, 24, 0.35)
    assert workloads.sparse_instance(9, 24, 0.35, 0).edges == sorted(g.edges)
    g = genutil.random_graph(random.Random(seed), 40, 0.1)
    assert workloads.gnp_instance(40, 0.1, 0).edges == sorted(g.edges)


def test_relabeling_keeps_the_structure():
    inst = workloads.sparse_instance(5, 30, 0.35, 0)
    assert inst.relabeled(workloads.DEFAULT_SEED) is inst
    copy = inst.relabeled(3)
    assert copy.edges != inst.edges and len(copy.edges) == len(inst.edges)
    degrees = sorted(sum(v in e for e in copy.edges) for v in copy.cover)
    assert degrees == sorted(sum(v in e for e in inst.edges)
                             for v in inst.cover)
    assert workloads.sparse_instance(5, 30, 0.35, 0).relabeled(3) == copy


def test_clean_run_passes(bench):
    res = run.timed_run(bench, 0, run.child_env())
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == len(bench.calls)
    assert set(res["metrics"]) == set(run.GATED)


def _fail_one_width(res):
    if res.stdout.startswith(b"width: "):
        w = gate.parse_width(res.stdout)
        res.stdout = res.stdout.replace(b"width: %d" % w,
                                        b"width: %d" % (w + 1), 1)
    return res


def _corrupt_td(res):
    lines = res.stdout.split(b"\n")
    bag_lines = [i for i, x in enumerate(lines) if x.startswith(b"b ")]
    if bag_lines:  # empty the first bag: its vertices may vanish
        i = bag_lines[0]
        lines[i] = b" ".join(lines[i].split()[:2])
        res.stdout = b"\n".join(lines)
    return res


def _drop_path_line(res):
    res.stdout = res.stdout.replace(b"\nc path\n", b"\n", 1)
    return res


def _exit_3(res):
    res.exit = 3
    return res


@pytest.mark.parametrize("edit", [_fail_one_width, _corrupt_td,
                                  _drop_path_line, _exit_3],
                         ids=["wrong-width", "corrupt-td", "pw-path-undeclared",
                              "exit-code"])
def test_gate_bites(bench, monkeypatch, capsys, edit):
    tampered_spawn(monkeypatch, edit)
    res = run.timed_run(bench, 0, run.child_env())
    out = capsys.readouterr().out
    assert not res["correct"]
    assert res["failed"] > 0
    assert "FAILED" in out
    frac = float(out.split("failed_frac")[1].split()[0])
    assert frac == res["failed"] / res["attempted"] > 0


def test_wrong_reference_fails(bench):
    call = bench.calls[0]
    code, out, err, _ = run.run_inprocess(cli, bench.argv(call))
    problems, _ = bench.gate.verdict(call, bench.paths[call.instance.key],
                                     code, out, err)
    assert problems == []
    call.references.append((gate.parse_width(out) + 1, "a wrong one"))
    call.name += "#wrong"
    problems, _ = bench.gate.verdict(call, bench.paths[call.instance.key],
                                     code, out, err)
    assert any("reference" in p for p in problems)


def test_traced_widths_equal_untraced(bench):
    argvs = [bench.argv(c) for c in bench.calls]
    plain = [run.run_inprocess(cli, a)[:3] for a in argvs]
    with spans.TracedRun("vcwidth") as tracer:
        traced = [run.run_inprocess(cli, a)[:3] for a in argvs]
    assert traced == plain
    assert tracer.calls["pathwidth.partial_width_table"] == 2
    assert tracer.counters["convolution.convolve.calls"] > 0
    res = run.traced_run(bench, 0)
    assert res["correct"] and res["failed"] == 0
    names = {n for n, _, _ in run.per_layer_metrics()}
    assert set(res["metrics"]) == names


def test_tracing_restores_every_binding(bench):
    from vcwidth import formats, states, treewidth_fast
    before = (cli.parse_gr, treewidth_fast.convolve,
              states.CoverContext.valid_triples)
    with spans.TracedRun("vcwidth"):
        assert cli.parse_gr is not before[0]
        assert treewidth_fast.convolve is not before[1]
    assert (cli.parse_gr, treewidth_fast.convolve,
            states.CoverContext.valid_triples) == before
    assert formats.parse_gr is cli.parse_gr


def test_missing_span_fails_the_traced_run(bench, monkeypatch):
    monkeypatch.setitem(run.EXPECTED_SPANS, "tiny",
                        ["complement.rooted_pw_table"])
    res = run.traced_run(bench, 0)
    assert not res["correct"]


def test_ranked_ops_formula():
    # s = 1: zeta/Moebius 3 * 2 * 1 * 1 = 6 additions, products 3 * 2 = 6
    assert spans.ranked_ops(1) == 12
    assert spans.ranked_ops(0) == 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_metrics()
