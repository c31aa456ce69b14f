"""vcwidth benchmark: seeded CLI workloads with every answer checked.

Usage, from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload sparse-ladder --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all            # every workload, in turn
    python3 perfbench/run.py --report                  # ROADMAP item 1's table
    python3 -m pytest -q perfbench/selftest.py         # the benchmark's tests

Each workload is a fixed set of graph structures whose vertices `--seed`
relabels (see workloads.py). `--trace 0` times the CLI: a closed loop with
one client runs the workload's calls in turn, each `python -m vcwidth` in
its own process, over and over until `--seconds` is used up, and reports
each call's median over its runs, summed over the calls for a pass's time
(see END_TO_END). `--trace 1` instead runs the same calls in-process,
each untraced and then with every layer wrapped (see spans.py), and
reports per-layer times and counters; the two runs' widths must agree.
Either way the last line of stdout is one JSON object: correct, attempted,
failed, metrics.

Calls run with PYTHONPATH set to ./src and otherwise the environment and
CPUs a user's shell would give them. Answers are judged by gate.py;
`--verbose` prints each call's reference widths with their sources, and each
call's time. Instance generation, reference solves and witness checks are
untimed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# A timed run stops its calls this long after measuring starts, so that it
# ends well inside 180 s even when the program hangs.
RUN_DEADLINE_S = 140
SETUP_REPEATS = 9
REFERENCE_FILE = HERE / "reference_widths.json"
NO_REFERENCE = "none reaches: witness and tw <= pw only"

END_TO_END = [  # (name, unit, what it is)
    ("wall_s", "s", "wall seconds of a pass: each call's median, summed"),
    ("wall_ref_s", "s", "wall_s at the reference host speed (see CAL_REF_S)"),
    ("max_call_s", "s", "median wall seconds of the slowest call"),
    ("cpu_s", "s", "user+sys seconds of a pass's processes, as wall_s"),
    ("cpu_ref_s", "s", "cpu_s at the reference host speed"),
    ("peak_rss_mb", "MB", "largest median peak RSS of a call"),
    ("setup_s", "s", "setup_wall_s at the reference start-up speed"),
    ("setup_wall_s", "s", "wall seconds of the CLI on a one-edge graph"),
]
# Gated in BENCHMARK.json; the rest of END_TO_END is printed only. Raw
# times drift with the load other tenants put on a shared host (identical
# inputs read 6.6 s to 9.4 s within minutes), which the reference-speed
# times mostly cancel.
GATED = ("wall_ref_s", "cpu_ref_s", "peak_rss_mb", "setup_s")

# Host speed: a fixed pure-Python loop, timed twice in this process between
# consecutive calls. A call's reference-speed time is its raw time scaled by
# CAL_REF_S over the median of the four loop times around it: seconds on a
# host where the loop takes CAL_REF_S, about its time on an idle core of the
# 2-core host the benchmark was written on.
CAL_LOOP = 300_000
CAL_REF_S = 0.020


def calibration_s():
    """Seconds one run of the calibration loop takes right now."""
    start = time.perf_counter()
    x = 0
    for i in range(CAL_LOOP):
        x += i * i
    return time.perf_counter() - start


TIMED_LAYERS = [  # (layer, "s" inclusive or "self_s")
    ("pathwidth.partial_width_table", "self_s"),
    ("treewidth.treewidth_table", "self_s"),
    ("states.valid_triples", "s"),
    ("convolution.convolve", "s"),
    ("treewidth_fast._join_minima", "self_s"),
    ("treewidth_fast._layer_sweep", "self_s"),
    ("complement.rooted_pw_table", "s"),
    ("complement.pathwidth_cvc", "self_s"),
    ("decomposition.validate", "s"),
    ("pathwidth.reconstruct_path", "self_s"),
    ("treewidth.reconstruct_tree", "self_s"),
    ("formats.parse_gr", "s"),
    ("formats.emit_td", "s"),
    ("cover.minimum_vertex_cover", "s"),
    ("graph.complement", "s"),
]
COUNTERS = [  # (metric, unit, better)
    ("pathwidth.states", "count", "lower"),
    ("pathwidth.peak_table", "count", "lower"),
    ("pathwidth.reachable_ratio", "ratio", "higher"),
    ("treewidth.states", "count", "lower"),
    ("treewidth.reachable_ratio", "ratio", "higher"),
    ("states.valid_triples.count", "count", "lower"),
    ("convolution.convolve.calls", "count", "lower"),
    ("convolution.convolve.cells", "count", "lower"),
    ("convolution.convolve.ranked_ops", "computed_ops", "lower"),
    ("treewidth_fast.layers", "count", "lower"),
    ("treewidth_fast.join_cells", "count", "lower"),
    ("complement.table_entries", "count", "lower"),
    ("decomposition.validate.bag_cells", "count", "lower"),
    ("cover.minimum_vertex_cover.calls", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer, kind in TIMED_LAYERS:
        out.append((f"{layer}.{kind}", "s", "lower"))
    out += COUNTERS
    for layer, kind in TIMED_LAYERS:
        out.append((f"{layer}.{kind}.share", "frac", "lower"))
    return out


# Spans that must fire on each workload, or the traced run fails.
EXPECTED_SPANS = {
    "sparse-ladder": ["pathwidth.partial_width_table",
                      "treewidth.treewidth_table", "states.valid_triples",
                      "pathwidth.reconstruct_path",
                      "treewidth.reconstruct_tree", "decomposition.validate",
                      "formats.parse_gr", "formats.emit_td"],
    "tw-default": ["convolution.convolve", "treewidth_fast._join_minima",
                   "treewidth_fast._layer_sweep", "states.valid_triples",
                   "treewidth.reconstruct_tree", "decomposition.validate",
                   "formats.parse_gr", "formats.emit_td"],
    "wide": ["pathwidth.partial_width_table", "treewidth.treewidth_table",
             "pathwidth.reconstruct_path", "treewidth.reconstruct_tree",
             "decomposition.validate", "cover.minimum_vertex_cover",
             "formats.parse_gr", "formats.emit_td"],
    "dense-cvc": ["complement.pathwidth_cvc", "complement.rooted_pw_table",
                  "graph.complement", "cover.minimum_vertex_cover",
                  "decomposition.validate", "formats.parse_gr",
                  "formats.emit_td"],
}


class Bench:
    """One workload at one seed: its instances, references and gate."""

    def __init__(self, name, seed, workdir, cli, verbose=False):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.cli = cli
        self.verbose = verbose
        self.calls = workloads.WORKLOADS[name](seed)
        self.paths = {}
        for call in self.calls:
            key = call.instance.key
            if key not in self.paths:
                self.paths[key] = call.instance.write(workdir)
        self.gate = gate.Gate(cli, workdir)
        self._assign_references()

    def _assign_references(self):
        frozen = json.loads(REFERENCE_FILE.read_text())
        for call in self.calls:
            inst = call.instance
            refs = call.references
            if call.expect_exit != 0:
                if self.verbose:
                    print(f"  ref {call.name}: exit {call.expect_exit}")
                continue
            if inst.kind == "cover" and inst.full_types >= inst.k:
                refs.append((inst.k, "contains K_{k,k} with a k-cover: "
                                     "tw = pw = k"))
            if call.measure == "tw" and "4k" not in call.argv:
                refs.append((self._tw_4k(inst),
                             "tw-vc-4k in-process, untimed"))
            if call.name in frozen["widths"]:
                refs.append((frozen["widths"][call.name], frozen["source"]))
            if self.verbose:
                print(f"  ref {call.name}: "
                      + ("; ".join(f"{w} ({src})" for w, src in refs)
                         or NO_REFERENCE))

    def _tw_4k(self, inst):
        from vcwidth.formats import parse_gr
        from vcwidth.treewidth import treewidth_vc_4k
        with open(self.paths[inst.key][0], "rb") as fh:
            g = parse_gr(fh.read())
        return treewidth_vc_4k(g)[0]

    def argv(self, call):
        return gate.call_argv(call, self.paths[call.instance.key])

    def judge(self, outputs):
        """Per-call problem lists for one pass; outputs[i] = (exit, out, err)."""
        problems = []
        widths = {}
        for call, (code, out, err) in zip(self.calls, outputs):
            probs, width = self.gate.verdict(
                call, self.paths[call.instance.key], code, out, err)
            problems.append(list(probs))
            widths[call.name] = width
        bad_pairs = gate.pair_problems(self.calls, widths)
        for call, probs in zip(self.calls, problems):
            if call.instance.key in bad_pairs:
                probs.append(bad_pairs[call.instance.key])
        return problems, widths


# Start-up speed: a bare interpreter importing numpy, which is most of the
# CLI's fixed cost, timed before and after each one-edge call. setup_s is
# the call's wall scaled by STARTUP_REF_S over the mean of the two. The
# calibration loop tracks start-up poorly: once, when the host slowed, raw
# set-up rose 48% and set-up scaled by the loop still rose 25%.
STARTUP_PROBE = ["-c", "import numpy"]
STARTUP_REF_S = 0.20


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def measure_setup(workdir, env):
    """Median wall of the CLI solving a one-edge graph, at the reference
    start-up speed and raw, and any problems."""
    path = os.path.join(workdir, "one-edge.gr")
    with open(path, "w") as fh:
        fh.write("p tw 2 1\n1 2\n")

    def startup_s():
        return gate.run_python(STARTUP_PROBE, env, workdir, 10).wall_s

    scaled, walls, problems = [], [], []
    before = startup_s()
    for _ in range(SETUP_REPEATS):
        res = gate.spawn(["tw", "--input", path], env, workdir, 10)
        after = startup_s()
        walls.append(res.wall_s)
        scaled.append(res.wall_s * STARTUP_REF_S * 2 / (before + after))
        before = after
        if res.exit != 0 or gate.parse_width(res.stdout) != 1:
            problems.append(f"one-edge graph: exit {res.exit}, "
                            f"{res.stdout[:40]!r}")
    med = statistics.median
    return med(scaled), med(walls), problems


def timed_run(bench, seconds, env):
    """Closed loop, one client: the calls in turn, one process at a time,
    until the next call would end after `seconds`; each call runs at least
    once. A call's median over its runs damps a burst of host load that
    slows one run, and partial passes still count."""
    setup_s, setup_wall_s, setup_problems = measure_setup(bench.workdir,
                                                          env)
    n = len(bench.calls)
    runs = [[] for _ in bench.calls]  # per call: (CallResult, scale)
    outputs = []
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    before = [calibration_s(), calibration_s()]
    cal = list(before)
    while True:
        i = len(outputs) % n
        if (len(outputs) >= n and time.perf_counter() - start
                + runs[i][-1][0].wall_s > seconds):
            break
        res = gate.spawn(bench.argv(bench.calls[i]), env, bench.workdir,
                         max(deadline - time.perf_counter(), 0.1))
        after = [calibration_s(), calibration_s()]
        runs[i].append((res, CAL_REF_S / statistics.median(before + after)))
        cal += after
        before = after
        outputs.append((res.exit, res.stdout, res.stderr))
    attempted = len(outputs)
    failed = 0
    failures = {}
    for k in range(0, attempted, n):
        problems, _ = bench.judge(outputs[k:k + n])
        for call, probs in zip(bench.calls, problems):
            if probs:
                failed += 1
                failures[call.name] = probs
    med = statistics.median

    def per_call(figure):
        return [med(figure(r, f) for r, f in rs) for rs in runs]

    values = {
        "wall_s": sum(per_call(lambda r, f: r.wall_s)),
        "wall_ref_s": sum(per_call(lambda r, f: r.wall_s * f)),
        "max_call_s": max(per_call(lambda r, f: r.wall_s)),
        "cpu_s": sum(per_call(lambda r, f: r.cpu_s)),
        "cpu_ref_s": sum(per_call(lambda r, f: r.cpu_s * f)),
        "peak_rss_mb": max(per_call(lambda r, f: r.rss_mb)),
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    print(f"{bench.name} seed {bench.seed}: {attempted} runs of {n} calls "
          f"({attempted / n:.2f} passes), closed loop, 1 client; each "
          f"call's median (setup_s over {SETUP_REPEATS} runs); calibration "
          f"loop {med(cal) * 1000:.2f} ms (median of {len(cal)}), reference "
          f"{CAL_REF_S * 1000:.0f} ms")
    for name, unit, what in END_TO_END:
        print(f"  {name:<12} {values[name]:>12.4f} {unit:<3} {what}")
    print(f"  {'failed_frac':<12} {failed / attempted:>12.4f}     "
          f"{failed} failed of {attempted} attempted calls")
    if bench.verbose:
        for call, rs in zip(bench.calls, runs):
            print(f"  call {call.name}: {len(rs)} runs, median "
                  f"{med(r.wall_s for r, _ in rs):.3f} s, "
                  f"{med(r.rss_mb for r, _ in rs):.1f} MB")
    report_failures(failures, setup_problems)
    correct = failed == 0 and not setup_problems
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in GATED}
    return result(correct, attempted, failed, metrics)


def report_failures(failures, extra=()):
    for name, probs in failures.items():
        print(f"  FAILED {name}: {'; '.join(probs)}")
    for p in extra:
        print(f"  FAILED {p}")


def result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_inprocess(cli, argv):
    """One CLI call in this process: (exit code, stdout, stderr, wall)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # reported as a traceback, like the CLI would
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    return code, out.getvalue().encode(), err.getvalue().encode(), wall


def traced_run(bench, seconds):
    """In-process rounds until `seconds` pass; in each, every call runs
    untraced and then traced, back to back, so that host-speed drift
    cancels in trace.overhead_frac."""
    argvs = [bench.argv(c) for c in bench.calls]
    rounds = []
    attempted = failed = 0
    failures = {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        tracer = spans.Tracer()
        plain, traced = [], []
        for a in argvs:
            plain.append(run_inprocess(bench.cli, a))
            with spans.TracedRun("vcwidth", tracer):
                traced.append(run_inprocess(bench.cli, a))
        rounds.append((sum(r[3] for r in plain), sum(r[3] for r in traced),
                       tracer))
        p_plain, w_plain = bench.judge([r[:3] for r in plain])
        p_traced, w_traced = bench.judge([r[:3] for r in traced])
        for call, a, b in zip(bench.calls, p_plain, p_traced):
            probs = a + b
            if w_plain[call.name] != w_traced[call.name]:
                probs.append(f"traced width {w_traced[call.name]}, "
                             f"untraced {w_plain[call.name]}")
            attempted += 1
            if probs:
                failed += 1
                failures[call.name] = probs
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    missing = [s for s in EXPECTED_SPANS[bench.name]
               if not rounds[0][2].calls.get(s)]
    values = layer_values(rounds)
    print(f"{bench.name} seed {bench.seed}: traced, {len(rounds)} rounds x "
          f"{len(bench.calls)} calls in-process; medians over rounds; "
          f"share = layer time / traced pass wall "
          f"({statistics.median(r[1] for r in rounds):.4f} s)")
    expected = set(EXPECTED_SPANS[bench.name])
    for name, unit, _ in per_layer_metrics():
        if name.endswith(".share"):
            continue
        mark = "*" if name.rsplit(".", 1)[0] in expected else " "
        share = values.get(name + ".share")
        tail = f"  share {share:.3f}" if share is not None else ""
        print(f" {mark}{name:<44} {values[name]:>14.6g} {unit}{tail}")
    print("  (* = span expected on this workload)")
    extra = [f"expected span {s} never fired" for s in missing]
    report_failures(failures, extra)
    correct = failed == 0 and not missing
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in per_layer_metrics()}
    return result(correct, attempted, failed, metrics)


def layer_values(rounds):
    """Per-layer metric values: medians of times over rounds, counters and
    ratios from the first round (they repeat exactly)."""
    med = statistics.median
    values = {}
    for layer, kind in TIMED_LAYERS:
        name = f"{layer}.{kind}"
        src = "self_time" if kind == "self_s" else "total"
        values[name] = med(getattr(t, src).get(layer, 0.0)
                           for _, _, t in rounds)
        values[name + ".share"] = med(getattr(t, src).get(layer, 0.0) / tw
                                      for _, tw, t in rounds)
    c = rounds[0][2].counters
    calls = rounds[0][2].calls
    for name, _, _ in COUNTERS:
        values[name] = c.get(name, 0)
    values["cover.minimum_vertex_cover.calls"] = calls.get(
        "cover.minimum_vertex_cover", 0)
    for prefix in ("pathwidth", "treewidth"):
        triples = c.get(f"{prefix}.triples", 0)
        values[f"{prefix}.reachable_ratio"] = (
            c.get(f"{prefix}.entries", 0) / triples if triples else 0.0)
    values["trace.overhead_frac"] = med(tw / pw - 1 for pw, tw, _ in rounds)
    return values


def baseline_report(seed, env, workdir, limit_s=60.0):
    """ROADMAP item 1's table: seconds per solver by k, cover given, k
    raised by 2 from 8 until a call passes `limit_s` or hits the cap."""
    solvers = [("pw-vc", ["pw"]), ("tw-vc-4k", ["tw", "--algo", "4k"]),
               ("tw-vc-3k", ["tw", "--algo", "3k"])]
    live = {name for name, _ in solvers}
    print(f"instances random_graph_with_cover(Random("
          f"{workloads.STRUCTURE_SEED}), k, 2k+6, 0.35), relabeled by seed "
          f"{seed}, cover given; wall s per CLI call")
    print("| k (n) | " + " | ".join(n for n, _ in solvers) + " |")
    print("|-------|" + "|".join("-" * (len(n) + 2) for n, _ in solvers) + "|")
    k = 8
    while live:
        inst = workloads.sparse_instance(k, 2 * k + 6, 0.35, 0)
        gr, cov = inst.relabeled(seed).write(workdir)
        cells = []
        for name, args in solvers:
            if name not in live:
                cells.append("—")
                continue
            res = gate.spawn(args + ["--input", gr, "--cover", cov], env,
                             workdir, limit_s)
            if res.exit == 0:
                cells.append(f"{res.wall_s:.2f}")
            elif res.exit == 3:
                cells.append("cap")
            else:
                cells.append(f"> {limit_s:.0f}" if res.wall_s >= limit_s
                             else f"exit {res.exit}")
            if res.exit != 0 or res.wall_s >= limit_s:
                live.discard(name)
        print(f"| {k} ({2 * k + 6}) | " + " | ".join(cells) + " |",
              flush=True)
        k += 2
    g = os.path.join(workdir, "cvc18.gr")  # K_19 plus 5 vertices, complemented
    with open(g, "w") as fh:
        edges = [(u, v) for u in range(24) for v in range(u + 1, 24)
                 if not (u < 19 and v < 19)]
        fh.write(f"p tw 24 {len(edges)}\n")
        fh.writelines(f"{u + 1} {v + 1}\n" for u, v in edges)
    res = gate.spawn(["pw", "--algo", "cvc", "--input", g], env, workdir,
                     limit_s)
    print(f"pw-cvc at k' = 18 (n = 24): {res.wall_s:.2f} s, exit {res.exit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verbose", action="store_true",
                        help="print each call's references and their sources")
    parser.add_argument("--report", action="store_true",
                        help="print ROADMAP item 1's baseline table")
    args = parser.parse_args(argv)
    # Exit through the `finally` blocks below, which kill and reap a running
    # call and remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = ROOT / "src"
    if not (src / "vcwidth" / "cli.py").is_file():
        print(f"error: no vcwidth package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from vcwidth import cli

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = child_env()
        if args.report:
            baseline_report(args.seed, env, str(workdir))
            return 0
        names = (sorted(workloads.WORKLOADS) if args.workload == "all"
                 else [args.workload])
        out = {}
        for name in names:
            bench = Bench(name, args.seed, str(workdir), cli, args.verbose)
            if args.trace:
                out[name] = traced_run(bench, args.seconds)
            else:
                out[name] = timed_run(bench, args.seconds, env)
        print(json.dumps(out[names[0]] if len(names) == 1 else out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
