"""Command-line interface: selectors, exit codes, witness round trips."""

import errno
import io
import os
import random
import subprocess
import sys
import time
import types

import pytest

from vcwidth import cli
from vcwidth.errors import InternalError
from vcwidth.graph import Graph
from vcwidth.oracle import treewidth_exact

from genutil import random_graph, random_graph_with_cover


def gr_text(n, edges):
    lines = [f"p tw {n} {len(edges)}"]
    lines += [f"{u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


P3 = gr_text(3, [(0, 1), (1, 2)])
C5 = gr_text(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K8 = gr_text(8, [(u, v) for u in range(8) for v in range(u + 1, 8)])
# treewidth 2, greedy elimination bound 4 (width 3 of g): the table
# certifies the width
G8 = gr_text(8, [(0, 4), (0, 7), (1, 4), (1, 5), (1, 7), (4, 6), (6, 7)])
# pathwidth 3, width bound 3: the glue finds nothing within 3 and pw-vc
# sweeps again at 4
PW6 = gr_text(6, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5),
                  (2, 3), (2, 4)])


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_treewidth_of_path(tmp_path, capsys):
    path = write(tmp_path, "p3.gr", P3)
    rc, out, err = run(capsys, ["tw", "--algo", "3k", "--input", path])
    assert rc == 0 and out == "width: 1\n" and err == ""


def test_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        sys, "stdin", types.SimpleNamespace(buffer=io.BytesIO(P3.encode())))
    rc, out, err = run(capsys, ["pw"])
    assert rc == 0 and out == "width: 1\n"


def test_every_selector_spelling(tmp_path, capsys):
    path = write(tmp_path, "c5.gr", C5)
    for sub, algo in [
            ("tw", None), ("tw", "3k"), ("tw", "4k"), ("tw", "tw-vc-3k"),
            ("tw", "tw-vc-4k"), ("tw", "oracle"), ("tw", "oracle-tw"),
            ("pw", None), ("pw", "vc"), ("pw", "cvc"), ("pw", "pw-vc"),
            ("pw", "pw-cvc"), ("pw", "oracle"), ("pw", "oracle-pw"),
            ("oracle", None), ("oracle", "tw"), ("oracle", "pw")]:
        argv = [sub, "--input", path]
        if algo:
            argv += ["--algo", algo]
        rc, out, err = run(capsys, argv)
        assert rc == 0 and out.startswith("width: 2\n"), (sub, algo, out, err)


def test_unknown_selector_is_a_usage_error(tmp_path, capsys):
    path = write(tmp_path, "c5.gr", C5)
    with pytest.raises(SystemExit) as exc:
        cli.main(["tw", "--algo", "cvc", "--input", path])
    assert exc.value.code == 2


def test_stats_block(tmp_path, capsys):
    path = write(tmp_path, "c5.gr", C5)
    rc, out, err = run(capsys, ["pw", "--stats", "--input", path])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "width: 2"
    assert lines[1] == "cover size: 3"
    assert lines[2].startswith("states: ") or lines[2].startswith("valid triples: ")
    triples = int(lines[2].split(": ")[1])
    assert 0 < triples <= 3 ** 4
    assert lines[5:] == ["width bound: 3", "sweeps: 1"]


def test_stats_block_of_the_3k_solver(tmp_path, capsys):
    # G8's decision sweep reaches joins (C5's stops before any)
    path = write(tmp_path, "g8.gr", G8)
    rc, out, err = run(capsys, ["tw", "--stats", "--input", path])
    assert rc == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert "join layers" not in lines
    assert int(lines["join cells"]) > 0
    calls = int(lines["convolve calls"])
    assert calls > 0 and int(lines["convolve cells"]) >= calls
    # the counts are this solve's, not the process's running totals
    rc, again, err = run(capsys, ["tw", "--stats", "--input", path])
    assert again == out


def test_stats_block_prints_the_width_bound_of_both_treewidth_solvers(
        tmp_path, capsys):
    # C5 plus the apex: the greedy elimination width is 3, the width + 1,
    # so the one sweep at 2 finds no final state and the elimination order
    # certifies the width; G8's bound is 4 and its table certifies 2
    for name, text, width, bound, certificate in [
            ("c5", C5, 2, 3, "elimination order"),
            ("g8", G8, 2, 4, "table")]:
        path = write(tmp_path, f"{name}.gr", text)
        for algo in ("3k", "4k"):
            rc, out, err = run(capsys, ["tw", "--algo", algo, "--stats",
                                        "--input", path])
            assert rc == 0 and err == ""
            lines = out.splitlines()
            assert lines[0] == f"width: {width}"
            assert [line.split(": ")[0] for line in lines[1:8]] == [
                "cover size", "valid triples", "states", "peak table entries",
                "width bound", "sweeps", "certificate"]
            assert lines[5:8] == [f"width bound: {bound}", "sweeps: 1",
                                  f"certificate: {certificate}"]
    # pw-vc sweeps at the bound, and PW6 needs a second sweep one above it
    for name, text, width, sweeps in [("c5", C5, 2, 1), ("pw6", PW6, 3, 2)]:
        path = write(tmp_path, f"{name}.gr", text)
        rc, out, err = run(capsys, ["pw", "--stats", "--input", path])
        assert rc == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == f"width: {width}"
        assert lines[5:] == ["width bound: 3", f"sweeps: {sweeps}"]


def test_stats_block_of_the_complement_cover_solver(tmp_path, capsys):
    path = write(tmp_path, "c5.gr", C5)
    rc, out, err = run(capsys, ["pw", "--algo", "cvc", "--stats",
                                "--input", path])
    assert rc == 0 and err == ""
    pairs = [line.split(": ") for line in out.splitlines()]
    assert [label for label, _ in pairs[-4:]] == [
        "table entries", "threshold levels", "reach sweeps",
        "glue subsets evaluated"]
    counts = {label: int(value) for label, value in pairs}
    # the entries within the width 2: all 8 subsets of the cover {1, 2, 3}
    # but {1, 3}, whose boundary {2, 4, 5} puts it at 3; they are the
    # states computed, while the bit planes span all 8
    assert counts["cover size"] == 3 and counts["table entries"] == 7
    assert counts["states"] == 7 and counts["peak table entries"] == 8
    assert 1 <= counts["threshold levels"] <= counts["reach sweeps"]
    assert 1 <= counts["glue subsets evaluated"] <= 8


def test_witness_round_trips_through_check(tmp_path, capsys):
    for name, text, sub, want in [("p3", P3, "tw", 1), ("c5", C5, "pw", 2),
                                  ("k8", K8, "tw", 7)]:
        path = write(tmp_path, f"{name}.gr", text)
        rc, out, err = run(capsys, [sub, "--input", path, "--emit-witness"])
        assert rc == 0 and err == ""
        first, _, td_text = out.partition("\n")
        assert first == f"width: {want}"
        td_path = write(tmp_path, f"{name}.td", td_text)
        rc, out, err = run(capsys, ["check", path, td_path])
        assert rc == 0 and out == f"width: {want}\n"


@pytest.mark.parametrize("name, n, edges", [
    *((f"edgeless{n}", n, []) for n in range(1, 5)),
    ("edge", 2, [(0, 1)]),
    *((f"star{m}", m + 1, [(0, x) for x in range(1, m + 1)])
      for m in (2, 3, 6))])
def test_empty_and_tiny_covers_of_both_treewidth_solvers(
        tmp_path, capsys, name, n, edges):
    # an empty cover leaves the apex the whole cover: the final state has
    # nothing below, so it is degenerate and computed, not read
    want = treewidth_exact(Graph(n, edges))
    path = write(tmp_path, f"{name}.gr", gr_text(n, edges))
    for algo in ("3k", "4k"):
        rc, out, err = run(capsys, ["tw", "--algo", algo, "--stats",
                                    "--emit-witness", "--input", path])
        assert rc == 0 and err == "", (algo, err)
        head, _, td_text = out.partition("s td")
        lines = head.splitlines()
        assert lines[0] == f"width: {want}", algo
        stats = dict(line.split(": ") for line in lines[1:])
        assert int(stats["cover size"]) == (1 if edges else 0)
        assert int(stats["peak table entries"]) >= 0, algo
        td_path = write(tmp_path, f"{name}-{algo}.td", "s td" + td_text)
        rc, out, err = run(capsys, ["check", path, td_path])
        assert rc == 0 and out == f"width: {want}\n", algo


def test_witness_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, "c5.gr", C5)
    outs = set()
    for _ in range(2):
        rc, out, err = run(capsys, ["tw", "--input", path, "--emit-witness"])
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1


def test_check_rejects_bad_decomposition(tmp_path, capsys):
    path = write(tmp_path, "p3.gr", P3)
    td = "s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n"  # edge (2,3) in no bag
    td_path = write(tmp_path, "bad.td", td)
    rc, out, err = run(capsys, ["check", path, td_path])
    assert rc == 2 and out == ""
    assert "invalid:" in err and "is contained in no bag" in err


def test_check_rejects_vertex_count_mismatch(tmp_path, capsys):
    path = write(tmp_path, "p3.gr", P3)
    td_path = write(tmp_path, "small.td", "s td 1 2 2\nb 1 1 2\n")
    rc, out, err = run(capsys, ["check", path, td_path])
    assert rc == 2 and "graph has 3" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = write(tmp_path, "loop.gr", "p tw 2 1\n1 1\n")
    rc, out, err = run(capsys, ["tw", "--input", path])
    assert rc == 2 and err.startswith("error: line 2:")


def test_cover_cap_exit_code(tmp_path, capsys):
    path = write(tmp_path, "k8.gr", K8)
    rc, out, err = run(capsys, ["pw", "--max-k", "3", "--input", path])
    assert rc == 3 and "error:" in err
    rc, out, err = run(capsys,
                       ["tw", "--algo", "3k", "--max-k", "3", "--input", path])
    assert rc == 3


def test_oracle_fallback_on_small_graphs_with_big_cover(tmp_path, capsys):
    path = write(tmp_path, "k8.gr", K8)
    rc, out, err = run(capsys, ["tw", "--max-k", "3", "--input", path])
    assert rc == 0 and out == "width: 7\n"
    # the fallback cannot produce a witness, so the cap bites again
    rc, out, err = run(capsys,
                       ["tw", "--max-k", "3", "--emit-witness", "--input", path])
    assert rc == 3


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(g, cover=None, stats=None):
        raise InternalError("solver contradicted itself")

    monkeypatch.setattr(cli, "pathwidth_vc", broken)
    path = write(tmp_path, "p3.gr", P3)
    rc, out, err = run(capsys, ["pw", "--input", path])
    assert rc == 4 and err.startswith("internal error:")


def test_memory_error_exits_3_with_one_error_line(tmp_path, capsys,
                                                  monkeypatch):
    # running out of memory is a resource limit, never a traceback; the
    # solver raises it here without allocating anything
    def exhausted(g, cover=None, stats=None):
        raise MemoryError

    monkeypatch.setattr(cli, "treewidth_vc_4k", exhausted)
    path = write(tmp_path, "p3.gr", P3)
    rc, out, err = run(capsys, ["tw", "--algo", "4k", "--input", path])
    assert (rc, out, err) == (3, "", "error: out of memory\n")


def test_oracle_refuses_witness_flag(tmp_path, capsys):
    # a usage error, whichever subcommand selects the oracle
    path = write(tmp_path, "p3.gr", P3)
    for argv in (["oracle"], ["oracle", "--algo", "pw"],
                 ["tw", "--algo", "oracle"], ["pw", "--algo", "oracle-pw"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--emit-witness", "--input", path])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: vcwidth ")
        assert err.endswith(
            "error: --emit-witness is not available for the oracle\n")


def test_invalid_own_witness_exits_4(tmp_path, capsys, monkeypatch):
    # a solver whose witness fails its own validation has a bug: exit 4
    # with the violations as internal errors, not 2 as for a bad input.
    # Each solver's contraction is made to empty a bag of the witness
    from vcwidth import complement, pathwidth, treewidth
    from vcwidth.decomposition import Decomposition, contract

    def emptying(bags, edges, kind):
        dec = contract(bags, edges, kind)
        return Decomposition([()] + dec.bags[1:], dec.edges, kind)

    path = write(tmp_path, "c5.gr", C5)
    for module, runs in ((pathwidth, [["pw"]]),
                         (treewidth, [["tw"], ["tw", "--algo", "4k"]]),
                         (complement, [["pw", "--algo", "cvc"]])):
        with monkeypatch.context() as m:
            m.setattr(module, "contract", emptying)
            for argv in runs:
                rc, out, err = run(capsys, argv + ["--input", path])
                assert (rc, out) == (4, ""), argv
                lines = err.splitlines()
                assert lines and all(line.startswith("internal error: ")
                                     for line in lines), argv
                assert "is contained in no bag" in err, argv


def test_oracle_vertex_cap(tmp_path, capsys):
    path = write(tmp_path, "p3.gr", P3)
    rc, out, err = run(capsys, ["oracle", "--max-n", "2", "--input", path])
    assert rc == 3 and "error:" in err
    # --max-n can only lower the oracle's own cap of 26, and the oracle's
    # is the one check and the one message
    iso27 = write(tmp_path, "iso27.gr", gr_text(27, []))
    for algo in ("tw", "pw"):
        for max_n, cap in (("20", 20), ("30", 26)):
            rc, out, err = run(capsys, ["oracle", "--algo", algo, "--max-n",
                                        max_n, "--input", iso27])
            assert (rc, out, err) == (3, "", "error: oracle handles at most "
                                      f"n = {cap} vertices, got 27\n")
        rc, out, err = run(capsys, ["oracle", "--algo", algo, "--max-n", "30",
                                    "--stats", "--input", path])
        assert rc == 0 and err == ""
        assert out.splitlines()[0] == "width: 1"
        assert "states: 8" in out.splitlines()


def test_a_lowered_complement_cover_cap_is_named_as_a_cap(tmp_path, capsys):
    # the benchmark's dense_instance(18, 24, 0.35, 0), the complement of a
    # graph with cover 0..17: its complement cover is over --max-k 10,
    # whether searched or given, and the message names the user's cap as
    # the vc solvers do
    g = random_graph_with_cover(random.Random(20260814), 18, 24,
                                0.35).complement()
    path = write(tmp_path, "dense.gr", gr_text(g.n, sorted(g.edges)))
    cover = write(tmp_path, "dense.cover", " ".join(map(str, range(1, 19))))
    for extra, message in [
            ([], "complement cover exceeds the cap 10"),
            (["--cover", cover],
             "complement cover of size 18 exceeds the cap 10")]:
        rc, out, err = run(capsys, ["pw", "--algo", "cvc", "--max-k", "10",
                                    "--input", path, *extra])
        assert (rc, out, err) == (3, "", f"error: {message}\n")


def test_cover_file_injection(tmp_path, capsys):
    path = write(tmp_path, "p3.gr", P3)
    cover_path = write(tmp_path, "cover.txt", "2\n")
    rc, out, err = run(capsys, ["pw", "--cover", cover_path, "--input", path])
    assert rc == 0 and out == "width: 1\n"
    bad_cover = write(tmp_path, "bad.txt", "1\n")
    rc, out, err = run(capsys, ["pw", "--cover", bad_cover, "--input", path])
    assert rc == 2 and "not a vertex cover" in err


def test_empty_graph(tmp_path, capsys):
    path = write(tmp_path, "empty.gr", "p tw 0 0\n")
    rc, out, err = run(capsys, ["pw", "--input", path, "--emit-witness"])
    assert rc == 0
    first, _, td_text = out.partition("\n")
    assert first == "width: -1"
    td_path = write(tmp_path, "empty.td", td_text)
    rc, out, err = run(capsys, ["check", path, td_path])
    assert rc == 0 and out == "width: -1\n"


def test_unreadable_files_exit_2(tmp_path, capsys):
    path = write(tmp_path, "p3.gr", P3)
    missing = str(tmp_path / "missing")
    for argv in (["tw", "--input", missing],
                 ["pw", "--input", path, "--cover", missing],
                 ["pw", "--algo", "cvc", "--input", path, "--cover", missing],
                 ["pw", "--input", str(tmp_path)],
                 ["check", missing, path],
                 ["check", path, missing]):
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("error: cannot read ") and "Traceback" not in err


def test_complement_cover_that_is_no_cover_exit_2(tmp_path, capsys):
    path = write(tmp_path, "c5.gr", C5)
    # vertices 1 and 3 are non-adjacent, so any complement cover needs one
    cover_path = write(tmp_path, "cover.txt", "2 4 5\n")
    rc, out, err = run(capsys, ["pw", "--algo", "cvc", "--cover", cover_path,
                                "--input", path])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "not a vertex cover" in err


def test_cli_import_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, vcwidth.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("argv", [["pw", "--max-k", "0"],
                                  ["oracle", "--max-n", "-1"]])
def test_nonpositive_caps_exit_2(tmp_path, flags, argv):
    # the caps are checked by code that python -O keeps
    path = write(tmp_path, "p3.gr", P3)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, *flags, "-m", "vcwidth", *argv, "--input", path],
        env=env, capture_output=True, text=True)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error:") and "must be positive" in \
        result.stderr


@pytest.mark.parametrize("n, p, algo, message", [
    (200, 0.03, "vc", "vertex cover exceeds the cap 18"),
    (150, 0.04, "vc", "vertex cover exceeds the cap 18"),
    (200, 0.03, "cvc", "complement cover exceeds the supported maximum of 26"),
])
def test_cover_far_above_the_cap_exits_3_at_once(tmp_path, n, p, algo,
                                                 message):
    # the cap bounds the cover search: G(200, 0.03) has a matching of 90
    # edges, and an exact search for its cover runs for minutes
    g = random_graph(random.Random(20260814), n, p)
    path = write(tmp_path, "g.gr", gr_text(n, sorted(g.edges)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "vcwidth", "pw", "--algo", algo,
         "--input", path],
        env=env, capture_output=True, text=True, timeout=20)
    assert result.returncode == 3 and result.stdout == ""
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("n", [3000, 6000])
def test_complement_cover_far_above_the_cap_exits_at_once(tmp_path, n):
    # a path's complement has about n^2 / 2 edges: the edge count rules out
    # a cover within the cap before the complement is built, and a given
    # cover is checked against the path's own edges
    path = write(tmp_path, "p.gr",
                 gr_text(n, [(i, i + 1) for i in range(n - 1)]))
    beyond = "complement cover exceeds the supported maximum of 26"
    cases = [
        ([], 3, beyond),
        (["--cover", write(tmp_path, "small.cover", "1 2 3")], 2,
         "provided vertex set is not a vertex cover of the complement"),
        (["--cover", write(tmp_path, "big.cover",
                           " ".join(map(str, range(3, n + 1))))], 3,
         f"complement cover of size {n - 2} exceeds the supported maximum "
         f"of 26")]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for extra, code, message in cases:
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "vcwidth", "pw", "--algo", "cvc",
             "--input", path, *extra],
            env=env, capture_output=True, text=True, timeout=20)
        assert time.perf_counter() - start < 5
        assert (result.returncode, result.stdout) == (code, "")
        assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("solver", [["pw"], ["tw"], ["tw", "--algo", "4k"]])
@pytest.mark.parametrize("cover", [True, False])
def test_cover_limit_does_not_count_the_apex(tmp_path, capsys, solver, cover):
    # 26 disjoint edges have a minimum cover of 26, within --max-k 26; with
    # the apex that is 27 cover positions, one more than the tables hold
    path = write(tmp_path, "m26.gr",
                 gr_text(52, [(2 * i, 2 * i + 1) for i in range(26)]))
    argv = [*solver, "--max-k", "26", "--input", path]
    if cover:
        argv += ["--cover", write(tmp_path, "m26.cover",
                                  " ".join(str(2 * i + 1) for i in range(26)))]
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (3, "")
    assert err == "error: cover of size 26 exceeds the supported maximum " \
        "of 25\n"


# The process entry: `python -m vcwidth` and the console script flush the
# output and end with os._exit, skipping interpreter teardown.

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
MODULE = ["-m", "vcwidth"]


def entry(*setup):
    """`python -c` code that runs `setup` and then what the `vcwidth`
    console script runs."""
    return ["-c", "\n".join([*setup, "from vcwidth.__main__ import main",
                             "sys.exit(main())"])]


CONSOLE_SCRIPT = entry("import sys")
ATEXIT_HOOK = entry("import atexit, sys",
                    "atexit.register(sys.stderr.write, 'atexit ran\\n')")
# a stdout whose failed bytes stay pending, so every flush fails again
FULL_STDOUT = entry(
    "import errno, os, sys",
    "class Full:",
    "    def write(self, text):",
    "        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))",
    "    def flush(self):",
    "        self.write('')",
    "sys.stdout = Full()")


def spawn(args, unbuffered=False, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], env=env, timeout=60,
                          **kwargs)


def write_error(code):
    return f"error: cannot write output: {os.strerror(code)}\n".encode()


@pytest.fixture(scope="module")
def wide_gr(tmp_path_factory):
    # the `wide` benchmark's k = 5, n = 3000 structure
    g = random_graph_with_cover(random.Random(20260814), 5, 3000, 0.35)
    path = tmp_path_factory.mktemp("wide") / "wide.gr"
    path.write_text(gr_text(g.n, sorted(g.edges)))
    return str(path)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("sink", ["pipe", "file"])
@pytest.mark.parametrize("solver", [["pw"], ["tw", "--algo", "4k"]])
def test_process_prints_a_large_witness_whole(tmp_path, capsys, wide_gr,
                                              solver, sink, unbuffered):
    argv = [*solver, "--emit-witness", "--input", wide_gr]
    rc, expected, err = run(capsys, argv)
    assert rc == 0 and err == ""
    assert len(expected) > 1 << 16  # more than a pipe buffer holds
    if sink == "pipe":
        result = spawn([*MODULE, *argv], unbuffered)
        out = result.stdout
    else:
        out_path = tmp_path / "witness.td"
        with open(out_path, "wb") as fh:
            result = spawn([*MODULE, *argv], unbuffered, stdout=fh)
        out = out_path.read_bytes()
    assert (result.returncode, result.stderr) == (0, b"")
    assert out == expected.encode()


@pytest.mark.parametrize("start", [MODULE, CONSOLE_SCRIPT])
def test_process_exit_codes_match_cli_main(tmp_path, capsys, start):
    c5 = write(tmp_path, "c5.gr", C5)
    cases = [
        ["pw", "--input", write(tmp_path, "bad.gr", "p tw 2 1\n1 3\n")],
        ["pw", "--max-k", "0", "--input", c5],
        ["tw", "--algo", "4k", "--max-k", "2", "--input", c5],
        ["check", c5, write(tmp_path, "bad.td", "s td 1 2 5\nb 1 1 2\n")],
        ["tw", "--stats", "--input", c5],
    ]
    codes = []
    for argv in cases:
        rc, out, err = run(capsys, argv)
        result = spawn([*start, *argv])
        assert (result.returncode, result.stdout, result.stderr) == \
            (rc, out.encode(), err.encode()), argv
        codes.append(rc)
    assert codes == [2, 2, 3, 2, 0]


@pytest.mark.parametrize("td, lines", [
    ("s td 2 1 1\nb 1 1\nb 2 1\n",
     ["bag graph has 0 edges, a tree on 2 bags needs 1",
      "bag graph is disconnected (1 of 2 bags reachable from bag 1)"]),
    ("s td 2 1 1\nb 1 1\nb 2 1\n1 1\n",
     ["bag edge (1,1) is a self-loop",
      "bag graph is disconnected (1 of 2 bags reachable from bag 1)"]),
    ("s td 3 1 1\nb 1 1\nb 2 1\nb 3 1\n1 2\n2 3\n3 2\n",
     ["duplicate bag edge (2,3)",
      "bag graph has 3 edges, a tree on 3 bags needs 2"]),
    ("c path\ns td 4 1 1\nb 1 1\nb 2 1\nb 3 1\nb 4 1\n1 2\n1 3\n1 4\n",
     ["path decomposition has branching bag 1"]),
], ids=["no-edges", "self-loop", "duplicate-edge", "branching-path"])
def test_check_names_bag_graph_faults_with_the_file_ids(tmp_path, td, lines):
    # the .td reader leaves the bag graph's shape to the validator, whose
    # lines name bags as the file does
    gr = write(tmp_path, "k1.gr", "p tw 1 0\n")
    result = spawn([*MODULE, "check", gr, write(tmp_path, "bad.td", td)])
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.decode().splitlines() == \
        [f"invalid: {line}" for line in lines]


def test_process_skips_teardown_only_after_cli_main_returns(tmp_path):
    # atexit hooks are part of the teardown that a returned call skips; a
    # usage error or --help leaves through SystemExit and runs them
    path = write(tmp_path, "p3.gr", P3)
    result = spawn([*ATEXIT_HOOK, "pw", "--input", path])
    assert (result.returncode, result.stdout, result.stderr) == \
        (0, b"width: 1\n", b"")
    for argv, code in [(["tw", "--algo", "cvc", "--input", path], 2),
                       (["--help"], 0)]:
        result = spawn([*ATEXIT_HOOK, *argv])
        assert result.returncode == code
        assert result.stderr.endswith(b"atexit ran\n")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_output_to_a_full_device_exits_3(tmp_path, wide_gr, unbuffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    # buffered, "width: 1" waits for the last flush, and the witness fails
    # in the CLI's own write
    for argv in [["pw", "--input", write(tmp_path, "p3.gr", P3)],
                 ["pw", "--emit-witness", "--input", wide_gr]]:
        with open("/dev/full", "wb") as full:
            result = spawn([*MODULE, *argv], unbuffered, stdout=full)
        assert (result.returncode, result.stderr) == \
            (3, write_error(errno.ENOSPC)), argv


def test_an_unwritable_stderr_keeps_the_exit_code(tmp_path):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    # the error line is lost, as argparse's would be, but not the exit code
    p3 = write(tmp_path, "p3.gr", P3)
    bad = write(tmp_path, "bad.td", "s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n")
    for argv, to_full, code in [
            (["pw", "--input", write(tmp_path, "bad.gr", "p tw 2 1\n1 3\n")],
             False, 2),
            (["pw", "--input", p3, "--max-k", "0"], False, 2),
            (["check", p3, bad], False, 2),
            (["pw", "--input", p3], True, 3)]:
        with open("/dev/full", "wb") as full:
            result = spawn([*MODULE, *argv], stderr=full,
                           stdout=full if to_full else subprocess.PIPE)
        assert result.returncode == code, argv


@pytest.mark.skipif(os.name != "posix", reason="needs preexec_fn")
def test_closed_standard_streams_end_in_their_codes(tmp_path):
    # Python sets a stream whose fd is closed at start-up to None: a closed
    # stdout is output that cannot be written (3), a closed stdin input
    # that cannot be read (2), and a closed stderr loses its lines but not
    # the code. The fds are closed in the child only, after the pipes are
    # in place; stdin holds P3 in every case
    p3 = write(tmp_path, "p3.gr", P3)
    bad = write(tmp_path, "bad.gr", "p tw 3 2\n1 2\n2 2\n")
    cases = [
        (["pw"], (), 0, b"width: 1\n", b""),  # every stream open
        (["pw", "--input", p3], (1,), 3, b"",
         b"error: cannot write output: stdout is closed\n"),
        (["check", p3, os.devnull], (1,), 2, b"", None),
        (["pw", "--input", bad], (1, 2), 2, b"", b""),
        (["pw", "--input", p3], (1, 2), 3, b"", b""),
        (["pw"], (0,), 2, b"", b"error: cannot read stdin: stdin is closed\n"),
    ]
    for argv, closed, code, out, err in cases:
        def close_in_child(fds=closed):
            for fd in fds:
                os.close(fd)

        with open(p3, "rb") as stdin:
            result = spawn([*MODULE, *argv], stdin=stdin,
                           preexec_fn=close_in_child)
        assert (result.returncode, result.stdout) == (code, out), argv
        assert b"Traceback" not in result.stderr, argv
        if err is not None:
            assert result.stderr == err, argv


@pytest.mark.parametrize("unbuffered", [False, True])
def test_output_to_a_closed_pipe_exits_3(tmp_path, wide_gr, unbuffered):
    # the reader is gone before the CLI writes anything
    for argv in [["pw", "--input", write(tmp_path, "p3.gr", P3)],
                 ["tw", "--algo", "4k", "--emit-witness", "--input",
                  wide_gr]]:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = spawn([*MODULE, *argv], unbuffered, stdout=write_end)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == \
            (3, write_error(errno.EPIPE)), argv


def test_a_failed_write_is_reported_once(tmp_path):
    # the bytes of the failed write are still pending at the last flush
    result = spawn([*FULL_STDOUT, "pw", "--input",
                    write(tmp_path, "p3.gr", P3)])
    assert (result.returncode, result.stderr) == \
        (3, write_error(errno.ENOSPC))


class BrokenStdout:
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_cli_main_reports_a_failed_write(tmp_path, capsys, monkeypatch):
    c5 = write(tmp_path, "c5.gr", C5)
    rc, out, err = run(capsys, ["pw", "--emit-witness", "--input", c5])
    td = write(tmp_path, "c5.td", out.split("\n", 1)[1])
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    for argv in [["pw", "--input", c5], ["check", c5, td]]:
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == write_error(errno.EPIPE).decode()


def test_other_os_errors_are_not_relabelled(tmp_path, monkeypatch):
    # the handler covers the output writes only
    def broken(data):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(cli, "parse_gr", broken)
    with pytest.raises(OSError):
        cli.main(["pw", "--input", write(tmp_path, "p3.gr", P3)])
