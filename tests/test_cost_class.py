"""Every input stays in its cost class: `python -m vcwidth` in child
processes under a memory and a CPU limit.

Each call runs with an RLIMIT_AS of 512 MB and an RLIMIT_CPU, both set in
the child only, plus a wall-clock timeout. It must end in its documented
exit code (0, or 2 or 3 with one `error:` line; never a traceback), within
a wall bound and a peak resident set. The inputs lie beyond the caps or at
large n. A family that a ROADMAP item mends is a strict expected failure
that names the item, so the defect shows in every run until the item lands.

The peak is `ru_maxrss` from `os.wait4`. A forked child's starts from its
parent's resident set, so the call is run by a small launcher process, and
the test process reads what the launcher measured.
"""

import errno
import os
import random
import subprocess
import sys

import pytest

resource = pytest.importorskip("resource")

from vcwidth import cli  # noqa: E402
from vcwidth.graph import Graph  # noqa: E402
from vcwidth.pathwidth import pathwidth_vc  # noqa: E402
from vcwidth.treewidth import treewidth_vc_4k  # noqa: E402

from genutil import path_graph, random_graph_with_cover  # noqa: E402

MEMORY = 512 << 20  # RLIMIT_AS, bytes
CPU_S = 10  # RLIMIT_CPU, seconds
TIMEOUT_S = 30  # wall-clock timeout of one launcher
WALL_S = 3.0  # wall bound of one call
PEAK_MB = 128  # peak bound of one call; n = 20,000 at k = 5 needs about 49
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))

# Forks the call, so its ru_maxrss starts from this small process's
# resident set, and writes "exit-code wall-seconds peak-kB" to argv[1]
LAUNCHER = """\
import os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.executable, [sys.executable, *sys.argv[2:]])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(sys.argv[1], "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {wall} {usage.ru_maxrss}")
"""


def limit_child():
    """Set the limits in the launcher, which its call inherits; runs in
    the forked child only."""
    for which, value in ((resource.RLIMIT_AS, MEMORY),
                         (resource.RLIMIT_CPU, CPU_S)):
        hard = resource.getrlimit(which)[1]
        if hard != resource.RLIM_INFINITY:
            value = min(value, hard)
        resource.setrlimit(which, (value, hard))


def launch(tmp_path, argv, stdout=subprocess.PIPE):
    """(exit code, wall s, peak MB, stdout, stderr) of `python -m vcwidth
    argv` under the limits."""
    report = tmp_path / "report.txt"
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    result = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(report), "-m", "vcwidth",
         *argv], env=env, stdin=subprocess.DEVNULL, stdout=stdout,
        stderr=subprocess.PIPE, preexec_fn=limit_child, timeout=TIMEOUT_S)
    assert result.returncode == 0, result.stderr
    code, wall, peak_kb = report.read_text().split()
    return (int(code), float(wall), int(peak_kb) / 1024, result.stdout,
            result.stderr.decode())


def gr_text(g):
    lines = [f"p tw {g.n} {g.m}"]
    lines += [f"{u + 1} {v + 1}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def disjoint_union(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edges]
        n += g.n
    return Graph(n, edges)


def ladder(k):
    """ROADMAP's ladder instance at cover size k."""
    return random_graph_with_cover(random.Random(20260814), k, 2 * k + 6,
                                   0.35)


def dense():
    """perfbench's dense_instance(18, 24, 0.35, 0): the complement of a
    graph with cover 18."""
    return random_graph_with_cover(random.Random(20260814), 18, 24,
                                   0.35).complement()


def wide():
    """n = 20,000 at cover size 5."""
    return random_graph_with_cover(random.Random(20260814), 5, 20000, 0.35)


GRAPHS = {
    "m25": lambda: disjoint_union(*[Graph(2, [(0, 1)])] * 25),
    "p50": lambda: path_graph(50),
    "2xladder8": lambda: disjoint_union(ladder(8), ladder(8)),
    "dense": dense,
    "wide": wide,
}


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    """name -> .gr path of each family's graph."""
    folder = tmp_path_factory.mktemp("cost_class")
    paths = {}
    for name, build in GRAPHS.items():
        paths[name] = folder / f"{name}.gr"
        paths[name].write_text(gr_text(build()))
    return paths


def item(number, why):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {number}: "
                                                 f"{why}")


ITEM_3 = item(3, "a cover of 25 allocates the 2^26-entry zeta table, "
                 "about 270 MB, before exit 3 at out of memory")
ITEM_8 = item(8, "each component has a cover of 8, but the solvers run "
                 "one DP over the union's cover of 16")
LADDER8_PW = pathwidth_vc(ladder(8))[0]
LADDER8_TW = treewidth_vc_4k(ladder(8))[0]


# (graph, argv, the exit codes in its class, the width printed on exit 0,
# the error line on exit 3)
@pytest.mark.parametrize("name, argv, codes, width, error", [
    pytest.param("m25", ["pw", "--max-k", "25"], {0, 3}, 1, None,
                 marks=ITEM_3, id="m25-pw"),
    pytest.param("m25", ["tw", "--algo", "4k", "--max-k", "25"], {0, 3}, 1,
                 None, marks=ITEM_3, id="m25-tw4k"),
    pytest.param("p50", ["pw", "--max-k", "25"], {0, 3}, 1, None,
                 marks=ITEM_3, id="p50-pw"),
    pytest.param("p50", ["tw", "--algo", "4k", "--max-k", "25"], {0, 3}, 1,
                 None, marks=ITEM_3, id="p50-tw4k"),
    pytest.param("2xladder8", ["pw"], {0}, LADDER8_PW, None, marks=ITEM_8,
                 id="2xladder8-pw"),
    pytest.param("2xladder8", ["tw"], {0}, LADDER8_TW, None, marks=ITEM_8,
                 id="2xladder8-tw"),
    pytest.param("wide", ["pw", "--emit-witness"], {0}, None, None,
                 id="wide-pw"),
    pytest.param("wide", ["tw", "--algo", "4k", "--emit-witness"], {0},
                 None, None, id="wide-tw4k"),
    pytest.param("dense", ["tw"], {3}, None,
                 "error: vertex cover exceeds the cap 14", id="dense-tw"),
    pytest.param("dense", ["pw"], {3}, None,
                 "error: vertex cover exceeds the cap 18", id="dense-pw"),
])
def test_each_call_stays_in_its_cost_class(tmp_path, graphs, name, argv,
                                           codes, width, error):
    code, wall, peak, out, err = launch(
        tmp_path, [*argv, "--input", str(graphs[name])])
    assert "Traceback" not in err
    assert code in codes, (code, err)
    if code == 0:
        assert err == ""
        first = out.decode().partition("\n")[0]
        assert width is None or first == f"width: {width}"
    else:
        assert out == b"" and err.startswith("error: ")
        assert err.count("\n") == 1
        assert error is None or err == error + "\n"
    assert wall <= WALL_S, f"{wall:.2f} s"
    assert peak <= PEAK_MB, f"{peak:.0f} MB"


def test_output_to_a_pipe_whose_reader_is_gone(tmp_path, graphs):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code, wall, peak, _, err = launch(
            tmp_path, ["pw", "--emit-witness", "--input",
                       str(graphs["wide"])], stdout=write_end)
    finally:
        os.close(write_end)
    assert (code, err) == (
        3, f"error: cannot write output: {os.strerror(errno.EPIPE)}\n")
    assert wall <= WALL_S and peak <= PEAK_MB
