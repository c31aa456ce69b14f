"""Running one CLI call and judging its answer.

`spawn` runs `python -m vcwidth` as a child process and reaps it with
`os.wait4`, so each call gets its own rusage: `RUSAGE_CHILDREN`'s ru_maxrss
is a running maximum over every child ever reaped, which would hide a later
drop in one workload's peak memory.

`Gate` decides whether a call's answer is right: the exit code, the absence
of a traceback, the width against each of the call's references, and the
emitted witness, which must pass `vcwidth check` at the reported width and,
for a pathwidth call, declare itself a path. Nothing here is timed.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass


@dataclass
class CallResult:
    exit: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(argv, env, workdir, timeout_s):
    """Run `python -m vcwidth *argv` to completion; time and account it."""
    return run_python(["-m", "vcwidth", *argv], env, workdir, timeout_s)


def run_python(args, env, workdir, timeout_s):
    """Run `python *args` to completion; time and account it.

    The child is killed once it outlives `timeout_s`, and is always reaped
    before this returns or raises.
    """
    out_path = os.path.join(workdir, "call.out")
    err_path = os.path.join(workdir, "call.err")
    cmd = [sys.executable, *args]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, cmd, env, file_actions=actions)
        reaped = threading.Event()

        def kill():
            if not reaped.is_set():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.wait4(pid, 0)
            raise
        finally:
            reaped.set()
            timer.cancel()
        wall = time.perf_counter() - start
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return CallResult(os.waitstatus_to_exitcode(status), wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                      stdout, stderr)


def call_argv(call, paths):
    """The CLI arguments of `call`, given its instance's (gr, cover) paths."""
    gr, cov = paths
    argv = list(call.argv) + ["--input", gr]
    if call.use_cover:
        argv += ["--cover", cov]
    if call.expect_exit == 0:
        argv.append("--emit-witness")
    return argv


def parse_width(stdout):
    """Width from the first output line `width: N`, or None."""
    first = stdout.split(b"\n", 1)[0].decode("ascii", "replace")
    if not first.startswith("width: "):
        return None
    try:
        return int(first[len("width: "):])
    except ValueError:
        return None


class Gate:
    """Judges call results; a verdict is a list of problems, empty if right.

    `cli` is the package's `vcwidth.cli` module, whose `main(["check", ...])`
    is what `vcwidth check` runs. Verdicts are cached by output, since the
    CLI's output is deterministic and repeated passes print the same bytes.
    """

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self._seen = {}

    def check_witness(self, gr_path, td_bytes, width):
        td_path = os.path.join(self.workdir, "witness.td")
        with open(td_path, "wb") as fh:
            fh.write(td_bytes)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(["check", gr_path, td_path])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        if code != 0:
            return [f"witness rejected by check (exit {code}): "
                    f"{err.getvalue().strip()[:200]}"]
        if out.getvalue().strip() != f"width: {width}":
            return [f"witness has {out.getvalue().strip()!r}, "
                    f"call reported width {width}"]
        return []

    def verdict(self, call, paths, exit_code, stdout, stderr):
        """Problems with one call's answer; returns (problems, width)."""
        key = (call.name, exit_code, stdout, stderr)
        if key not in self._seen:
            self._seen[key] = self._judge(call, paths, exit_code, stdout,
                                          stderr)
        return self._seen[key]

    def _judge(self, call, paths, exit_code, stdout, stderr):
        problems = []
        if b"Traceback" in stderr:
            problems.append("traceback on stderr")
        if exit_code != call.expect_exit:
            problems.append(f"exit {exit_code}, expected {call.expect_exit}")
        if problems or call.expect_exit != 0:
            return problems, None
        width = parse_width(stdout)
        if width is None:
            return ["no `width: N` line"], None
        for ref, source in call.references:
            if width != ref:
                problems.append(f"width {width}, reference {ref} ({source})")
        td = stdout.split(b"\n", 1)[1] if b"\n" in stdout else b""
        # Undeclared, `check` would accept a tree as a pw witness.
        if call.measure == "pw" and not any(
                line.split()[:2] == [b"c", b"path"]
                for line in td.split(b"\n")):
            problems.append("pw witness lacks the `c path` line")
        problems += self.check_witness(paths[0], td, width)
        return problems, width


def pair_problems(calls, widths):
    """tw <= pw for every instance that both a tw and a pw call solved."""
    by_inst = {}
    for call in calls:
        w = widths.get(call.name)
        if w is not None:
            by_inst.setdefault(call.instance.key, {})[call.measure] = w
    return {key: f"tw {m['tw']} > pw {m['pw']}" for key, m in by_inst.items()
            if "tw" in m and "pw" in m and m["tw"] > m["pw"]}
