"""Fail if any benchmark call prints other bytes than the pinned ones.

Runs every call of every workload in perfbench/workloads.py at each pinned
seed as `python -m vcwidth` with the benchmark's own arguments
(gate.call_argv), in a temporary directory with relative input paths, and
compares a digest of each call's exit code, stdout and stderr with
.github/benchmark_outputs.json. Each call runs a second time with `--stats`
appended, whose digest is pinned under the call's name plus " --stats", so
the solvers' counters are pinned too. The witness of each call that exits 0
is then run through `python -m vcwidth check` against the call's graph, and
that digest is pinned under the call's name plus " check", so the reader
and validator that the benchmark's gate relies on are pinned as well. A
change that alters an answer, a witness, an error message or a counter on
purpose re-pins the file with --pin and says why. Usage, from anywhere:

    python3 .github/check_outputs.py          # check
    python3 .github/check_outputs.py --pin    # rewrite the pinned digests
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / ".github" / "benchmark_outputs.json"
SEEDS = (20260814, 7)
STATS = " --stats"  # suffix of the name of a call's --stats digest
CHECK = " check"  # suffix of the name of its witness's `check` digest

sys.path.insert(0, str(ROOT))
from perfbench.gate import call_argv  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def digest(code, out, err):
    h = hashlib.sha256(b"%d\0%d\0" % (code, len(out)))
    h.update(out)
    h.update(err)
    return h.hexdigest()


def run_calls(seed, workdir):
    """{"workload/call": digest} of every call at `seed`, plus
    {"workload/call --stats": digest} of the same call with --stats and
    {"workload/call check": digest} of `check` on its witness, if any."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests = {}

    def run(name, args):
        done = subprocess.run(
            [sys.executable, "-m", "vcwidth", *args], cwd=workdir, env=env,
            capture_output=True, stdin=subprocess.DEVNULL, timeout=600)
        digests[name] = digest(done.returncode, done.stdout, done.stderr)
        return done

    for workload, make in WORKLOADS.items():
        paths = {}
        for call in make(seed):
            inst = call.instance
            if inst.key not in paths:
                paths[inst.key] = tuple(
                    p and os.path.relpath(p, workdir)
                    for p in inst.write(workdir))
            argv = call_argv(call, paths[inst.key])
            name = f"{workload}/{call.name}"
            assert name not in digests, name
            done = run(name, argv)
            run(name + STATS, argv + ["--stats"])
            if done.returncode == 0:
                witness = Path(workdir, "witness.td")
                witness.write_bytes(done.stdout.split(b"\n", 1)[1])
                run(name + CHECK, ["check", paths[inst.key][0], witness.name])
    return digests


def main(pin):
    got = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            got[str(seed)] = run_calls(seed, workdir)
    calls = sum(not name.endswith((STATS, CHECK))
                for names in got.values() for name in names)
    if pin:
        PINNED.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"pinned {calls} calls, with and without --stats, and the "
              f"checks of their witnesses to {PINNED}")
        return 0
    want = json.loads(PINNED.read_text())
    bad = [f"seed {seed} {name}"
           for seed in sorted(set(want) | set(got))
           for name in sorted(set(want.get(seed, {})) | set(got.get(seed, {})))
           if want.get(seed, {}).get(name) != got.get(seed, {}).get(name)]
    for line in bad:
        print("output changed:", line)
    stats = sum(line.endswith(STATS) for line in bad)
    checks = sum(line.endswith(CHECK) for line in bad)
    print(f"{calls} calls, {len(bad) - stats - checks} plain-output digests "
          f"changed, {stats} --stats digests changed, {checks} check digests "
          f"changed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main("--pin" in sys.argv[1:]))
