"""Fail if any benchmark call prints other bytes than the pinned ones.

Runs every call of every workload in perfbench/workloads.py at each pinned
seed as `python -m vcwidth` with the benchmark's own arguments
(gate.call_argv), in a temporary directory with relative input paths, and
compares a digest of each call's exit code, stdout and stderr with
.github/benchmark_outputs.json. Each call runs a second time with `--stats`
appended, whose digest is pinned under the call's name plus " --stats", so
the solvers' counters are pinned too. A change that alters an answer, a
witness, an error message or a counter on purpose re-pins the file with
--pin and says why. Usage, from anywhere:

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
    {"workload/call --stats": digest} of the same call with --stats."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digests = {}
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
            for key, extra in ((name, []), (name + STATS, ["--stats"])):
                done = subprocess.run(
                    [sys.executable, "-m", "vcwidth", *argv, *extra],
                    cwd=workdir, env=env, capture_output=True,
                    stdin=subprocess.DEVNULL, timeout=600)
                digests[key] = digest(done.returncode, done.stdout,
                                      done.stderr)
    return digests


def main(pin):
    got = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            got[str(seed)] = run_calls(seed, workdir)
    calls = sum(not name.endswith(STATS)
                for names in got.values() for name in names)
    if pin:
        PINNED.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"pinned {calls} calls, with and without --stats, to {PINNED}")
        return 0
    want = json.loads(PINNED.read_text())
    bad = [f"seed {seed} {name}"
           for seed in sorted(set(want) | set(got))
           for name in sorted(set(want.get(seed, {})) | set(got.get(seed, {})))
           if want.get(seed, {}).get(name) != got.get(seed, {}).get(name)]
    for line in bad:
        print("output changed:", line)
    stats = sum(line.endswith(STATS) for line in bad)
    print(f"{calls} calls, {len(bad) - stats} plain-output digests changed, "
          f"{stats} --stats digests changed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main("--pin" in sys.argv[1:]))
