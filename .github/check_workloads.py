"""Fail unless every benchmark workload answered correctly with no failed
call.

perfbench/run.py exits 0 whatever it finds; its last output line is one
JSON object per workload. Usage:

    python3 .github/check_workloads.py RESULT_LINE_FILE LABEL
"""

import json
import sys

result = json.load(open(sys.argv[1]))
label = sys.argv[2]
want = {"sparse-ladder", "tw-default", "wide", "dense-cvc"}
bad = [name for name in sorted(want)
       if name not in result or not result[name]["correct"]
       or result[name]["failed"] != 0]
for name in sorted(want & set(result)):
    print(label, name, "correct:", result[name]["correct"],
          "failed:", result[name]["failed"])
sys.exit(f"workloads not correct at {label}: {bad}" if bad else 0)
