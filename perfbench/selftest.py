#!/usr/bin/env python3
"""Self-test: runs each workload once, untraced and traced, and checks that
the result line is well formed and names every metric BENCHMARK.json lists.

    python3 perfbench/selftest.py                   # the tracked workloads
    python3 perfbench/selftest.py cached_ram tenant_mix

Exits 0 when every run printed every metric as a finite number with its
unit and reported correct outputs.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SECONDS = "5"


def check(workload, trace, spec):
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", SECONDS,
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    problems = []
    if proc.returncode != 0 or not lines:
        return ["exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:])]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("outputs not correct")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append("attempted/failed %r/%r" % (result.get("attempted"),
                                                   result.get("failed")))
    want = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    for m in want:
        entry = got.get(m["name"])
        if entry is None:
            problems.append("missing %s" % m["name"])
        elif entry.get("unit") != m["unit"]:
            problems.append("%s unit %r, want %r" % (m["name"], entry.get("unit"), m["unit"]))
        elif not (isinstance(entry.get("value"), (int, float))
                  and math.isfinite(entry["value"])):
            problems.append("%s value %r" % (m["name"], entry.get("value")))
    extra = set(got) - {m["name"] for m in want}
    if extra:
        problems.append("unlisted metrics %s" % sorted(extra))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    failures = 0
    for workload in workloads:
        for trace in (0, 1):
            problems = check(workload, trace, spec)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("%-12s trace=%d  %s" % (workload, trace, status), flush=True)
            failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
