#!/usr/bin/env python3
"""Self-test: proves the benchmark's correctness gate bites.

    python3 perfbench/selftest.py

Runs the shortest workload three times through run.py, one second each,
with the traced pass left alone, run with another seed, and fingerprinted
with one field dropped.  The clean run must pass with every metric.  Each
perturbed run must be reported as a failed run: exit code 1,
"correct": false, at least one failed run and no metrics at all.  Exits 0
when all three behave, 1 otherwise.
"""

import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOAD = "paper_dynamic_2k"
END_TO_END = {"run_s", "setup_s", "events_per_s", "peak_rss_mb", "hit_ratio",
              "query_msgs_per_query", "first_result_ms_p50",
              "first_result_ms_p99"}


def run(perturb):
    cmd = [sys.executable, RUN, "--workload", WORKLOAD, "--seed", "7",
           "--seconds", "1", "--trace", "0", "--perturb", perturb]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def main():
    problems = []
    rc, result = run("none")
    if rc != 0 or not result or not result["correct"] or result["failed"]:
        problems.append(f"clean run: rc={rc} result={result}")
    elif set(result["metrics"]) != END_TO_END:
        problems.append(f"clean run reports {sorted(result['metrics'])}")
    for perturb in ("seed", "drop-field"):
        rc, result = run(perturb)
        bites = (rc == 1 and result is not None and result["correct"] is False
                 and result["failed"] >= 1 and result["metrics"] == {})
        print(f"perturb={perturb}: rc={rc} result={result} ->",
              "gate bites" if bites else "NOT CAUGHT")
        if not bites:
            problems.append(f"perturb={perturb} was not reported as failed")
    for p in problems:
        print("selftest:", p, file=sys.stderr)
    print("selftest:", "ok" if not problems else "FAILED")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
