#!/usr/bin/env python3
"""Self-test: proves check_sweep.py's gates bite.

    python3 scripts/check_sweep_selftest.py DIR

DIR holds the four documents bench_sweep writes ({fault,load,abuse,scheme}
_sweep.json, plus the abuse case-study trace), as the sweep_* tests leave
them.  Each unmodified document must pass check_sweep.py.  Then each gate
is broken, one at a time, in a copy of its document, and the validator
must reject the copy with a non-zero exit.  Exits 0 when all of that
holds, 1 otherwise.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

CHECK = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "check_sweep.py")
TRACE = "_case_study_trace.json"


def set_clean_false(doc):
    doc["clean"] = False


def break_admission(doc):
    doc["points"][0]["offered"] += 1


def break_p99_monotone(doc):
    # Raising the first point's p99 keeps its own p50 <= p95 <= p99
    # ordering, so only the curve's monotonicity breaks.
    doc["points"][0]["latency_p99_ms"] = \
        2.0 * doc["points"][-1]["latency_p99_ms"] + 1.0


def break_abuse_subset(doc):
    p = next(p for p in doc["points"] if p["abuser_fraction"] > 0.0)
    p["abuse_messages"] = p["total_messages"] + 1


def break_fault_drops(doc):
    doc["points"][-1]["dropped_total"] = 0


def break_equal_verdicts(doc):
    doc["topk_vs_flood"]["topk_hits"] += 1


def break_reduction(doc):
    doc["topk_vs_flood"]["traffic_reduction"] = 2.999


def break_recall(doc):
    doc["lsh_recall"]["recall"] = 0.899


# (sweep, gate, mutation): every gate the validator must enforce.
CASES = [(sweep, "clean", set_clean_false)
         for sweep in ("fault", "load", "abuse", "scheme")] + [
    ("fault", "drops at every lossy point", break_fault_drops),
    ("load", "offered = admitted + rejected", break_admission),
    ("load", "p99 monotone", break_p99_monotone),
    ("abuse", "abuse traffic within total", break_abuse_subset),
    ("scheme", "topk_hits == flood_hits", break_equal_verdicts),
    ("scheme", "traffic reduction >= 3", break_reduction),
    ("scheme", "lsh recall >= 0.9", break_recall),
]


def validate(path):
    proc = subprocess.run([sys.executable, CHECK, path], capture_output=True,
                          text=True, check=False)
    return proc.returncode


def main():
    if len(sys.argv) != 2:
        print("usage: check_sweep_selftest.py DIR", file=sys.stderr)
        return 2
    src = sys.argv[1]
    problems = []
    docs = {}
    for sweep in ("fault", "load", "abuse", "scheme"):
        path = os.path.join(src, f"{sweep}_sweep.json")
        rc = validate(path)
        print(f"{sweep}: unmodified document -> rc={rc}")
        if rc != 0:
            problems.append(f"unmodified {path} was rejected (rc={rc})")
        with open(path) as f:
            docs[sweep] = json.load(f)
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(os.path.join(src, "abuse_sweep" + TRACE),
                    os.path.join(tmp, "abuse_sweep" + TRACE))
        for sweep, gate, mutate in CASES:
            doc = copy.deepcopy(docs[sweep])
            mutate(doc)
            path = os.path.join(tmp, f"{sweep}_sweep.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            rc = validate(path)
            print(f"{sweep}: broke {gate} -> rc={rc}",
                  "gate bites" if rc != 0 else "NOT CAUGHT")
            if rc == 0:
                problems.append(f"{sweep}: broken {gate} was accepted")
    for p in problems:
        print("selftest:", p, file=sys.stderr)
    print("selftest:", "ok" if not problems else "FAILED")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
