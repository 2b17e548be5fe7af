#!/usr/bin/env python3
"""Validates a bench_sweep document before anything archives it.

    python3 scripts/check_sweep.py DOC

Dispatches on the document's "schema" (dsf-fault/load/abuse/scheme-sweep-v1)
and asserts that the sweep was checker-clean plus the sweep's own gates:
conservation laws, percentile ordering, the monotone p99 curve and the
ranked plane's acceptance bars.  The abuse sweep's case-study trace is read
from <DOC stem>_case_study_trace.json, where bench_sweep writes it.  Prints
a one-line summary and exits 0 when every gate holds; exits 1 naming the
failed gate otherwise, and 2 on a usage error.
"""

import json
import os
import sys


def check_fault(doc, path):
    points = doc.get("points", [])
    assert points, "no sweep points"
    for p in points:
        assert 0.0 <= p["hit_ratio_static"] <= 1.0, p
        assert 0.0 <= p["hit_ratio_dynamic"] <= 1.0, p
        # Loss is applied, never invented: nothing drops on a reliable
        # transport, and every lossy point drops something.
        if p["loss"] == 0.0:
            assert p["dropped_total"] == 0, p
        else:
            assert p["dropped_total"] > 0, p
    return (f"validated {path}: {len(points)} points, dynamic hit ratio "
            f"{points[0]['hit_ratio_dynamic']:.3f} -> "
            f"{points[-1]['hit_ratio_dynamic']:.3f}")


def check_load(doc, path):
    points = doc.get("points", [])
    assert points, "no sweep points"
    for p in points:
        assert p["offered"] == p["admitted"] + p["rejected"], p
        assert p["admitted"] == p["completed"] + p["shed"] + p["pending"], p
        assert 0.0 <= p["rejection_rate"] <= 1.0, p
        assert p["latency_p50_ms"] <= p["latency_p95_ms"] <= p["latency_p99_ms"], p
    p99s = [p["latency_p99_ms"] for p in points]
    assert all(a <= b * 1.05 for a, b in zip(p99s, p99s[1:])), \
        f"p99 not monotone across offered-load steps: {p99s}"
    return (f"validated {path}: {len(points)} points, "
            f"p99 {p99s[0]:.0f} -> {p99s[-1]:.0f} ms")


def check_abuse(doc, path):
    points = doc.get("points", [])
    assert points, "no sweep points"
    schemes = {p["dynamic"] for p in points}
    assert schemes == {True, False}, f"missing a scheme arm: {schemes}"
    for p in points:
        # Abuse traffic is attributed, never invented: a strict subset of
        # the run ledger, hits bounded by queries, and exactly zero when
        # the abuser fraction is zero.
        assert p["abuse_messages"] <= p["total_messages"], p
        assert p["abuse_bytes"] <= p["total_bytes"], p
        assert p["abuse_hits"] <= p["abuse_queries"], p
        assert 0.0 <= p["abuse_traffic_share"] <= 1.0, p
        assert 0.0 <= p["good_hit_ratio"] <= 1.0, p
        if p["abuser_fraction"] == 0.0:
            assert p["abusers"] == 0 and p["abuse_queries"] == 0, p
            assert p["abuse_messages"] == 0 and p["abuse_bytes"] == 0, p
        else:
            assert p["abusers"] > 0 and p["abuse_queries"] > 0, p
    case = doc.get("case_study", {})
    assert case.get("abusers") == 1, f"case study should have one abuser: {case}"
    assert case.get("trace_records", 0) > 0, "empty case-study trace"
    stem = path[:-len(".json")] if path.endswith(".json") else path
    trace_path = stem + "_case_study_trace.json"
    with open(trace_path) as f:
        trace = json.load(f)
    assert trace.get("traceEvents"), f"no traceEvents in {trace_path}"
    shares = [p["abuse_traffic_share"] for p in points]
    return (f"validated {path}: {len(points)} points, "
            f"case-study share {case['abuse_traffic_share']:.3f}, "
            f"max abuse share {max(shares):.3f}")


def check_scheme(doc, path):
    arms = {a["scheme"]: a for a in doc.get("arms", [])}
    expected = {"flood", "iterative", "directed", "local-indices", "top-k", "lsh"}
    assert set(arms) == expected, f"missing scheme arm(s): {expected - set(arms)}"
    queries = {a["queries"] for a in arms.values()}
    assert len(queries) == 1, f"arms saw different query workloads: {queries}"
    for a in arms.values():
        assert 0.0 <= a["hit_ratio"] <= 1.0, a
        assert a["hits"] <= a["queries"], a
    # The ranked plane's acceptance bars.
    comp = doc["topk_vs_flood"]
    assert comp["traffic_reduction"] >= 3.0, \
        f"top-k traffic reduction {comp['traffic_reduction']} < 3x"
    assert comp["topk_hits"] == comp["flood_hits"], \
        f"hit verdicts diverged: {comp['topk_hits']} vs {comp['flood_hits']}"
    k = doc["top_k"]
    assert arms["top-k"]["results"] <= k * arms["top-k"]["queries"], \
        "top-k arm returned more than k results per query"
    recall = doc["lsh_recall"]
    assert recall["true_pairs"] > 0, "recall stanza found no true pairs"
    assert recall["recall"] >= 0.9, f"lsh recall {recall['recall']} < 0.9"
    return (f"validated {path}: {len(arms)} arms, top-k reduction "
            f"{comp['traffic_reduction']:.2f}x at equal hit ratio, "
            f"lsh recall {recall['recall']:.3f}")


CHECKS = {
    "dsf-fault-sweep-v1": check_fault,
    "dsf-load-sweep-v1": check_load,
    "dsf-abuse-sweep-v1": check_abuse,
    "dsf-scheme-sweep-v1": check_scheme,
}


def main():
    if len(sys.argv) != 2:
        print(f"usage: {os.path.basename(sys.argv[0])} DOC", file=sys.stderr)
        return 2
    if not __debug__:
        print("check_sweep: its gates are assert statements; run without -O",
              file=sys.stderr)
        return 2
    path = sys.argv[1]
    try:
        with open(path) as f:
            doc = json.load(f)
        check = CHECKS.get(doc.get("schema"))
        assert check, f"bad schema in {path}"
        assert doc.get("clean") is True, "sweep was not checker-clean"
        print(check(doc, path))
    except (AssertionError, KeyError, OSError, ValueError) as e:
        print(f"check_sweep: {path}: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
