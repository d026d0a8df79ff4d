#!/usr/bin/env python3
"""The one gate for the bench artifacts: wall-clock floors and perf trends.

usage: bench_gate.py ARTIFACT [BASELINE]

The rule table below is keyed by the artifact's "bench" field.

Floors are absolute acceptance bars. They always fail the run, on pull
requests too, and a floor whose metric is missing fails:
  micro_gemm_packed  speedup_avx2_vs_scalar_fused_t1 >= 2.0 on every 8-bit
                     workload (0.0 means the AVX2 backend never ran; an
                     artifact with no 8-bit workload fails)
  serve_loadgen      drain_b8 / drain throughput_rps >= 1.5, and the decode
                     arm's speedup_vs_serial (tokens/s of 16 live streams,
                     stepped together, over one stream at a time) >= 1.2
  bench_decode       timing.speedup (incremental vs full recompute) >= 3.0

Trends compare each metric with the same metric in BASELINE, the artifact
from the last successful run on main. A fatal metric fails on a drop of
more than 20%; the rest are printed for the record, because shared-runner
scheduling noise dominates them:
  micro_gemm_packed  gflops of every path row; fatal at 1 thread only
  serve_loadgen      throughput_rps of every arm; fatal for drain, drain_b8;
                     the decode arm's batched_tokens_per_s
A missing BASELINE skips the trends but not the floors, and so does a
metric missing from either side. AF_PERF_WARN_ONLY=1 (CI sets it on pull
requests, where cold caches and fork runners skew timings) reports trend
regressions without failing.
"""

import json
import os
import sys

REGRESSION_PCT = 20.0
AVX2_SPEEDUP_MIN = 2.0
BATCH_SPEEDUP_MIN = 1.5
DECODE_BATCH_SPEEDUP_MIN = 1.2
DECODE_SPEEDUP_MIN = 3.0


def gemm_floors(doc):
    gated = [w for w in doc.get("workloads", []) if w.get("bits") == 8]
    if not gated:
        return [("8-bit workload", None, AVX2_SPEEDUP_MIN)]
    return [(f"{w['name']} avx2/scalar fused t1",
             w.get("speedup_avx2_vs_scalar_fused_t1"), AVX2_SPEEDUP_MIN)
            for w in gated]


def gemm_trend(doc):
    """{label: (gflops, fatal)} per (workload, path, backend, threads) row."""
    return {f"{w['name']} {p['name']} {p.get('backend', '')} t{p['threads']}":
            (p["gflops"], p["threads"] == 1)
            for w in doc.get("workloads", []) for p in w.get("paths", [])}


def serve_floors(doc):
    tput = {a["name"]: a["throughput_rps"] for a in doc.get("arms", [])}
    ratio = None
    if tput.get("drain", 0) > 0 and "drain_b8" in tput:
        ratio = tput["drain_b8"] / tput["drain"]
    decode = doc.get("decode", {})
    return [("drain_b8/drain throughput", ratio, BATCH_SPEEDUP_MIN),
            (f"{decode.get('streams', '?')}-stream/serial decode tokens/s",
             decode.get("speedup_vs_serial"), DECODE_BATCH_SPEEDUP_MIN)]


def serve_trend(doc):
    trend = {f"{a['name']} throughput_rps":
             (a["throughput_rps"], a["name"] in ("drain", "drain_b8"))
             for a in doc.get("arms", [])}
    if "batched_tokens_per_s" in doc.get("decode", {}):
        trend["decode batched_tokens_per_s"] = (
            doc["decode"]["batched_tokens_per_s"], False)
    return trend


def decode_floors(doc):
    return [("incremental/full decode speedup",
             doc.get("timing", {}).get("speedup"), DECODE_SPEEDUP_MIN)]


RULES = {
    "micro_gemm_packed": (gemm_floors, gemm_trend),
    "serve_loadgen": (serve_floors, serve_trend),
    "bench_decode": (decode_floors, None),
}


def check_floors(doc, floors):
    failed = 0
    for label, value, minimum in floors(doc):
        ok = value is not None and value >= minimum
        failed += not ok
        shown = "missing" if value is None else f"{value:.2f}x"
        print(f"  floor {label}: {shown} (need >= {minimum:.2f}x)  "
              f"{'ok' if ok else 'FAIL'}")
    return failed


def check_trend(doc, base_doc, trend):
    if base_doc.get("bench") != doc["bench"]:
        raise SystemExit(f"bench-gate: the baseline is not a {doc['bench']} "
                         "artifact")
    cur, base = trend(doc), trend(base_doc)
    failed = 0
    for label, (base_v, fatal) in sorted(base.items()):
        if label not in cur:
            print(f"  trend {label}: in baseline but not in this run")
            continue
        cur_v = cur[label][0]
        delta = 100.0 * (cur_v - base_v) / base_v if base_v > 0 else 0.0
        line = f"  trend {label}: {base_v:.2f} -> {cur_v:.2f} ({delta:+.1f}%)"
        if not fatal:
            line += "  (informational)"
        elif delta < -REGRESSION_PCT:
            failed += 1
            line += "  << REGRESSION"
        print(line)
    return failed


def main(argv):
    if len(argv) not in (2, 3):
        print("usage: bench_gate.py ARTIFACT [BASELINE]", file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        doc = json.load(f)
    name = doc.get("bench")
    if name not in RULES:
        print(f"bench-gate: no rules for bench {name!r}", file=sys.stderr)
        return 2
    floors, trend = RULES[name]
    print(f"bench-gate: {name} ({argv[1]})")
    floor_failures = check_floors(doc, floors)

    trend_failures = 0
    base_path = argv[2] if len(argv) == 3 else None
    if trend is not None:
        if base_path is not None and os.path.exists(base_path):
            with open(base_path) as f:
                trend_failures = check_trend(doc, json.load(f), trend)
        else:
            print(f"  no baseline at {base_path}; skipping the trends")

    if trend_failures:
        print(f"bench-gate: {trend_failures} fatal metric(s) more than "
              f"{REGRESSION_PCT:.0f}% below the baseline")
        if os.environ.get("AF_PERF_WARN_ONLY", "0") == "1":
            print("bench-gate: warn-only mode; not failing on the trends")
            trend_failures = 0
    if floor_failures:
        print(f"bench-gate: {floor_failures} floor(s) not met")
    if floor_failures or trend_failures:
        return 1
    print("bench-gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
