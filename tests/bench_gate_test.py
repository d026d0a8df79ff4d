#!/usr/bin/env python3
"""Regression test for .github/scripts/bench_gate.py.

Builds minimal bench artifacts in code and runs the gate on them as CI
does, checking that every floor and trend rule fires where it should and
stays quiet where it is informational.

    python3 tests/bench_gate_test.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

GATE = Path(__file__).resolve().parents[1] / ".github/scripts/bench_gate.py"


def gemm_artifact(speedup=2.5, bits=8, gflops_t1=10.0, gflops_t4=30.0):
    paths = [{"name": "fused[avx2]", "backend": "avx2", "threads": t,
              "gflops": g} for t, g in ((1, gflops_t1), (4, gflops_t4))]
    return {"bench": "micro_gemm_packed",
            "workloads": [{"name": f"512x512x512 af<{bits},3>", "bits": bits,
                           "paths": paths,
                           "speedup_avx2_vs_scalar_fused_t1": speedup}]}


def serve_artifact(drain=1000.0, drain_b8=2000.0, steady=4000.0,
                   decode_speedup=1.4, batched_tps=30000.0):
    arms = {"steady": steady, "drain": drain, "drain_b8": drain_b8}
    return {"bench": "serve_loadgen",
            "decode": {"streams": 16, "speedup_vs_serial": decode_speedup,
                       "batched_tokens_per_s": batched_tps,
                       "mean_decode_batch": 15.8},
            "arms": [{"name": n, "throughput_rps": v, "p99_us": 100.0}
                     for n, v in arms.items()]}


def decode_artifact(speedup=5.0):
    return {"bench": "bench_decode", "timing": {"speedup": speedup}}


def run_gate(artifact, baseline=None, warn_only=False):
    """Runs the gate as CI does, with a baseline path that exists only when
    `baseline` is given; returns (exit code, stdout + stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        cur = os.path.join(tmp, "current.json")
        base = os.path.join(tmp, "baseline.json")
        for path, doc in ((cur, artifact), (base, baseline)):
            if doc is not None:
                with open(path, "w") as f:
                    json.dump(doc, f)
        env = dict(os.environ, AF_PERF_WARN_ONLY="1" if warn_only else "0")
        r = subprocess.run([sys.executable, str(GATE), cur, base], env=env,
                           capture_output=True, text=True)
        return r.returncode, r.stdout + r.stderr


class BenchGate(unittest.TestCase):
    def assert_gate(self, want, *args, **kwargs):
        rc, out = run_gate(*args, **kwargs)
        self.assertEqual(rc, want, out)
        return out

    # Floors: absolute bars, checked with or without a baseline.

    def test_healthy_artifacts_pass(self):
        for doc in (gemm_artifact(), serve_artifact(), decode_artifact()):
            self.assert_gate(0, doc, copy.deepcopy(doc))

    def test_avx2_speedup_below_floor_fails(self):
        self.assert_gate(1, gemm_artifact(speedup=1.9))

    def test_avx2_never_ran_fails(self):
        self.assert_gate(1, gemm_artifact(speedup=0.0))

    def test_no_8bit_workload_fails(self):
        self.assert_gate(1, gemm_artifact(bits=4))

    def test_drain_ratio_below_floor_fails(self):
        self.assert_gate(1, serve_artifact(drain_b8=1400.0))

    def test_decode_batch_speedup_below_floor_fails(self):
        self.assert_gate(1, serve_artifact(decode_speedup=1.1))

    def test_missing_decode_arm_fails(self):
        doc = serve_artifact()
        del doc["decode"]
        self.assert_gate(1, doc)

    def test_decode_speedup_below_floor_fails(self):
        self.assert_gate(1, decode_artifact(speedup=2.9))

    def test_missing_floor_metric_fails(self):
        self.assert_gate(1, {"bench": "bench_decode"})

    def test_unknown_bench_is_a_usage_error(self):
        self.assert_gate(2, {"bench": "micro_session"})

    # Trends: a >20% drop against the baseline, fatal only where marked.

    def test_single_thread_gemm_drop_fails(self):
        self.assert_gate(1, gemm_artifact(gflops_t1=7.5), gemm_artifact())

    def test_multi_thread_gemm_drop_is_informational(self):
        self.assert_gate(0, gemm_artifact(gflops_t4=15.0), gemm_artifact())

    def test_drain_drop_fails(self):
        self.assert_gate(1, serve_artifact(drain=750.0), serve_artifact())

    def test_steady_drop_is_informational(self):
        self.assert_gate(0, serve_artifact(steady=2000.0), serve_artifact())

    def test_decode_tokens_drop_is_informational(self):
        out = self.assert_gate(0, serve_artifact(batched_tps=15000.0),
                               serve_artifact())
        self.assertIn("decode batched_tokens_per_s", out)

    def test_warn_only_passes_a_trend_regression(self):
        self.assert_gate(0, gemm_artifact(gflops_t1=7.5), gemm_artifact(),
                         warn_only=True)

    def test_warn_only_still_fails_a_floor(self):
        self.assert_gate(1, gemm_artifact(speedup=1.9, gflops_t1=7.5),
                         gemm_artifact(), warn_only=True)

    def test_missing_baseline_skips_trends_but_not_floors(self):
        out = self.assert_gate(0, serve_artifact(drain=750.0, drain_b8=1500.0))
        self.assertIn("skipping the trends", out)
        self.assert_gate(1, serve_artifact(drain_b8=1400.0))


if __name__ == "__main__":
    unittest.main()
