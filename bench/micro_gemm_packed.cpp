// Perf-regression harness for the LUT-fused packed GEMM.
//
// Implementations of the same product y = x * W^T with W stored as packed
// AdaptivFloat codes:
//   scalar_ref    — the pre-kernel-layer path, reproduced locally: per-
//                   element scalar decode of every code, then the strided
//                   trans_b matmul loop. This is the baseline the speedup
//                   gate is measured against.
//   lut_unpack    — table-driven unpack() to a full FP32 matrix, then the
//                   current tile-packed matmul.
//   fused[<be>]   — matmul_packed through kernel backend <be>: packed
//                   panels decoded by table into cache-resident tiles
//                   inside the GEMM; the FP32 weight matrix never exists.
//                   Measured once per available backend.
// Numeric contract (the harness exits nonzero on any violation):
//   * scalar_ref, lut_unpack and fused[scalar] are bit-identical — the
//     table and the scalar backend only buy speed, never bits;
//   * fused[avx2] is within kGemmBackendUlpTol norm-scaled ULPs of
//     scalar_ref per element (FMA rounds once per multiply-add where the
//     scalar chain rounds twice; the scale is the dot product's L1 norm —
//     see ulp_at_scale), and bit-identical across thread counts.
//
// Modes:
//   micro_gemm_packed           — timing table at 1 and 4 threads, writes
//                                 BENCH_gemm.json (machine-readable: ms,
//                                 GFLOP/s, FNV-1a digests, speedups,
//                                 max_ulp per backend).
//   micro_gemm_packed --verify  — prints only output digests under the
//                                 *current* AF_THREADS and AF_BACKEND
//                                 settings; CI diffs this across thread
//                                 counts and against the pinned scalar
//                                 goldens (tests/golden/).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "src/core/bitpack.hpp"
#include "src/kernels/backend.hpp"
#include "src/kernels/gemm_packed.hpp"
#include "src/tensor/gemm_kernel.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/hash.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"
#include "src/util/ulp.hpp"

#include "bench_util.hpp"

namespace af {
namespace {

using bench::tensor_digest;
using bench::time_ms;

constexpr int kParallelThreads = 4;
constexpr int kReps = 3;

Tensor abs_of(const Tensor& t) {
  Tensor out(t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    out[i] = t[i] < 0.0f ? -t[i] : t[i];
  }
  return out;
}

/// Worst per-element divergence in norm-scaled ULPs (see ulp_at_scale):
/// norms[i] = sum_k |A_ik * B_jk|, the dot product's L1 norm.
double max_scaled_ulp(const Tensor& a, const Tensor& b, const Tensor& norms) {
  double worst = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, ulp_at_scale(a[i], b[i], norms[i]));
  }
  return worst;
}

// ----- scalar reference: the seed path, byte-for-byte ----------------------

/// Per-element scalar decode, exactly what unpack() did before the LUT.
Tensor unpack_scalar(const PackedAdaptivFloatTensor& p) {
  const auto codes =
      unpack_codes(p.bytes(), p.format().bits(), static_cast<std::size_t>(
                                                     p.numel()));
  Tensor out(p.shape());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    out[static_cast<std::int64_t>(i)] = p.format().decode(codes[i]);
  }
  return out;
}

/// The seed matmul's trans_b kernel: cache-blocked i-k-j with strided reads
/// of B columns (no panel packing). Same chunking and accumulation order as
/// the scalar-backend kernel, so its output is the bit-exactness oracle.
Tensor matmul_seed_tb(const Tensor& a, const Tensor& b) {
  constexpr std::int64_t kRowGrain = 16;
  constexpr std::int64_t kKBlock = 256;
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  parallel_for(0, m, kRowGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t k0 = 0; k0 < k; k0 += kKBlock) {
      const std::int64_t k1 = std::min(k, k0 + kKBlock);
      for (std::int64_t i = i0; i < i1; ++i) {
        float* crow = pc + i * n;
        for (std::int64_t kk = k0; kk < k1; ++kk) {
          const float aval = pa[i * k + kk];
          if (aval == 0.0f) continue;
          for (std::int64_t j = 0; j < n; ++j) {
            crow[j] += aval * pb[j * k + kk];
          }
        }
      }
    }
  });
  return c;
}

// ----- harness -------------------------------------------------------------

struct Workload {
  std::string name;
  std::int64_t m, n, k;
  int bits, exp_bits;
  Tensor x;
  PackedAdaptivFloatTensor w;
};

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  {
    Pcg32 rng(21);
    Tensor x = Tensor::randn({512, 512}, rng);
    Tensor wf = Tensor::randn({512, 512}, rng, 0.5f);
    out.push_back({"512x512x512 af<8,3>", 512, 512, 512, 8, 3, std::move(x),
                   PackedAdaptivFloatTensor::quantize_pack(wf, 8, 3)});
  }
  {
    Pcg32 rng(22);
    Tensor x = Tensor::randn({512, 512}, rng);
    Tensor wf = Tensor::randn({512, 512}, rng, 0.5f);
    out.push_back({"512x512x512 af<4,2>", 512, 512, 512, 4, 2, std::move(x),
                   PackedAdaptivFloatTensor::quantize_pack(wf, 4, 2)});
  }
  return out;
}

/// How a path's output is held against the scalar reference.
enum class Tolerance { kBitExact, kUlpBound };

struct Path {
  std::string name;
  std::string backend;  // backend column for the JSON / trend keys
  Tolerance tol;
  std::function<Tensor(const Workload&)> run;
};

std::vector<Path> make_paths() {
  std::vector<Path> paths = {
      {"scalar_ref", "scalar", Tolerance::kBitExact,
       [](const Workload& w) {
         return matmul_seed_tb(w.x, unpack_scalar(w.w));
       }},
      {"lut_unpack", "scalar", Tolerance::kBitExact,
       [](const Workload& w) {
         // unpack() decodes by table (bit-identical on every backend) and
         // matmul() is the always-scalar ops.cpp kernel.
         return matmul(w.x, w.w.unpack(), false, /*trans_b=*/true);
       }},
      {"fused[scalar]", "scalar", Tolerance::kBitExact,
       [](const Workload& w) {
         return matmul_packed(w.x, w.w, scalar_backend());
       }},
  };
  if (const KernelBackend* avx2 = avx2_backend()) {
    paths.push_back({"fused[avx2]", "avx2", Tolerance::kUlpBound,
                     [avx2](const Workload& w) {
                       return matmul_packed(w.x, w.w, *avx2);
                     }});
  }
  return paths;
}

struct Measurement {
  std::string path;
  std::string backend;
  int threads;
  double ms;
  double gflops;
  std::uint64_t dig;
  double ulp;  // norm-scaled ULPs vs the 1-thread scalar reference
};

// ----- M-sweep: per-call cost vs batch rows ---------------------------------
//
// matmul_packed decodes each weight panel once per *call*, so the decode
// cost is amortized over however many activation rows the call carries.
// This is exactly what the serving batcher exploits: coalescing B requests
// into one [B*rows, k] forward divides the decode work by B. The sweep
// times the fused kernel at M in {1, 4, 16, 64} rows against the 8-bit
// 512x512 weight per backend and reports GFLOP/s plus the throughput
// ratio vs M=1 — the kernel-layer ceiling on batching speedup.
//
// The fp32 arm times matmul(x, W, false, true) — the x*W^T every fp32
// Linear runs — at M in {1, 2, 4, 8, 16, 64}, on both sides of the
// kMatmulDotRows cutoff: at or below it the product is one dot product per
// output over W's rows, above it W is repacked into k-major tiles.
//
// Row-independence is enforced while we're here: the first M rows of the
// full 512-row product must be byte-identical to the M-row run (the
// contract the serving scatter depends on — and, for the fp32 arm, the
// proof that both sides of the cutoff compute the same bits).
struct SweepArm {
  const char* name;
  std::vector<std::int64_t> rows;
  std::function<Tensor(const Tensor&)> run;
};

/// Runs one arm of the sweep at 1 thread; returns its JSON "points" array
/// body and adds its rows to `table`.
std::string sweep_points(const Workload& w, const SweepArm& arm,
                         TextTable& table, bool& all_ok) {
  // Full-width reference run: rows sliced out of this must match the
  // narrow runs byte-for-byte.
  const Tensor full = arm.run(w.x);
  double gflops_m1 = 0.0;
  std::string json;
  for (std::size_t mi = 0; mi < arm.rows.size(); ++mi) {
    const std::int64_t m = arm.rows[mi];
    Tensor xm({m, w.k});
    std::memcpy(xm.data(), w.x.data(),
                sizeof(float) * static_cast<std::size_t>(m * w.k));
    const Tensor y = arm.run(xm);
    const bool rows_ok =
        std::memcmp(y.data(), full.data(),
                    sizeof(float) * static_cast<std::size_t>(m * w.n)) == 0;
    all_ok = all_ok && rows_ok;
    // Small-M calls are fast; take best-of over more reps for stability.
    const int reps = m >= 64 ? kReps : 10;
    const double t = time_ms([&] { arm.run(xm); }, reps);
    const double gflops = 2.0 * static_cast<double>(m) *
                          static_cast<double>(w.n) *
                          static_cast<double>(w.k) / (t * 1e6);
    if (m == 1) gflops_m1 = gflops;
    table.add_row({arm.name, std::to_string(m), fmt_fixed(t, 3),
                   fmt_fixed(gflops, 2),
                   fmt_fixed(gflops / gflops_m1, 2) + "x",
                   rows_ok ? "bit-equal" : "DIVERGED"});
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "      {\"m\": %lld, \"ms\": %.4f, \"gflops\": %.3f, "
                  "\"vs_m1\": %.3f, \"rows_bit_equal\": %s}%s\n",
                  static_cast<long long>(m), t, gflops, gflops / gflops_m1,
                  rows_ok ? "true" : "false",
                  mi + 1 < arm.rows.size() ? "," : "");
    json += buf;
  }
  return json;
}

void append_m_sweep(const Workload& w, std::string& json, bool& all_ok) {
  const std::vector<std::int64_t> packed_rows = {1, 4, 16, 64};
  std::vector<SweepArm> packed = {
      {"scalar", packed_rows, [&](const Tensor& x) {
         return matmul_packed(x, w.w, scalar_backend());
       }}};
  if (const KernelBackend* avx2 = avx2_backend()) {
    packed.push_back({"avx2", packed_rows, [&w, avx2](const Tensor& x) {
                        return matmul_packed(x, w.w, *avx2);
                      }});
  }
  const Tensor wf = w.w.unpack();
  const SweepArm fp32 = {"fp32", {1, 2, 4, 8, 16, 64}, [&](const Tensor& x) {
                           return matmul(x, wf, false, /*trans_b=*/true);
                         }};

  TextTable table("m_sweep: rows per call, matmul_packed per backend and "
                  "fp32 matmul x*W^T (8-bit weight, 1 thread)");
  table.set_header({"Backend", "M", "ms", "GF/s", "vs M=1", "Rows"});

  set_num_threads(1);
  json += "  \"m_sweep\": [\n";
  for (std::size_t bi = 0; bi < packed.size(); ++bi) {
    json += "    {\"backend\": \"" + std::string(packed[bi].name) +
            "\", \"points\": [\n";
    json += sweep_points(w, packed[bi], table, all_ok);
    json += bi + 1 < packed.size() ? "    ]},\n" : "    ]}\n";
  }
  json += "  ],\n";
  json += "  \"m_sweep_fp32\": {\"dot_rows\": " +
          std::to_string(detail::kMatmulDotRows) + ", \"points\": [\n";
  json += sweep_points(w, fp32, table, all_ok);
  json += "  ]}\n";
  set_num_threads(0);

  table.print();
  std::printf("\n");
}

int run_verify_only() {
  // Ambient AF_THREADS / AF_BACKEND only — CI diffs this output across
  // thread counts and backends. The row set is fixed (fused means "the
  // active backend"), so a scalar run is byte-comparable to the pinned
  // goldens recorded before the backend layer existed.
  struct VerifyPath {
    const char* name;
    std::function<Tensor(const Workload&)> run;
  };
  const VerifyPath paths[] = {
      {"scalar_ref",
       [](const Workload& w) {
         return matmul_seed_tb(w.x, unpack_scalar(w.w));
       }},
      {"lut_unpack",
       [](const Workload& w) {
         return matmul(w.x, w.w.unpack(), false, /*trans_b=*/true);
       }},
      {"fused", [](const Workload& w) { return matmul_packed(w.x, w.w); }},
  };
  for (const Workload& w : make_workloads()) {
    for (const VerifyPath& p : paths) {
      const Tensor y = p.run(w);
      std::printf("%-22s %-12s %s\n", w.name.c_str(), p.name,
                  digest_hex(tensor_digest(y)).c_str());
    }
  }
  return 0;
}

int run_bench(const char* json_path) {
  const std::vector<Workload> workloads = make_workloads();
  const std::vector<Path> paths = make_paths();

  bool all_ok = true;
  std::string json = "  \"bench\": \"micro_gemm_packed\",\n"
                     "  \"workloads\": [\n";

  TextTable table("micro_gemm_packed: y = x * W^T, W packed AdaptivFloat");
  table.set_header({"Workload", "Path", "1 thr (ms)", "1 thr GF/s",
                    std::to_string(kParallelThreads) + " thr (ms)", "Speedup",
                    "Numerics"});

  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    const Workload& w = workloads[wi];
    const double flops = 2.0 * static_cast<double>(w.m) *
                         static_cast<double>(w.n) * static_cast<double>(w.k);
    std::vector<Measurement> ms;
    Tensor ref;
    Tensor norms;  // per-element dot-product L1 norm, the ULP scale
    std::uint64_t ref_digest = 0;
    double scalar_t1 = 0.0, fused_scalar_t1 = 0.0, fused_avx2_t1 = 0.0;
    double avx2_worst_ulp = 0.0;

    for (const Path& p : paths) {
      for (const int threads : {1, kParallelThreads}) {
        set_num_threads(threads);
        const Tensor y = p.run(w);
        const double t = time_ms([&] { p.run(w); }, kReps);
        if (p.name == "scalar_ref" && threads == 1) {
          ref = y;
          norms = matmul(abs_of(w.x), abs_of(unpack_scalar(w.w)), false,
                         /*trans_b=*/true);
          ref_digest = tensor_digest(y);
          scalar_t1 = t;
        }
        const double ulp =
            p.tol == Tolerance::kUlpBound ? max_scaled_ulp(y, ref, norms) : 0;
        ms.push_back({p.name, p.backend, threads, t, flops / (t * 1e6),
                      tensor_digest(y), ulp});
        if (p.name == "fused[scalar]" && threads == 1) fused_scalar_t1 = t;
        if (p.name == "fused[avx2]" && threads == 1) fused_avx2_t1 = t;
      }
    }
    set_num_threads(0);

    // Enforce the numeric contract. AVX2 rows must also agree with each
    // other across thread counts (fixed accumulation chain per backend).
    for (const Path& p : paths) {
      std::uint64_t t1_digest = 0;
      for (const Measurement& m : ms) {
        if (m.path != p.name) continue;
        if (m.threads == 1) t1_digest = m.dig;
        bool ok = true;
        if (p.tol == Tolerance::kBitExact) {
          ok = m.dig == ref_digest;
        } else {
          ok = m.ulp <= kGemmBackendUlpTol && m.dig == t1_digest;
          avx2_worst_ulp = std::max(avx2_worst_ulp, m.ulp);
        }
        all_ok = all_ok && ok;
      }
    }

    for (const Measurement& m : ms) {
      if (m.threads != 1) continue;
      // Pair this 1-thread row with its N-thread sibling for the table.
      double par_ms = m.ms;
      std::uint64_t par_dig = m.dig;
      for (const Measurement& o : ms) {
        if (o.path == m.path && o.threads == kParallelThreads) {
          par_ms = o.ms;
          par_dig = o.dig;
        }
      }
      std::string numerics;
      const Path& p = *std::find_if(paths.begin(), paths.end(),
                                    [&](const Path& q) {
                                      return q.name == m.path;
                                    });
      if (p.tol == Tolerance::kBitExact) {
        numerics = (m.dig == ref_digest && par_dig == ref_digest)
                       ? "bit-equal" : "DIVERGED";
      } else {
        numerics = m.ulp <= kGemmBackendUlpTol && par_dig == m.dig
                       ? fmt_fixed(m.ulp, 1) + " ulp" : "DIVERGED";
      }
      table.add_row({w.name, m.path, fmt_fixed(m.ms, 2),
                     fmt_fixed(flops / (m.ms * 1e6), 2), fmt_fixed(par_ms, 2),
                     fmt_fixed(scalar_t1 / m.ms, 2) + "x", numerics});
    }

    json += "    {\n      \"name\": \"" + w.name + "\",\n";
    json += "      \"m\": " + std::to_string(w.m) +
            ", \"n\": " + std::to_string(w.n) +
            ", \"k\": " + std::to_string(w.k) +
            ", \"bits\": " + std::to_string(w.bits) + ",\n";
    json += "      \"paths\": [\n";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      const Measurement& m = ms[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "        {\"name\": \"%s\", \"backend\": \"%s\", "
                    "\"threads\": %d, \"ms\": %.3f, \"gflops\": %.3f, "
                    "\"digest\": \"%s\", \"max_ulp\": %.2f}%s\n",
                    m.path.c_str(), m.backend.c_str(), m.threads, m.ms,
                    m.gflops, digest_hex(m.dig).c_str(), m.ulp,
                    i + 1 < ms.size() ? "," : "");
      json += buf;
    }
    json += "      ],\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "      \"speedup_fused_vs_scalar_t1\": %.3f,\n",
                  scalar_t1 / fused_scalar_t1);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "      \"speedup_avx2_vs_scalar_fused_t1\": %.3f,\n",
                  fused_avx2_t1 > 0.0 ? fused_scalar_t1 / fused_avx2_t1 : 0.0);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "      \"avx2_max_ulp\": %.2f\n", avx2_worst_ulp);
    json += buf;
    json += wi + 1 < workloads.size() ? "    },\n" : "    }\n";
  }
  json += "  ],\n";

  table.print();
  std::printf("\n");

  // Batch-rows sweep on the 8-bit workload (top-level keys beside
  // "workloads", which is all bench_gate.py reads).
  append_m_sweep(workloads[0], json, all_ok);
  const bool wrote = bench::write_artifact(json_path, json);

  if (!all_ok) {
    std::fprintf(stderr,
                 "micro_gemm_packed: NUMERIC CONTRACT VIOLATION — a "
                 "bit-exact path diverged from the scalar reference, or an "
                 "AVX2 result exceeded the documented ULP bound / changed "
                 "across thread counts\n");
    return 1;
  }
  return wrote ? 0 : 1;
}

}  // namespace
}  // namespace af

int main(int argc, char** argv) {
  return af::bench::bench_main(argc, argv, "BENCH_gemm.json",
                               af::run_verify_only, af::run_bench);
}
