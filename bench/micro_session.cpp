// Perf-regression harness for the inference runtime.
//
// Each case runs the same model two ways:
//   legacy  — the reference comparator: a training-context forward
//             (heap-allocated intermediates, adjoint caches pushed and
//             cleared around every forward); packed layers call their
//             fused GEMM kernel directly. The label is kept so the
//             --verify output and BENCH_session.json keys stay stable.
//   session — an InferenceSession over the model's context forward: arena
//             workspaces planned on the first run, zero owned-buffer heap
//             allocations in steady state, no cache traffic.
// Outputs must be bit-identical between the two paths (the harness exits
// nonzero on any digest mismatch), and the session's steady-state runs must
// report zero tensor heap allocations — the arena only buys allocation-free
// replay, never different bits.
//
// Modes:
//   micro_session           — timing table at 1 and 4 threads, writes
//                             BENCH_session.json (ms, digests, steady-state
//                             alloc counts, arena peak bytes).
//                             It also times the served MLP's protected
//                             forward piece by piece (served_mlp_split):
//                             mlp_serve's shapes at M = 64, per backend,
//                             1 thread.
//   micro_session --verify  — prints legacy/session digests and the
//                             steady-state alloc count under the *current*
//                             AF_THREADS setting; CI diffs this across
//                             thread counts. Exits nonzero on a digest
//                             mismatch or a nonzero steady-state alloc.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/kernels/backend.hpp"
#include "src/kernels/gemm_packed.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/lstm.hpp"
#include "src/nn/quantized_linear.hpp"
#include "src/resilience/abft.hpp"
#include "src/resilience/guard.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/runtime/session.hpp"
#include "src/tensor/ops.hpp"
#include "src/tensor/tensor.hpp"
#include "src/util/hash.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

#include "bench_util.hpp"

namespace af {
namespace {

using bench::tensor_digest;
using bench::time_ms;

constexpr int kParallelThreads = 4;
constexpr int kReps = 3;

// A model benched both ways. The closures own their model via shared_ptr,
// so a Case is self-contained and copyable.
struct Case {
  std::string name;
  std::function<Tensor()> reference;  // forward + cache cleanup, output returned
  std::shared_ptr<InferenceSession> session;
  Tensor input;
};

// ----- models ---------------------------------------------------------------

struct Mlp {
  Linear fc1;
  ReLU act;
  Linear fc2;
  Mlp(std::uint64_t seed, std::int64_t in, std::int64_t hidden,
      std::int64_t out)
      : fc1([&] {
          Pcg32 r(seed, 1);
          return Linear(in, hidden, r, true, "fc1");
        }()),
        fc2([&] {
          Pcg32 r(seed, 2);
          return Linear(hidden, out, r, true, "fc2");
        }()) {}

  Tensor reference_forward(const Tensor& x) {
    ExecutionContext train{.training = true};
    Tensor y = forward(x, train);
    fc1.clear_cache();
    act.clear_cache();
    fc2.clear_cache();
    return y;
  }
  Tensor forward(const Tensor& x, ExecutionContext& ctx) {
    return fc2.forward(act.forward(fc1.forward(x, ctx), ctx), ctx);
  }
  std::int64_t cache_depth() const {
    return fc1.cache_depth() + act.cache_depth() + fc2.cache_depth();
  }
};

struct QuantMlp {
  Mlp source;
  QuantizedLinear q1;
  ReLU act;
  QuantizedLinear q2;
  QuantMlp(std::uint64_t seed, std::int64_t in, std::int64_t hidden,
           std::int64_t out)
      : source(seed, in, hidden, out),
        q1(source.fc1, 8, 3),
        q2(source.fc2, 8, 3) {}

  Tensor reference_forward(const Tensor& x) {
    ExecutionContext train{.training = true};
    Tensor y = packed_affine(q2, act.forward(packed_affine(q1, x), train));
    act.clear_cache();
    return y;
  }
  // The fused packed GEMM plus bias, called without a layer context.
  static Tensor packed_affine(const QuantizedLinear& q, const Tensor& x) {
    Tensor y = matmul_packed(x, q.packed_weight());
    add_row_bias_inplace(y, q.bias());
    return y;
  }
  Tensor forward(const Tensor& x, ExecutionContext& ctx) {
    return q2.forward(act.forward(q1.forward(x, ctx), ctx), ctx);
  }
  std::int64_t cache_depth() const {
    return q1.cache_depth() + act.cache_depth() + q2.cache_depth();
  }
};

Tensor random_input(std::initializer_list<std::int64_t> shape,
                    std::uint64_t seed) {
  Pcg32 rng(seed);
  return Tensor::randn(shape, rng);
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;

  // MLP, FP32 weights: 256 -> 512 -> 64, batch 32.
  {
    auto m = std::make_shared<Mlp>(31, 256, 512, 64);
    Tensor x = random_input({32, 256}, 32);
    SessionConfig cfg;
    cfg.cache_probe = [m] { return m->cache_depth(); };
    auto session = std::make_shared<InferenceSession>(
        [m](const Tensor& in, ExecutionContext& ctx) {
          return m->forward(in, ctx);
        },
        cfg);
    cases.push_back({"mlp fp32",
                     [m, x] { return m->reference_forward(x); }, session, x});
  }

  // Same topology through the packed AdaptivFloat kernels.
  {
    auto m = std::make_shared<QuantMlp>(41, 256, 512, 64);
    Tensor x = random_input({32, 256}, 42);
    SessionConfig cfg;
    cfg.cache_probe = [m] { return m->cache_depth(); };
    auto session = std::make_shared<InferenceSession>(
        [m](const Tensor& in, ExecutionContext& ctx) {
          return m->forward(in, ctx);
        },
        cfg);
    cases.push_back({"mlp quant-lut",
                     [m, x] { return m->reference_forward(x); }, session, x});
  }

  // Quantized MLP under the full protection ladder (ABFT + layer guard).
  // The clean protected path checks the same packed GEMM the unprotected
  // forward runs, so the two are bit-identical under every backend.
  {
    auto m = std::make_shared<QuantMlp>(41, 256, 512, 64);
    Tensor x = random_input({32, 256}, 42);
    auto guard = std::make_shared<LayerGuard>(
        "mlp", GuardConfig{RecoveryPolicy::kDegradeToZero, 1, 0.0f});
    SessionConfig cfg;
    cfg.ctx.resilience = ResiliencePolicy::kAbftGuard;
    cfg.ctx.guard = guard.get();
    cfg.cache_probe = [m] { return m->cache_depth(); };
    auto session = std::make_shared<InferenceSession>(
        [m, guard](const Tensor& in, ExecutionContext& ctx) {
          return m->forward(in, ctx);
        },
        cfg);
    cases.push_back({"mlp abft+guard",
                     [m, x] { return m->reference_forward(x); }, session,
                     x});
  }

  // 2-layer LSTM over a [24, 8, 64] sequence.
  {
    auto make = [] {
      Pcg32 r(51);
      return std::make_shared<Lstm>(64, 128, 2, r);
    };
    auto m = make();
    Tensor x = random_input({24, 8, 64}, 52);
    SessionConfig cfg;
    cfg.cache_probe = [m] { return m->cache_depth(); };
    auto session = std::make_shared<InferenceSession>(
        [m](const Tensor& in, ExecutionContext& ctx) {
          return m->forward(in, ctx);
        },
        cfg);
    cases.push_back({"lstm 2x128",
                     [m, x] {
                       ExecutionContext train{.training = true};
                       Tensor y = m->forward(x, train);
                       m->clear_cache();
                       return y;
                     },
                     session, x});
  }

  return cases;
}

// Plans the session (first run) and returns the steady-state digest plus
// the steady-state allocation count.
struct SteadyState {
  std::uint64_t dig;
  std::int64_t allocs;
};

SteadyState settle(Case& c) {
  c.session->run(c.input);  // planning pass (allocations expected)
  const Tensor& y = c.session->run(c.input);
  return {tensor_digest(y), c.session->last_run_heap_allocs()};
}

// ----- modes ----------------------------------------------------------------

int run_verify_only() {
  // Ambient AF_THREADS only — CI diffs this output across thread counts.
  bool ok = true;
  for (Case& c : make_cases()) {
    const std::uint64_t reference_dig = tensor_digest(c.reference());
    const SteadyState ss = settle(c);
    const bool equal = ss.dig == reference_dig && ss.allocs == 0;
    ok = ok && equal;
    std::printf("%-16s legacy %s session %s steady_allocs %lld\n",
                c.name.c_str(), digest_hex(reference_dig).c_str(),
                digest_hex(ss.dig).c_str(),
                static_cast<long long>(ss.allocs));
  }
  if (!ok) {
    std::fprintf(stderr,
                 "micro_session: session diverged from the reference path "
                 "(digest mismatch or steady-state heap allocation)\n");
    return 1;
  }
  return 0;
}

struct Measurement {
  int threads;
  double reference_ms;
  double session_ms;
  std::uint64_t reference_dig;
  std::uint64_t session_dig;
  std::int64_t steady_allocs;
};

// ----- the served MLP, piece by piece --------------------------------------
//
// perfbench's mlp_serve model (128 -> 256 -> 32, AF<8,3> weights) at its
// largest batch, M = 64 rows, one thread. Each piece of the protected
// forward runs alone, outside a session: the two packed products, the
// ReLU, the ABFT predicted sums and actual sums of both layers, and the
// guard's scan of both outputs; the two whole forwards run in sessions,
// as the server runs them. Microseconds per call, per backend.
struct SplitRow {
  const char* name;
  double fc1_product, activation, fc2_product, predicted_sums, actual_sums,
      guard_scan, forward_fast, forward_protected;
};

double us_per_call(const std::function<void()>& fn) {
  constexpr int kCalls = 200;
  return time_ms(
             [&] {
               for (int c = 0; c < kCalls; ++c) fn();
             },
             9) *
         1e3 / kCalls;
}

SplitRow time_served_split(const KernelBackend& be) {
  constexpr std::int64_t kIn = 128, kHidden = 256, kOut = 32, kRows = 64;
  auto model = std::make_shared<QuantMlp>(71, kIn, kHidden, kOut);
  const QuantizedLinear& q1 = model->q1;
  const QuantizedLinear& q2 = model->q2;
  const AbftWeightSums ws1 = abft_weight_sums(q1.decoded_weight(), true);
  const AbftWeightSums ws2 = abft_weight_sums(q2.decoded_weight(), true);
  const Tensor x = random_input({kRows, kIn}, 72);

  const ScopedKernelBackend pin(be);
  ExecutionContext infer;
  ReLU relu;
  const LayerGuard guard("mlp",
                         GuardConfig{RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  Tensor y1 = matmul_packed(x, q1.packed_weight(), be);
  add_row_bias_inplace(y1, q1.bias());
  const Tensor h = relu.forward(y1, infer);
  Tensor y2 = matmul_packed(h, q2.packed_weight(), be);
  add_row_bias_inplace(y2, q2.bias());

  auto forward_us = [&](ResiliencePolicy policy) {
    SessionConfig cfg;
    cfg.ctx.resilience = policy;
    cfg.ctx.backend = &be;
    InferenceSession session(
        [model](const Tensor& in, ExecutionContext& ctx) {
          return model->forward(in, ctx);
        },
        cfg);
    session.run(x);  // planning pass
    return us_per_call([&] { session.run(x); });
  };

  SplitRow row{be.name, 0, 0, 0, 0, 0, 0, 0, 0};
  row.fc1_product =
      us_per_call([&] { matmul_packed(x, q1.packed_weight(), be); });
  row.activation = us_per_call([&] { relu.forward(y1, infer); });
  row.fc2_product =
      us_per_call([&] { matmul_packed(h, q2.packed_weight(), be); });
  row.predicted_sums = us_per_call([&] {
    abft_predicted_sums(x, q1.decoded_weight(), true, ws1, &be);
    abft_predicted_sums(h, q2.decoded_weight(), true, ws2, &be);
  });
  row.actual_sums = us_per_call([&] {
    abft_actual_sums(y1);
    abft_actual_sums(y2);
  });
  row.guard_scan = us_per_call([&] {
    guard.apply(y1, nullptr);
    guard.apply(y2, nullptr);
  });
  row.forward_fast = forward_us(ResiliencePolicy::kNone);
  row.forward_protected = forward_us(ResiliencePolicy::kAbftGuard);
  return row;
}

void append_served_split(std::string& json) {
  std::vector<const KernelBackend*> backends = {&scalar_backend()};
  if (const KernelBackend* avx2 = avx2_backend()) backends.push_back(avx2);
  set_num_threads(1);
  TextTable table("served_mlp_split: mlp_serve's protected forward by piece "
                  "(128-256-32, AF<8,3>, M = 64, 1 thread, us per call)");
  table.set_header({"Backend", "fc1 product", "ReLU", "fc2 product",
                    "pred sums", "actual sums", "guard scan", "fwd fast",
                    "fwd protected"});
  json += "  \"served_mlp_split\": [\n";
  for (std::size_t b = 0; b < backends.size(); ++b) {
    const SplitRow r = time_served_split(*backends[b]);
    table.add_row({r.name, fmt_fixed(r.fc1_product, 2),
                   fmt_fixed(r.activation, 2), fmt_fixed(r.fc2_product, 2),
                   fmt_fixed(r.predicted_sums, 2),
                   fmt_fixed(r.actual_sums, 2), fmt_fixed(r.guard_scan, 2),
                   fmt_fixed(r.forward_fast, 2),
                   fmt_fixed(r.forward_protected, 2)});
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"backend\": \"%s\", \"m\": 64, \"fc1_product_us\": %.3f, "
        "\"activation_us\": %.3f, \"fc2_product_us\": %.3f, "
        "\"predicted_sums_us\": %.3f, \"actual_sums_us\": %.3f, "
        "\"guard_scan_us\": %.3f, \"forward_fast_us\": %.3f, "
        "\"forward_protected_us\": %.3f}%s\n",
        r.name, r.fc1_product, r.activation, r.fc2_product, r.predicted_sums,
        r.actual_sums, r.guard_scan, r.forward_fast, r.forward_protected,
        b + 1 < backends.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n";
  set_num_threads(0);
  table.print();
  std::printf("\n");
}

int run_bench(const char* json_path) {
  bool all_ok = true;
  std::string json = "  \"bench\": \"micro_session\",\n  \"cases\": [\n";

  TextTable table("micro_session: training-context reference vs arena session");
  table.set_header({"Case", "1 thr reference (ms)", "1 thr session (ms)",
                    std::to_string(kParallelThreads) + " thr session (ms)",
                    "Steady allocs", "Bit-equal"});

  std::vector<Case> cases = make_cases();
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    Case& c = cases[ci];
    std::vector<Measurement> ms;
    for (const int threads : {1, kParallelThreads}) {
      set_num_threads(threads);
      const Tensor reference = c.reference();
      const SteadyState ss = settle(c);
      Measurement m;
      m.threads = threads;
      m.reference_dig = tensor_digest(reference);
      m.session_dig = ss.dig;
      m.steady_allocs = ss.allocs;
      m.reference_ms = time_ms([&] { c.reference(); }, kReps);
      m.session_ms = time_ms([&] { c.session->run(c.input); }, kReps);
      ms.push_back(m);
      all_ok = all_ok && m.reference_dig == m.session_dig && ss.allocs == 0 &&
               c.session->last_run_heap_allocs() == 0;
    }
    set_num_threads(0);

    const Measurement& t1 = ms.front();
    const Measurement& tn = ms.back();
    const bool equal = t1.reference_dig == t1.session_dig &&
                       tn.reference_dig == tn.session_dig &&
                       t1.session_dig == tn.session_dig;
    all_ok = all_ok && equal;
    table.add_row({c.name, fmt_fixed(t1.reference_ms, 3),
                   fmt_fixed(t1.session_ms, 3), fmt_fixed(tn.session_ms, 3),
                   std::to_string(t1.steady_allocs),
                   equal && t1.steady_allocs == 0 && tn.steady_allocs == 0
                       ? "yes"
                       : "NO"});

    json += "    {\n      \"name\": \"" + c.name + "\",\n";
    json += "      \"arena_peak_bytes\": " +
            std::to_string(c.session->arena_stats().peak_bytes) + ",\n";
    json += "      \"paths\": [\n";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      const Measurement& m = ms[i];
      char buf[320];
      std::snprintf(
          buf, sizeof(buf),
          "        {\"threads\": %d, \"legacy_ms\": %.3f, "
          "\"session_ms\": %.3f, \"reference_digest\": \"%s\", "
          "\"session_digest\": \"%s\", \"steady_state_allocs\": %lld}%s\n",
          m.threads, m.reference_ms, m.session_ms,
          digest_hex(m.reference_dig).c_str(), digest_hex(m.session_dig).c_str(),
          static_cast<long long>(m.steady_allocs),
          i + 1 < ms.size() ? "," : "");
      json += buf;
    }
    json += "      ]\n";
    json += ci + 1 < cases.size() ? "    },\n" : "    }\n";
  }
  json += "  ],\n";

  table.print();
  std::printf("\n");
  append_served_split(json);
  const bool wrote = bench::write_artifact(json_path, json);

  if (!all_ok) {
    std::fprintf(stderr,
                 "micro_session: BIT-EQUALITY OR ZERO-ALLOC VIOLATION "
                 "between the reference path and the session\n");
    return 1;
  }
  return wrote ? 0 : 1;
}

}  // namespace
}  // namespace af

int main(int argc, char** argv) {
  return af::bench::bench_main(argc, argv, "BENCH_session.json",
                               af::run_verify_only, af::run_bench);
}
