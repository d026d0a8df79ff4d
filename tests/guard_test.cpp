// LayerGuard: NaN/Inf sentinels, calibrated range monitors, the rerun /
// degrade ladder, and the context-driven guard dispatch that replaced the
// guarded_forward wrappers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/kernels/gemm_packed.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/lstm.hpp"
#include "src/nn/quantized_linear.hpp"
#include "src/numerics/registry.hpp"
#include "src/resilience/guard.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"
#include "src/util/rng.hpp"

namespace af {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

Tensor random_tensor(std::initializer_list<std::int64_t> shape,
                     std::uint64_t seed, float scale = 1.0f) {
  Pcg32 rng(seed);
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.uniform(-scale, scale);
  }
  return t;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * 4) == 0;
}

// ----- apply(): sentinel + range monitor -------------------------------------

TEST(LayerGuard, CleanTensorPassesUntouched) {
  Tensor t = random_tensor({4, 8}, 1);
  Tensor orig = t;
  LayerGuard guard("fc", {RecoveryPolicy::kDegradeToZero, 1, 2.0f});
  ResilienceReport report;
  EXPECT_EQ(guard.apply(t, &report), 0);
  EXPECT_TRUE(bit_equal(t, orig));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.tensors_checked, 1);
}

TEST(LayerGuard, ScrubsNonFiniteToZero) {
  Tensor t = random_tensor({3, 5}, 2);
  t[1] = kNan;
  t[7] = kInf;
  t[11] = -kInf;
  LayerGuard guard("fc", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  ResilienceReport report;
  EXPECT_EQ(guard.apply(t, &report), 3);
  EXPECT_EQ(t[1], 0.0f);
  EXPECT_EQ(t[7], 0.0f);
  EXPECT_EQ(t[11], 0.0f);
  EXPECT_EQ(report.values_scrubbed, 3);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].kind, FaultKind::kNonFinite);
  EXPECT_EQ(report.events[0].count, 3);
}

TEST(LayerGuard, CorrectPolicyClampsIntoRange) {
  Tensor t = random_tensor({2, 4}, 3);
  t[0] = 100.0f;
  t[5] = -64.0f;
  t[6] = kNan;
  LayerGuard guard("fc", {RecoveryPolicy::kCorrect, 1, 8.0f});
  ResilienceReport report;
  EXPECT_EQ(guard.apply(t, &report), 3);
  EXPECT_EQ(t[0], 8.0f);    // clamped to the bound, sign kept
  EXPECT_EQ(t[5], -8.0f);
  EXPECT_EQ(t[6], 0.0f);    // NaN has no usable sign or magnitude
  EXPECT_EQ(report.values_clamped, 3);
  EXPECT_EQ(report.values_scrubbed, 0);
}

TEST(LayerGuard, DetectPolicyRecordsWithoutMutating) {
  Tensor t = random_tensor({2, 2}, 4);
  t[2] = kInf;
  Tensor orig = t;
  LayerGuard guard("fc", {RecoveryPolicy::kDetect, 1, 0.5f});
  ResilienceReport report;
  EXPECT_GT(guard.apply(t, &report), 0);
  EXPECT_TRUE(bit_equal(t, orig));
  EXPECT_EQ(report.values_scrubbed, 0);
  EXPECT_EQ(report.values_clamped, 0);
  EXPECT_FALSE(report.clean());
}

TEST(LayerGuard, ZeroRangeLimitDisablesRangeMonitor) {
  Tensor t = random_tensor({2, 3}, 5, 1000.0f);
  Tensor orig = t;
  LayerGuard guard("fc", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  EXPECT_EQ(guard.apply(t, nullptr), 0);
  EXPECT_TRUE(bit_equal(t, orig));
}

// A serial per-element scan under apply()'s rules: the oracle whose report
// and remedied tensor the chunked, pre-checked apply() must reproduce.
std::int64_t reference_apply(const std::string& layer, const GuardConfig& cfg,
                             Tensor& t, ResilienceReport& report) {
  std::int64_t nonfinite = 0, range = 0, scrubbed = 0, clamped = 0;
  float worst_nonfinite = 0.0f, worst_range = 0.0f;
  const float bound = cfg.range_limit;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float v = t[i];
    const bool bad_value = !std::isfinite(v);
    const bool out_of_range =
        !bad_value && bound > 0.0f && std::fabs(v) > bound;
    if (!bad_value && !out_of_range) continue;
    if (bad_value) {
      ++nonfinite;
      if (std::isinf(v)) worst_nonfinite = kInf;
    } else {
      ++range;
      worst_range = std::max(worst_range, std::fabs(v));
    }
    switch (cfg.policy) {
      case RecoveryPolicy::kDetect:
        break;
      case RecoveryPolicy::kCorrect:
      case RecoveryPolicy::kRecompute:
        t[i] = std::isnan(v) || bound <= 0.0f ? 0.0f : (v > 0.0f ? bound
                                                                 : -bound);
        ++clamped;
        break;
      case RecoveryPolicy::kDegradeToZero:
        t[i] = 0.0f;
        ++scrubbed;
        break;
    }
  }
  ++report.tensors_checked;
  report.values_flagged += nonfinite + range;
  report.values_scrubbed += scrubbed;
  report.values_clamped += clamped;
  if (nonfinite > 0) {
    report.events.push_back({layer, FaultKind::kNonFinite, nonfinite,
                             worst_nonfinite, cfg.policy});
  }
  if (range > 0) {
    report.events.push_back(
        {layer, FaultKind::kRangeViolation, range, worst_range, cfg.policy});
  }
  return nonfinite + range;
}

TEST(LayerGuard, CleanChunkPreCheckKeepsEveryReportAndRemedy) {
  // apply() skips the per-element walk for a chunk whose magnitude bits
  // all stay at or below the limit. Bounds 0, finite, +inf and NaN (the
  // last three without a range monitor) meet NaN, ±Inf, ±FLT_MAX, the
  // bound itself, the float just above it and -0, one at a time and all
  // together, in a tensor of several scan chunks; the report and the
  // remedied tensor must equal the old per-element scan's under every
  // policy.
  const float fmax = std::numeric_limits<float>::max();
  const std::int64_t n = 3 * 8192 + 17;
  const Tensor clean = random_tensor({n}, 15);
  for (const float bound : {0.0f, 2.5f, kInf, kNan}) {
    const float above = std::nextafter(bound, kInf);
    const std::vector<float> probes = {kNan,  kInf,   -kInf,  fmax,  -fmax,
                                       bound, -bound, above, -above, -0.0f};
    std::vector<std::vector<float>> placements;
    for (const float v : probes) placements.push_back({v});
    placements.push_back(probes);
    for (const auto policy :
         {RecoveryPolicy::kDetect, RecoveryPolicy::kCorrect,
          RecoveryPolicy::kRecompute, RecoveryPolicy::kDegradeToZero}) {
      const GuardConfig cfg{policy, 1, bound};
      const LayerGuard guard("fc", cfg);
      for (const auto& values : placements) {
        Tensor got = clean;
        for (std::size_t p = 0; p < values.size(); ++p) {
          got[static_cast<std::int64_t>(9000 + 1013 * p) % n] = values[p];
        }
        Tensor want = got;
        ResilienceReport got_report, want_report;
        const std::int64_t want_flagged =
            reference_apply("fc", cfg, want, want_report);
        EXPECT_EQ(guard.apply(got, &got_report), want_flagged);
        const std::string where = "bound " + std::to_string(bound) +
                                  " policy " +
                                  std::to_string(static_cast<int>(policy)) +
                                  " first value " + std::to_string(values[0]);
        EXPECT_TRUE(bit_equal(got, want)) << where;
        EXPECT_EQ(got_report.tensors_checked, want_report.tensors_checked);
        EXPECT_EQ(got_report.values_flagged, want_report.values_flagged)
            << where;
        EXPECT_EQ(got_report.values_scrubbed, want_report.values_scrubbed);
        EXPECT_EQ(got_report.values_clamped, want_report.values_clamped);
        ASSERT_EQ(got_report.events.size(), want_report.events.size())
            << where;
        for (std::size_t e = 0; e < want_report.events.size(); ++e) {
          const GuardEvent& g = got_report.events[e];
          const GuardEvent& w = want_report.events[e];
          EXPECT_EQ(g.layer, w.layer);
          EXPECT_EQ(g.kind, w.kind) << where;
          EXPECT_EQ(g.count, w.count) << where;
          EXPECT_EQ(std::memcmp(&g.worst, &w.worst, sizeof(float)), 0)
              << where;
          EXPECT_EQ(g.action, w.action);
        }
      }
    }
  }
}

TEST(LayerGuard, CalibratedBoundNeverTripsOnCleanOutput) {
  // The bound is value_range * gain with gain = fan_in * |x|_max: a clean
  // product of calibrated weights can never exceed it.
  Tensor w = random_tensor({6, 10}, 6, 3.0f);
  Tensor x = random_tensor({4, 10}, 7, 2.0f);
  auto q = make_quantizer(FormatKind::kAdaptivFloat, 8);
  q->calibrate(w);
  LayerGuard guard("fc", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  guard.calibrate(*q, static_cast<double>(w.dim(1)) * x.max_abs());
  EXPECT_GT(guard.config().range_limit, 0.0f);
  Tensor y = matmul(x, w, false, true);
  EXPECT_EQ(guard.apply(y, nullptr), 0);
  // A value past the calibrated bound is flagged.
  y[0] = guard.config().range_limit * 2.0f;
  ResilienceReport report;
  EXPECT_EQ(guard.apply(y, &report), 1);
  EXPECT_EQ(y[0], 0.0f);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].kind, FaultKind::kRangeViolation);
}

// ----- run(): the whole-layer ladder -----------------------------------------

TEST(LayerGuard, RunDegradesToZeroTensorOnPersistentFaultError) {
  LayerGuard guard("fc", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  ResilienceReport report;
  int calls = 0;
  Tensor y = guard.run(
      [&]() -> Tensor {
        ++calls;
        throw FaultError("fc", FaultKind::kAccumulatorOverflow, "persistent");
      },
      {3, 4}, &report);
  EXPECT_EQ(calls, 2);  // initial attempt + one rerun
  EXPECT_EQ(report.reruns, 1);
  ASSERT_EQ(y.rank(), 2);
  EXPECT_EQ(y.dim(0), 3);
  EXPECT_EQ(y.dim(1), 4);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 0.0f);
  ASSERT_FALSE(report.events.empty());
  EXPECT_EQ(report.events.back().kind, FaultKind::kAccumulatorOverflow);
}

TEST(LayerGuard, RunRetriesTransientFaultError) {
  LayerGuard guard("fc", {RecoveryPolicy::kRecompute, 2, 0.0f});
  ResilienceReport report;
  int calls = 0;
  Tensor y = guard.run(
      [&]() -> Tensor {
        if (++calls == 1) {
          throw FaultError("fc", FaultKind::kChecksumMismatch, "transient");
        }
        return Tensor::zeros({2, 2});
      },
      {2, 2}, &report);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(report.reruns, 1);
  EXPECT_EQ(y.numel(), 4);
}

TEST(LayerGuard, RunRethrowsWhenPolicyForbidsDegradation) {
  LayerGuard guard("fc", {RecoveryPolicy::kDetect, 1, 0.0f});
  EXPECT_THROW(
      guard.run(
          []() -> Tensor {
            throw FaultError("fc", FaultKind::kNonFinite, "boom");
          },
          {1, 1}, nullptr),
      FaultError);
}

// ----- context-driven guard dispatch -----------------------------------------
// (the replacement for the retired guarded_forward overloads; the suite name
// is kept so CI filters keep matching)

ExecutionContext guard_ctx(const LayerGuard& guard, ResilienceReport* report,
                           ResiliencePolicy policy) {
  ExecutionContext ctx;
  ctx.resilience = policy;
  ctx.guard = &guard;
  ctx.report = report;
  return ctx;
}

TEST(GuardedForward, LinearCleanPathBitIdentical) {
  Pcg32 rng(11);
  Linear fc(12, 7, rng);
  Tensor x = random_tensor({5, 12}, 12);
  LayerGuard guard("fc", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  ResilienceReport report;
  ExecutionContext ctx = guard_ctx(guard, &report, ResiliencePolicy::kGuard);
  Tensor guarded = fc.forward(x, ctx);
  EXPECT_EQ(fc.cache_depth(), 0) << "inference forward pushed a cache";
  ExecutionContext train{.training = true};
  Tensor plain = fc.forward(x, train);
  fc.clear_cache();
  EXPECT_TRUE(bit_equal(guarded, plain));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.tensors_checked, 1);
}

TEST(GuardedForward, Conv2dCleanPathBitIdentical) {
  Pcg32 rng(13);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x = random_tensor({2, 2, 6, 6}, 14);
  LayerGuard guard("conv", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  ResilienceReport report;
  ExecutionContext ctx = guard_ctx(guard, &report, ResiliencePolicy::kGuard);
  Tensor guarded = conv.forward(x, ctx);
  EXPECT_EQ(conv.cache_depth(), 0) << "inference forward pushed a cache";
  ExecutionContext train{.training = true};
  Tensor plain = conv.forward(x, train);
  conv.clear_cache();
  EXPECT_TRUE(bit_equal(guarded, plain));
  EXPECT_TRUE(report.clean());
}

TEST(GuardedForward, LstmCleanPathBitIdentical) {
  Pcg32 rng(15);
  Lstm lstm(6, 9, 1, rng);
  Tensor x = random_tensor({4, 2, 6}, 16);
  LayerGuard guard("lstm", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  ResilienceReport report;
  ExecutionContext ctx = guard_ctx(guard, &report, ResiliencePolicy::kGuard);
  Tensor guarded = lstm.forward(x, ctx);
  EXPECT_EQ(lstm.cache_depth(), 0) << "inference forward pushed a cache";
  ExecutionContext train{.training = true};
  Tensor plain = lstm.forward(x, train);
  lstm.clear_cache();
  EXPECT_TRUE(bit_equal(guarded, plain));
  EXPECT_TRUE(report.clean());
}

TEST(GuardedForward, QuantizedLinearCleanPathBitIdentical) {
  // The abft side checks the fused forward's own product, so the clean
  // protected path matches it bit-for-bit under every backend.
  Pcg32 rng(17);
  Linear fc(10, 6, rng);
  QuantizedLinear qfc(fc, 8, 3);
  Tensor x = random_tensor({4, 10}, 18);
  LayerGuard guard("qfc", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  ResilienceReport report;
  ExecutionContext ctx =
      guard_ctx(guard, &report, ResiliencePolicy::kAbftGuard);
  Tensor guarded = qfc.forward(x, ctx);
  Tensor plain = matmul_packed(x, qfc.packed_weight());
  add_row_bias_inplace(plain, qfc.bias());
  EXPECT_TRUE(bit_equal(guarded, plain));
  EXPECT_EQ(report.abft.multiplies, 1);
  EXPECT_EQ(report.abft.detected, 0);
}

TEST(GuardedForward, QuantizedLinearSurvivesMacUpsets) {
  // Persistent exponent-forcing upsets through the full protected path:
  // abft degrades what it cannot repair and the guard sweeps the rest, so
  // the output is always finite.
  struct ForceExp : PeFaultHook {
    std::int64_t calls = 0;
    void on_accumulator(std::int64_t& acc, int) override {
      if (calls++ % 9 == 4) acc ^= std::int64_t{0x7f800000};
    }
  } hook;
  Pcg32 rng(19);
  Linear fc(16, 8, rng);
  QuantizedLinear qfc(fc, 8, 3);
  Tensor x = random_tensor({6, 16}, 20);
  LayerGuard guard("qfc", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  ResilienceReport report;
  ExecutionContext ctx =
      guard_ctx(guard, &report, ResiliencePolicy::kAbftGuard);
  ctx.mac_hook = &hook;
  Tensor y = qfc.forward(x, ctx);
  EXPECT_GT(report.abft.detected, 0);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(y[i]));
  }
}

TEST(ResilienceReport, MergeAccumulates) {
  ResilienceReport a, b;
  a.tensors_checked = 2;
  a.values_scrubbed = 3;
  a.abft.detected = 1;
  b.tensors_checked = 1;
  b.values_clamped = 4;
  b.abft.multiplies = 5;
  b.events.push_back({"fc", FaultKind::kNonFinite, 1, 0.0f,
                      RecoveryPolicy::kDegradeToZero});
  a.merge(b);
  EXPECT_EQ(a.tensors_checked, 3);
  EXPECT_EQ(a.values_scrubbed, 3);
  EXPECT_EQ(a.values_clamped, 4);
  EXPECT_EQ(a.abft.detected, 1);
  EXPECT_EQ(a.abft.multiplies, 5);
  EXPECT_EQ(a.events.size(), 1u);
}

}  // namespace
}  // namespace af
