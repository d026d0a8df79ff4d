// ABFT checksummed GEMM: algebraic verification and the
// detect -> correct -> recompute -> degrade recovery ladder.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/resilience/abft.hpp"
#include "src/tensor/ops.hpp"
#include "src/tensor/tensor.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace af {
namespace {

Tensor random_tensor(std::int64_t m, std::int64_t n, std::uint64_t seed,
                     float scale = 1.0f) {
  Pcg32 rng(seed);
  Tensor t({m, n});
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

// Deterministic hook that XORs a mask into the Nth accumulator offer.
struct FlipNth : PeFaultHook {
  std::int64_t target = 0;
  std::uint64_t mask = 0;
  bool persistent = false;  // re-fault on every pass (recomputes included)
  std::int64_t calls = 0;

  void on_accumulator(std::int64_t& acc, int acc_bits) override {
    (void)acc_bits;
    const std::int64_t i = calls++;
    const bool hit =
        persistent ? (i % (target + 1) == target) : (i == target);
    if (hit) acc ^= static_cast<std::int64_t>(mask);
  }
};

TEST(PredictedSums, ThreadCountInvariant) {
  Tensor a = random_tensor(33, 21, 5);
  Tensor b = random_tensor(27, 21, 6);
  set_num_threads(1);
  PredictedSums p1 =
      abft_predicted_sums(a, b, true, abft_weight_sums(b, true));
  set_num_threads(4);
  PredictedSums p4 =
      abft_predicted_sums(a, b, true, abft_weight_sums(b, true));
  set_num_threads(0);
  EXPECT_EQ(std::memcmp(p1.row.data(), p4.row.data(),
                        p1.row.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(p1.col.data(), p4.col.data(),
                        p1.col.size() * sizeof(double)), 0);
}

TEST(PredictedSums, InterleavedChainsMatchOneChainPerOutput) {
  // The passes run several outputs per loop; each output must still be the
  // plain ascending-index chain. Ragged sizes exercise the remainder loops.
  for (const bool tb : {false, true}) {
    const std::int64_t m = 23, k = 19, n = 14;
    Tensor a = random_tensor(m, k, 71);
    Tensor b = tb ? random_tensor(n, k, 72) : random_tensor(k, n, 72);
    auto av = [&](std::int64_t i, std::int64_t kk) -> double {
      return a[i * k + kk];
    };
    auto bv = [&](std::int64_t kk, std::int64_t j) -> double {
      return tb ? b[j * k + kk] : b[kk * n + j];
    };
    std::vector<double> bsum(k), babs(k), asum(k), aabs(k);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      for (std::int64_t j = 0; j < n; ++j) {
        bsum[kk] += bv(kk, j);
        babs[kk] += std::fabs(bv(kk, j));
      }
      for (std::int64_t i = 0; i < m; ++i) {
        asum[kk] += av(i, kk);
        aabs[kk] += std::fabs(av(i, kk));
      }
    }
    const AbftWeightSums ws = abft_weight_sums(b, tb);
    for (std::int64_t kk = 0; kk < k; ++kk) {
      EXPECT_EQ(ws.sum[kk], bsum[kk]) << "k " << kk;
      EXPECT_EQ(ws.abs[kk], babs[kk]) << "k " << kk;
    }
    const PredictedSums p = abft_predicted_sums(a, b, tb, ws);
    for (std::int64_t i = 0; i < m; ++i) {
      double s = 0.0, g = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        s += av(i, kk) * bsum[kk];
        g += std::fabs(av(i, kk)) * babs[kk];
      }
      EXPECT_EQ(p.row[i], s) << "row " << i << " tb=" << tb;
      EXPECT_EQ(p.row_mag[i], g) << "row " << i;
    }
    for (std::int64_t j = 0; j < n; ++j) {
      double s = 0.0, g = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        s += asum[kk] * bv(kk, j);
        g += aabs[kk] * std::fabs(bv(kk, j));
      }
      EXPECT_EQ(p.col[j], s) << "col " << j << " tb=" << tb;
      EXPECT_EQ(p.col_mag[j], g) << "col " << j;
    }
  }
  // Actual sums: one chain per row, column partials folded per 16-row
  // chunk in ascending order.
  const Tensor c = random_tensor(37, 11, 73);
  const AlgebraicSums act = abft_actual_sums(c);
  for (std::int64_t i = 0; i < 37; ++i) {
    double s = 0.0;
    for (std::int64_t j = 0; j < 11; ++j) s += c[i * 11 + j];
    EXPECT_EQ(act.row[i], s) << "row " << i;
  }
  for (std::int64_t j = 0; j < 11; ++j) {
    double total = 0.0;
    for (std::int64_t i0 = 0; i0 < 37; i0 += 16) {
      double part = 0.0;
      for (std::int64_t i = i0; i < std::min<std::int64_t>(37, i0 + 16); ++i) {
        part += c[i * 11 + j];
      }
      total += part;
    }
    EXPECT_EQ(act.col[j], total) << "col " << j;
  }
}

// ----- abft_matmul: the guarded multiply -------------------------------------

TEST(AbftMatmul, CleanProductBitIdenticalToMatmul) {
  Tensor a = random_tensor(24, 40, 1);
  Tensor b = random_tensor(32, 40, 2);
  AbftReport report;
  Tensor guarded = abft_matmul(a, b, true, {}, &report);
  Tensor plain = matmul(a, b, false, true);
  EXPECT_TRUE(bit_equal(guarded, plain));
  EXPECT_EQ(report.multiplies, 1);
  EXPECT_EQ(report.detected, 0);
  EXPECT_EQ(report.degraded, 0);
}

TEST(AbftMatmul, AllTransposeVariantsMatchMatmul) {
  Tensor a = random_tensor(12, 18, 3);
  Tensor b = random_tensor(18, 10, 4);
  Tensor bt = transpose2d(b);
  Tensor ref = matmul(a, b);
  EXPECT_TRUE(bit_equal(abft_matmul(a, b), ref));
  EXPECT_TRUE(bit_equal(abft_matmul(a, bt, true), ref));
}

TEST(AbftMatmul, SingleUpsetIsCorrectedExactly) {
  Tensor a = random_tensor(16, 32, 8);
  Tensor b = random_tensor(16, 32, 9);
  Tensor clean = matmul(a, b, false, true);
  FlipNth hook;
  hook.target = 5 * 16 + 3;  // element (5, 3)
  hook.mask = 1u << 30;      // exponent-region flip: far above roundoff
  AbftConfig cfg;
  cfg.policy = RecoveryPolicy::kCorrect;
  AbftReport report;
  Tensor c = abft_matmul(a, b, true, cfg, &report, &hook);
  EXPECT_EQ(report.detected, 1);
  EXPECT_EQ(report.corrected, 1);
  // The repair recomputes the element with the kernel's own arithmetic, so
  // the output is bit-identical to the clean product.
  EXPECT_TRUE(bit_equal(c, clean));
}

TEST(AbftMatmul, SingleUpsetRepairIsExactForEveryTransposeVariant) {
  // The repair recomputes one row of A against either layout of B.
  Tensor a = random_tensor(12, 20, 10);
  Tensor b = random_tensor(20, 9, 11);
  const Tensor bt = transpose2d(b);
  const Tensor clean = matmul(a, b);
  for (const bool tb : {false, true}) {
    FlipNth hook;
    hook.target = 7 * 9 + 4;  // element (7, 4)
    hook.mask = 1u << 30;
    AbftConfig cfg;
    cfg.policy = RecoveryPolicy::kCorrect;
    AbftReport report;
    const Tensor c =
        abft_matmul(a, tb ? bt : b, tb, cfg, &report, &hook);
    EXPECT_EQ(report.corrected, 1) << tb;
    EXPECT_TRUE(bit_equal(c, clean)) << tb;
  }
}

TEST(AbftMatmul, DetectPolicyObservesButLeavesFault) {
  Tensor a = random_tensor(8, 16, 21);
  Tensor b = random_tensor(8, 16, 22);
  Tensor clean = matmul(a, b, false, true);
  FlipNth hook;
  hook.target = 0;
  hook.mask = 1u << 29;
  AbftConfig cfg;
  cfg.policy = RecoveryPolicy::kDetect;
  AbftReport report;
  Tensor c = abft_matmul(a, b, true, cfg, &report, &hook);
  EXPECT_EQ(report.detected, 1);
  EXPECT_EQ(report.uncorrected, 1);
  EXPECT_EQ(report.corrected, 0);
  EXPECT_FALSE(bit_equal(c, clean));  // fault deliberately left in place
}

TEST(AbftMatmul, TransientFaultClearsOnRecompute) {
  Tensor a = random_tensor(10, 20, 31);
  Tensor b = random_tensor(12, 20, 32);
  Tensor clean = matmul(a, b, false, true);
  // Two upsets in the first pass (not single-correctable), none afterward.
  FlipNth hook;
  hook.target = 2;
  hook.mask = 1u << 28;
  struct TwoThenQuiet : PeFaultHook {
    std::int64_t calls = 0;
    void on_accumulator(std::int64_t& acc, int) override {
      if (calls == 2 || calls == 47) acc ^= std::int64_t{1} << 28;
      ++calls;
    }
  } two;
  AbftConfig cfg;
  cfg.policy = RecoveryPolicy::kRecompute;
  AbftReport report;
  Tensor c = abft_matmul(a, b, true, cfg, &report, &two);
  EXPECT_EQ(report.recomputes, 1);
  EXPECT_GE(report.backoff_units, 2);  // 2^1 for the first retry
  EXPECT_TRUE(bit_equal(c, clean));
}

TEST(AbftMatmul, PersistentFaultDegradesToZeroNeverGarbage) {
  Tensor a = random_tensor(12, 24, 41);
  Tensor b = random_tensor(12, 24, 42);
  FlipNth hook;
  hook.persistent = true;
  hook.target = 30;          // every 31st offer, multi-element corruption
  hook.mask = 0x7f800000u;   // force the exponent field: huge or Inf
  AbftConfig cfg;
  cfg.policy = RecoveryPolicy::kDegradeToZero;
  cfg.max_recomputes = 1;
  AbftReport report;
  Tensor c = abft_matmul(a, b, true, cfg, &report, &hook);
  EXPECT_GT(report.degraded, 0);
  EXPECT_EQ(report.uncorrected, 0);
  // Scrubbed output carries zeros where the fault lived — and never the
  // corrupted magnitudes themselves.
  const Tensor clean = matmul(a, b, false, true);
  double max_abs = 0.0;
  for (std::int64_t i = 0; i < clean.numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs(static_cast<double>(clean[i])));
  }
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(c[i]));
    ASSERT_LE(std::fabs(static_cast<double>(c[i])), max_abs * 1.01);
  }
}

TEST(AbftMatmul, RecomputeBudgetExhaustionThrowsTypedFaultError) {
  Tensor a = random_tensor(8, 16, 51);
  Tensor b = random_tensor(8, 16, 52);
  FlipNth hook;
  hook.persistent = true;
  hook.target = 7;
  hook.mask = 1u << 30;
  AbftConfig cfg;
  cfg.policy = RecoveryPolicy::kRecompute;  // degradation forbidden
  cfg.max_recomputes = 2;
  cfg.layer = "unit_under_test";
  try {
    abft_matmul(a, b, true, cfg, nullptr, &hook);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.layer(), "unit_under_test");
    EXPECT_EQ(e.kind(), FaultKind::kUncorrectable);
  }
  // FaultError derives from Error: existing catch sites keep working.
  EXPECT_THROW(abft_matmul(a, b, true, cfg, nullptr, &hook), Error);
}

TEST(AbftMatmul, ActualSumsThreadCountInvariant) {
  Tensor c = random_tensor(64, 48, 99, 10.0f);
  set_num_threads(1);
  AlgebraicSums a1 = abft_actual_sums(c);
  set_num_threads(4);
  AlgebraicSums a4 = abft_actual_sums(c);
  set_num_threads(0);
  EXPECT_EQ(std::memcmp(a1.row.data(), a4.row.data(),
                        a1.row.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(a1.col.data(), a4.col.data(),
                        a1.col.size() * sizeof(double)), 0);
}

TEST(AbftMatmul, FaultStreamThreadCountInvariant) {
  Tensor a = random_tensor(20, 24, 61);
  Tensor b = random_tensor(16, 24, 62);
  auto run = [&]() {
    FlipNth hook;
    hook.persistent = true;
    hook.target = 13;
    hook.mask = 1u << 27;
    AbftConfig cfg;
    cfg.policy = RecoveryPolicy::kDegradeToZero;
    AbftReport report;
    Tensor c = abft_matmul(a, b, true, cfg, &report, &hook);
    return std::make_pair(c, report.degraded);
  };
  set_num_threads(1);
  auto [c1, d1] = run();
  set_num_threads(4);
  auto [c4, d4] = run();
  set_num_threads(0);
  EXPECT_TRUE(bit_equal(c1, c4));
  EXPECT_EQ(d1, d4);
}

}  // namespace
}  // namespace af
