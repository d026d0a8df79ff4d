// ABFT over the packed LUT kernel: QuantizedLinear checks its one product
// (matmul_packed on the context's backend), with weight checksums built
// once per layer. These tests hold that route to the detection contract on
// every available backend: clean inputs never trip the roundoff bound,
// every upset above it is caught, and a single upset is repaired to
// exactly the bits the kernel stores.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "src/kernels/backend.hpp"
#include "src/kernels/gemm_packed.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/quantized_linear.hpp"
#include "src/resilience/abft.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/rng.hpp"

namespace af {
namespace {

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

std::vector<const KernelBackend*> backends() {
  std::vector<const KernelBackend*> out{&scalar_backend()};
  if (avx2_backend() != nullptr) out.push_back(avx2_backend());
  return out;
}

// XORs `mask` into the accumulator offered at position `target` of the
// first pass; every later offer (recomputes included) passes untouched.
struct FlipOnce : PeFaultHook {
  std::int64_t target = 0;
  std::uint32_t mask = 0;
  std::int64_t calls = 0;
  void on_accumulator(std::int64_t& acc, int) override {
    if (calls++ == target) acc ^= static_cast<std::int64_t>(mask);
  }
};

float flip_bits(float v, std::uint32_t mask) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bits ^= mask;
  std::memcpy(&v, &bits, sizeof(bits));
  return v;
}

struct Shape2 {
  std::int64_t in, out;
};

// k or n = 1, ragged k/n, and the two served MLP layer shapes.
constexpr Shape2 kShapes[] = {{1, 24}, {40, 1}, {37, 29}, {128, 256},
                              {256, 32}};
constexpr std::int64_t kRows[] = {1, 8, 64};
// Sign, exponent (high, middle, low) and mantissa (high, low) flips.
constexpr std::uint32_t kMasks[] = {1u << 31, 1u << 30, 1u << 27,
                                    1u << 23, 1u << 20, 1u << 6};

TEST(AbftPacked, DetectionBoundHoldsOnEveryBackend) {
  std::int64_t above_floor = 0;
  for (const KernelBackend* be : backends()) {
    for (const int bits : {4, 6, 8}) {
      for (int exp_bits = 0; exp_bits < bits; ++exp_bits) {
        for (const Shape2 s : kShapes) {
          Pcg32 rng(static_cast<std::uint64_t>(1000 * bits + 10 * exp_bits +
                                               s.in));
          Linear fc(s.in, s.out, rng);
          QuantizedLinear qfc(fc, bits, exp_bits);
          for (const std::int64_t m : kRows) {
            const std::string where =
                std::string(be->name) + " bits=" + std::to_string(bits) +
                " exp=" + std::to_string(exp_bits) + " " +
                std::to_string(s.in) + "->" + std::to_string(s.out) +
                " m=" + std::to_string(m);
            const Tensor x = Tensor::randn({m, s.in}, rng);
            ExecutionContext ctx;
            ctx.backend = be;
            ctx.resilience = ResiliencePolicy::kAbft;

            // Clean: the kernel's roundoff never trips the bound, and the
            // protected forward has the unprotected forward's bits.
            ExecutionContext plain;
            plain.backend = be;
            const Tensor clean = qfc.forward(x, plain);
            ResilienceReport clean_report;
            ctx.report = &clean_report;
            EXPECT_TRUE(bit_equal(qfc.forward(x, ctx), clean)) << where;
            EXPECT_EQ(clean_report.abft.detected, 0) << where;

            // One upset per mask, at a seeded output. It must be caught
            // whenever it moves the element by more than twice the smaller
            // of its row and column tolerances: the clean residual is
            // within one tolerance, so the faulted one then exceeds it.
            // Whatever is caught is repaired (single-element correction,
            // else a clean recompute) to exactly the clean bits.
            const Tensor product = matmul_packed(x, qfc.packed_weight(), *be);
            const Tensor& w = qfc.decoded_weight();
            const PredictedSums pred = abft_predicted_sums(
                x, w, /*trans_b=*/true,
                abft_weight_sums(w, /*trans_b=*/true));
            const double eps =
                static_cast<double>(std::numeric_limits<float>::epsilon());
            const double tiny = std::numeric_limits<float>::denorm_min();
            for (const std::uint32_t mask : kMasks) {
              const auto t = static_cast<std::int64_t>(
                  rng.next_u32() % static_cast<std::uint32_t>(m * s.out));
              const std::int64_t i = t / s.out, j = t % s.out;
              const double delta =
                  static_cast<double>(flip_bits(product[t], mask)) -
                  static_cast<double>(product[t]);
              const double row_floor =
                  4.0 * eps * static_cast<double>(s.in + s.out) *
                      pred.row_mag[static_cast<std::size_t>(i)] +
                  tiny;
              const double col_floor =
                  4.0 * eps * static_cast<double>(s.in + m) *
                      pred.col_mag[static_cast<std::size_t>(j)] +
                  tiny;
              FlipOnce hook;
              hook.target = t;
              hook.mask = mask;
              ResilienceReport report;
              ctx.report = &report;
              ctx.mac_hook = &hook;
              const Tensor y = qfc.forward(x, ctx);
              ctx.mac_hook = nullptr;
              if (!std::isfinite(delta) ||
                  std::fabs(delta) > 2.0 * std::min(row_floor, col_floor)) {
                ++above_floor;
                EXPECT_EQ(report.abft.detected, 1)
                    << where << " mask=" << mask << " at (" << i << ", " << j
                    << ") delta=" << delta;
              }
              if (report.abft.detected > 0) {
                EXPECT_TRUE(bit_equal(y, clean))
                    << where << " mask=" << mask << " at (" << i << ", " << j
                    << ")";
              }
            }
          }
        }
      }
    }
  }
  // The sweep must actually exercise the detection side.
  EXPECT_GT(above_floor, 1000);
}

TEST(AbftPacked, Avx2RepairStoresTheKernelsBits) {
  // The scalar chain differs from the FMA chain, so only a row recomputed
  // through the AVX2 kernel itself can restore the exact clean bits.
  if (avx2_backend() == nullptr) GTEST_SKIP() << "no AVX2 backend";
  Pcg32 rng(8);
  Linear fc(256, 32, rng);
  QuantizedLinear qfc(fc, 6, 2);
  const Tensor x = Tensor::randn({64, 256}, rng);
  ExecutionContext plain;
  plain.backend = avx2_backend();
  const Tensor clean = qfc.forward(x, plain);
  for (const std::int64_t target : {std::int64_t{0}, std::int64_t{33 * 32 + 9},
                                    std::int64_t{64 * 32 - 1}}) {
    FlipOnce hook;
    hook.target = target;
    hook.mask = 0x40000000u;
    ResilienceReport report;
    ExecutionContext ctx = plain;
    ctx.resilience = ResiliencePolicy::kAbft;
    ctx.report = &report;
    ctx.mac_hook = &hook;
    const Tensor repaired = qfc.forward(x, ctx);
    EXPECT_EQ(report.abft.corrected, 1) << "target " << target;
    EXPECT_EQ(report.abft.recomputes, 0) << "target " << target;
    EXPECT_TRUE(bit_equal(repaired, clean)) << "target " << target;
  }
}

}  // namespace
}  // namespace af
