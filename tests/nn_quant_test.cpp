#include <gtest/gtest.h>

#include <cmath>

#include "src/nn/linear.hpp"
#include "src/nn/optimizer.hpp"
#include "src/nn/quant.hpp"
#include "src/numerics/registry.hpp"
#include "src/tensor/ops.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"

namespace af {
namespace {

TEST(WeightQuantScope, QuantizesAndRestores) {
  Pcg32 rng(1);
  Linear lin(8, 8, rng);
  const Tensor original = lin.weight().value;
  auto q = make_quantizer(FormatKind::kAdaptivFloat, 4);
  {
    WeightQuantScope scope(lin.parameters(), *q);
    // Inside the scope weights live on the quantized grid...
    bool any_changed = false;
    for (std::int64_t i = 0; i < original.numel(); ++i) {
      const float w = lin.weight().value[i];
      EXPECT_EQ(q->quantize_value(w), w) << i;  // idempotence == on-grid
      any_changed |= (w != original[i]);
    }
    EXPECT_TRUE(any_changed);
  }
  // ...and the master copy returns untouched.
  EXPECT_TRUE(lin.weight().value.equals(original));
}

TEST(WeightQuantScope, PerTensorCalibration) {
  // Two parameters with very different scales each get their own range.
  Pcg32 rng(2);
  Parameter big("big", Tensor::randn({64}, rng, 10.0f));
  Parameter small("small", Tensor::randn({64}, rng, 0.01f));
  auto q = make_quantizer(FormatKind::kAdaptivFloat, 8);
  WeightQuantScope scope({&big, &small}, *q);
  // The small tensor must not be flattened to zero by the big one's range.
  EXPECT_GT(small.value.max_abs(), 0.005f);
  EXPECT_GT(big.value.max_abs(), 5.0f);
}

TEST(WeightQuantScope, SteTrainingStep) {
  // A full straight-through QAR step: gradients computed at Q(W) update the
  // FP32 master weights.
  Pcg32 rng(3);
  Linear lin(4, 4, rng);
  auto q = make_quantizer(FormatKind::kAdaptivFloat, 6);
  Sgd opt(lin.parameters(), 0.1f);
  const Tensor before = lin.weight().value;
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor dy = Tensor::randn({2, 4}, rng);
  lin.zero_grad();
  {
    WeightQuantScope scope(lin.parameters(), *q);
    ExecutionContext train{.training = true};
    lin.forward(x, train);
    lin.backward(dy);
  }
  opt.step();
  // Master weights moved (grad nonzero) from their FP32 values.
  EXPECT_FALSE(lin.weight().value.equals(before));
  // And they are NOT snapped to the quantization grid (true STE).
  bool off_grid = false;
  q->calibrate(lin.weight().value);
  for (std::int64_t i = 0; i < 16; ++i) {
    off_grid |= (q->quantize_value(lin.weight().value[i]) !=
                 lin.weight().value[i]);
  }
  EXPECT_TRUE(off_grid);
}

TEST(ActQuant, OffIsIdentity) {
  ActQuant aq;
  Pcg32 rng(4);
  Tensor x = Tensor::randn({4, 4}, rng);
  Tensor y = aq.process("site", x);
  EXPECT_TRUE(y.equals(x));
}

TEST(ActQuant, CalibrationTracksRunningMax) {
  ActQuant aq;
  aq.set_mode(ActQuantMode::kCalibrate);
  aq.process("a", Tensor({2}, {1.0f, -3.0f}));
  aq.process("a", Tensor({2}, {2.0f, 0.5f}));
  aq.process("b", Tensor({2}, {0.1f, -0.2f}));
  EXPECT_FLOAT_EQ(aq.site_max("a"), 3.0f);
  EXPECT_FLOAT_EQ(aq.site_max("b"), 0.2f);
  EXPECT_FLOAT_EQ(aq.site_max("never_seen"), 0.0f);
}

TEST(ActQuant, ApplyUsesCalibratedRange) {
  ActQuant aq;
  aq.set_quantizer(make_quantizer(FormatKind::kAdaptivFloat, 8));
  aq.set_mode(ActQuantMode::kCalibrate);
  aq.process("s", Tensor({2}, {8.0f, -1.0f}));
  aq.set_mode(ActQuantMode::kApply);
  // Values above the calibrated max clamp to the format max for that range.
  Tensor y = aq.process("s", Tensor({2}, {100.0f, 0.5f}));
  EXPECT_LE(y[0], 16.0f);   // an 8-range format cannot explode to 100
  EXPECT_GT(y[0], 7.0f);
  EXPECT_NEAR(y[1], 0.5f, 0.05f);
}

TEST(ActQuant, ApplyWithoutQuantizerThrows) {
  ActQuant aq;
  EXPECT_THROW(aq.set_mode(ActQuantMode::kApply), Error);
}

TEST(ActQuant, UnseenSiteFallsBackToDynamicRange) {
  ActQuant aq;
  aq.set_quantizer(make_quantizer(FormatKind::kAdaptivFloat, 8));
  aq.set_mode(ActQuantMode::kApply);
  Tensor x({3}, {0.5f, -0.25f, 1.0f});
  Tensor y = aq.process("fresh", x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(y[i], x[i], 0.02f);
}

TEST(ActQuant, ResetStatsClears) {
  ActQuant aq;
  aq.set_mode(ActQuantMode::kCalibrate);
  aq.process("s", Tensor({1}, {5.0f}));
  aq.reset_stats();
  EXPECT_EQ(aq.site_max("s"), 0.0f);
}

}  // namespace
}  // namespace af
