// Structural property tests on the NN layers — invariances that hold by
// construction of the math, independent of any learned values.
#include <gtest/gtest.h>

#include <cmath>

#include "src/nn/attention.hpp"
#include "src/nn/layernorm.hpp"
#include "src/nn/lstm.hpp"
#include "src/nn/optimizer.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"

namespace af {
namespace {

TEST(AttentionProperty, KvPermutationInvarianceWithoutMask) {
  ExecutionContext infer;
  // Softmax attention is a weighted bag over keys: permuting the KV
  // sequence must not change the output (no causal mask, no padding).
  Pcg32 rng(1);
  MultiHeadAttention mha(8, 2, rng);
  Tensor q = Tensor::randn({1, 2, 8}, rng);
  Tensor kv = Tensor::randn({1, 5, 8}, rng);
  Tensor y1 = mha.forward(q, kv, false, nullptr, infer);

  // Reverse the KV positions.
  Tensor kv_rev({1, 5, 8});
  for (std::int64_t t = 0; t < 5; ++t) {
    for (std::int64_t d = 0; d < 8; ++d) {
      kv_rev.at({0, t, d}) = kv.at({0, 4 - t, d});
    }
  }
  Tensor y2 = mha.forward(q, kv_rev, false, nullptr, infer);
  for (std::int64_t i = 0; i < y1.numel(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-4f) << i;
  }
}

TEST(AttentionProperty, BatchRowsAreIndependent) {
  ExecutionContext infer;
  // Row b of the batch must only depend on row b of the inputs.
  Pcg32 rng(2);
  MultiHeadAttention mha(8, 2, rng);
  Tensor x = Tensor::randn({2, 3, 8}, rng);
  Tensor y1 = mha.forward(x, x, true, nullptr, infer);
  Tensor x2 = x;
  for (std::int64_t t = 0; t < 3; ++t) {
    for (std::int64_t d = 0; d < 8; ++d) x2.at({1, t, d}) += 7.0f;
  }
  Tensor y2 = mha.forward(x2, x2, true, nullptr, infer);
  for (std::int64_t t = 0; t < 3; ++t) {
    for (std::int64_t d = 0; d < 8; ++d) {
      EXPECT_FLOAT_EQ(y1.at({0, t, d}), y2.at({0, t, d}));
    }
  }
}

TEST(LayerNormProperty, InvariantToInputShiftAndScale) {
  ExecutionContext infer;
  // y = LN(x) is invariant to x -> a*x + b per row (a > 0).
  Pcg32 rng(3);
  LayerNorm ln(8);
  Tensor x = Tensor::randn({2, 8}, rng);
  Tensor y1 = ln.forward(x, infer);
  Tensor x2(x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) x2[i] = 3.0f * x[i] + 11.0f;
  Tensor y2 = ln.forward(x2, infer);
  for (std::int64_t i = 0; i < y1.numel(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 2e-3f) << i;
  }
}

TEST(LstmProperty, ZeroInputZeroStateStaysBounded) {
  ExecutionContext infer;
  Pcg32 rng(4);
  Lstm lstm(4, 6, 2, rng);
  Tensor x({20, 1, 4});  // all zeros
  Tensor y = lstm.forward(x, infer);
  // With zero input the trajectory is driven by biases alone and |h| < 1.
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_LT(std::fabs(y[i]), 1.0f);
  }
}

TEST(LstmProperty, StateSaturationIsGraceful) {
  ExecutionContext infer;
  // Extreme inputs saturate the gates; outputs stay in tanh range.
  Pcg32 rng(5);
  Lstm lstm(4, 6, 1, rng);
  Tensor x = Tensor::full({30, 1, 4}, 50.0f);
  Tensor y = lstm.forward(x, infer);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y[i]));
    EXPECT_LE(std::fabs(y[i]), 1.0f + 1e-5f);
  }
}

TEST(OptimizerProperty, WeightDecayOnlyTouchesSubset) {
  Parameter decayed("w.weight", Tensor({1}, {1.0f}));
  Parameter spared("bn.gamma", Tensor({1}, {1.0f}));
  Adam opt({&decayed, &spared}, 0.1f);
  opt.set_weight_decay(0.5f, {&decayed});
  // Zero gradients: only the decay term moves anything.
  decayed.zero_grad();
  spared.zero_grad();
  opt.step();
  EXPECT_LT(decayed.value[0], 1.0f);
  EXPECT_FLOAT_EQ(spared.value[0], 1.0f);
}

TEST(RngProperty, StreamsAreIndependent) {
  Pcg32 a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 200; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace af
