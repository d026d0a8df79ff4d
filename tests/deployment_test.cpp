// Deployment-path tests: QuantizedLinear (packed weights) and pruning
// composition with AdaptivFloat.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/algorithm1.hpp"
#include "src/core/channel_quant.hpp"
#include "src/kernels/backend.hpp"
#include "src/nn/pruning.hpp"
#include "src/nn/quant.hpp"
#include "src/nn/quantized_linear.hpp"
#include "src/numerics/registry.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"

namespace af {
namespace {

TEST(QuantizedLinear, MatchesFakeQuantizedReference) {
  // The packed execution path must agree bit-for-bit with the evaluation
  // path (WeightQuantScope around an FP32 Linear). The fake-quant path
  // runs the scalar matmul, so pin the scalar backend for the comparison.
  ScopedKernelBackend pin(scalar_backend());
  Pcg32 rng(1);
  Linear lin(12, 7, rng);
  Tensor x = Tensor::randn({5, 12}, rng);

  QuantizedLinear qlin(lin, 8, 3);
  ExecutionContext ctx;
  Tensor packed_out = qlin.forward(x, ctx);

  auto q = make_quantizer(FormatKind::kAdaptivFloat, 8);
  Tensor fake_out;
  {
    WeightQuantScope scope({&lin.weight()}, *q);
    fake_out = lin.forward(x, ctx);
  }
  ASSERT_EQ(packed_out.shape(), fake_out.shape());
  for (std::int64_t i = 0; i < packed_out.numel(); ++i) {
    EXPECT_EQ(packed_out[i], fake_out[i]) << i;
  }
}

TEST(QuantizedLinear, WeightFootprintShrinks) {
  Pcg32 rng(2);
  Linear lin(64, 64, rng);
  QuantizedLinear q4(lin, 4, 3);
  QuantizedLinear q8(lin, 8, 3);
  EXPECT_EQ(q8.weight_bytes(), 64u * 64u);
  EXPECT_EQ(q4.weight_bytes(), 64u * 64u / 2);
}

TEST(QuantizedLinear, ValidatesInputShape) {
  Pcg32 rng(3);
  Linear lin(4, 2, rng);
  QuantizedLinear qlin(lin, 8, 3);
  ExecutionContext ctx;
  EXPECT_THROW(qlin.forward(Tensor({1, 5}), ctx), FaultError);
}

TEST(Pruning, PrunesExactFraction) {
  Pcg32 rng(4);
  Tensor w = Tensor::randn({1000}, rng);
  const std::int64_t pruned = prune_by_magnitude(w, 0.3f);
  EXPECT_EQ(pruned, 300);
  EXPECT_NEAR(sparsity_of(w), 0.3, 0.001);
}

TEST(Pruning, RemovesSmallestMagnitudes) {
  Tensor w({5}, {0.1f, -5.0f, 0.01f, 3.0f, -0.2f});
  prune_by_magnitude(w, 0.4f);  // prunes two: 0.01 and 0.1
  EXPECT_EQ(w[0], 0.0f);
  EXPECT_EQ(w[2], 0.0f);
  EXPECT_EQ(w[1], -5.0f);
  EXPECT_EQ(w[3], 3.0f);
  EXPECT_EQ(w[4], -0.2f);
}

TEST(Pruning, BoundaryCases) {
  Tensor w({4}, {1, 2, 3, 4});
  EXPECT_EQ(prune_by_magnitude(w, 0.0f), 0);
  EXPECT_EQ(w[0], 1.0f);
  EXPECT_EQ(prune_by_magnitude(w, 1.0f), 4);
  EXPECT_DOUBLE_EQ(sparsity_of(w), 1.0);
  EXPECT_THROW(prune_by_magnitude(w, 1.5f), Error);
}

TEST(Pruning, ComposesWithAdaptivFloat) {
  // Deep Compression composition (paper Section 2): pruned zeros are
  // represented exactly by AdaptivFloat's zero code, so quantization error
  // on a pruned tensor is no worse than on the dense tensor.
  Pcg32 rng(5);
  Tensor dense = Tensor::randn({64, 64}, rng, 1.0f);
  Tensor pruned = dense;
  prune_by_magnitude(pruned, 0.5f);

  auto dq = adaptivfloat_quantize(dense, 4, 3);
  auto pq = adaptivfloat_quantize(pruned, 4, 3);
  const double dense_err = rms_between(dense, dq.quantized);
  const double pruned_err = rms_between(pruned, pq.quantized);
  EXPECT_LE(pruned_err, dense_err);
  // All pruned zeros survive quantization exactly.
  for (std::int64_t i = 0; i < pruned.numel(); ++i) {
    if (pruned[i] == 0.0f) {
      EXPECT_EQ(pq.quantized[i], 0.0f);
    }
  }
}

}  // namespace
}  // namespace af
