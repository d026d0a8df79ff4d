// Deployment-path tests: QuantizedLinear (packed weights).
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/algorithm1.hpp"
#include "src/kernels/backend.hpp"
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

}  // namespace
}  // namespace af
