// Non-finite input policy and value_range() for every format.
//
// The contract (Quantizer::quantize_value docs): NaN quantizes to exactly 0
// and +/-Inf saturates to +/-value_range(), deterministically, for all five
// formats. The decode-side guard of the resilience paths is
// FormatCodec::decode_hardened, pinned in resilience_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "src/core/adaptivfloat.hpp"
#include "src/numerics/registry.hpp"

namespace af {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

std::unique_ptr<Quantizer> calibrated(FormatKind kind, int bits) {
  auto q = make_quantizer(kind, bits);
  Pcg32 rng(7);
  Tensor t = Tensor::randn({64}, rng, 0.5f);
  q->calibrate(t);
  return q;
}

TEST(NonFiniteInputs, NanQuantizesToZeroEverywhere) {
  for (FormatKind kind : all_format_kinds()) {
    for (int bits : {4, 6, 8}) {
      auto q = calibrated(kind, bits);
      const float out = q->quantize_value(kNan);
      EXPECT_EQ(out, 0.0f) << q->name() << " bits=" << bits;
      EXPECT_FALSE(std::signbit(out)) << q->name();
    }
  }
}

TEST(NonFiniteInputs, InfSaturatesToValueRangeEverywhere) {
  for (FormatKind kind : all_format_kinds()) {
    for (int bits : {4, 6, 8}) {
      auto q = calibrated(kind, bits);
      const float range = q->value_range();
      ASSERT_TRUE(std::isfinite(range)) << q->name();
      ASSERT_GT(range, 0.0f) << q->name();
      EXPECT_EQ(q->quantize_value(kInf), range) << q->name() << " " << bits;
      EXPECT_EQ(q->quantize_value(-kInf), -range) << q->name() << " " << bits;
    }
  }
}

TEST(NonFiniteInputs, HugeFiniteSaturatesLikeInf) {
  for (FormatKind kind : all_format_kinds()) {
    auto q = calibrated(kind, 8);
    EXPECT_EQ(q->quantize_value(3.0e38f), q->value_range()) << q->name();
    EXPECT_EQ(q->quantize_value(-3.0e38f), -q->value_range()) << q->name();
  }
}

TEST(NonFiniteInputs, AdaptivFloatEncodeMapsNanToZeroCode) {
  AdaptivFloatFormat fmt = format_for_max_abs(1.0f, 8, 3);
  EXPECT_EQ(fmt.encode(kNan), 0u);
  EXPECT_EQ(fmt.decode(fmt.encode(kNan)), 0.0f);
  EXPECT_EQ(fmt.decode(fmt.encode(kInf)), fmt.value_max());
  EXPECT_EQ(fmt.decode(fmt.encode(-kInf)), -fmt.value_max());
}

TEST(ValueRange, IsTheLargestEmittableMagnitude) {
  Pcg32 rng(11);
  for (FormatKind kind : all_format_kinds()) {
    auto q = calibrated(kind, 8);
    const float range = q->value_range();
    // The range itself must be representable (saturation is reachable)...
    EXPECT_EQ(q->quantize_value(range), range) << q->name();
    // ...and no input may quantize beyond it.
    for (int i = 0; i < 500; ++i) {
      const float x = rng.uniform(-4.0f, 4.0f);
      EXPECT_LE(std::fabs(q->quantize_value(x)), range) << q->name();
    }
  }
}

}  // namespace
}  // namespace af
