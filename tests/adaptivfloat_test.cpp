#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "src/core/adaptivfloat.hpp"
#include "src/util/check.hpp"

namespace af {
namespace {

// The format of paper Figures 2-3: AdaptivFloat<4,2> with exp_bias = -2.
AdaptivFloatFormat fig_format() { return AdaptivFloatFormat(4, 2, -2); }

TEST(AdaptivFloatFormat, FieldWidths) {
  AdaptivFloatFormat f(8, 3, -6);
  EXPECT_EQ(f.bits(), 8);
  EXPECT_EQ(f.exp_bits(), 3);
  EXPECT_EQ(f.mant_bits(), 4);
  EXPECT_EQ(f.exp_bias(), -6);
  EXPECT_EQ(f.exp_max(), 1);
  EXPECT_EQ(f.num_codes(), 256);
}

TEST(AdaptivFloatFormat, InvalidWidthsThrow) {
  EXPECT_THROW(AdaptivFloatFormat(1, 0, 0), Error);
  EXPECT_THROW(AdaptivFloatFormat(17, 3, 0), Error);
  EXPECT_THROW(AdaptivFloatFormat(4, 4, 0), Error);  // no room for sign
  EXPECT_THROW(AdaptivFloatFormat(4, -1, 0), Error);
}

TEST(AdaptivFloatFormat, MinMaxValuesMatchAlgorithm1Formulas) {
  AdaptivFloatFormat f = fig_format();
  // value_min = 2^bias * (1 + 2^-m) = 0.25 * 1.5 = 0.375
  EXPECT_FLOAT_EQ(f.value_min(), 0.375f);
  // value_max = 2^(bias + 2^e - 1) * (2 - 2^-m) = 2 * 1.5 = 3
  EXPECT_FLOAT_EQ(f.value_max(), 3.0f);
}

TEST(AdaptivFloatFormat, Figure2RepresentableValues) {
  // Paper Figure 2 (right): +/-0.25 sacrificed for 0; the remaining points.
  AdaptivFloatFormat f = fig_format();
  std::vector<float> expect = {-3,    -2,  -1.5, -1,  -0.75, -0.5, -0.375, 0,
                               0.375, 0.5, 0.75, 1.0, 1.5,   2,    3};
  auto got = f.representable_values();
  ASSERT_EQ(got.size(), expect.size());  // 2^4 - 1 distinct values
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_FLOAT_EQ(got[i], expect[i]) << "index " << i;
  }
}

TEST(AdaptivFloatFormat, ZeroCodeDecodesToZeroBothSigns) {
  AdaptivFloatFormat f = fig_format();
  EXPECT_EQ(f.decode(0b0000), 0.0f);  // +0
  EXPECT_EQ(f.decode(0b1000), 0.0f);  // -0
  EXPECT_TRUE(f.is_zero_code(0b0000));
  EXPECT_TRUE(f.is_zero_code(0b1000));
  EXPECT_FALSE(f.is_zero_code(0b0001));
}

TEST(AdaptivFloatFormat, DecodeKnownCodes) {
  AdaptivFloatFormat f = fig_format();
  // [sign | E(2) | M(1)]; value = +/- 2^(E-2) * (1 + M/2)
  EXPECT_FLOAT_EQ(f.decode(0b0001), 0.375f);  // E=0 M=1
  EXPECT_FLOAT_EQ(f.decode(0b0010), 0.5f);    // E=1 M=0
  EXPECT_FLOAT_EQ(f.decode(0b0111), 3.0f);    // E=3 M=1
  EXPECT_FLOAT_EQ(f.decode(0b1111), -3.0f);
  EXPECT_FLOAT_EQ(f.decode(0b1010), -0.5f);
}

TEST(AdaptivFloatFormat, EncodeDecodeRoundTripAllCodes) {
  // Every non-negative-zero code must survive decode -> encode exactly.
  for (int e = 0; e <= 3; ++e) {
    AdaptivFloatFormat f(6, e, -3);
    for (int c = 0; c < f.num_codes(); ++c) {
      const auto code = static_cast<std::uint16_t>(c);
      const float v = f.decode(code);
      if (v == 0.0f) {
        EXPECT_EQ(f.encode(v), 0);  // canonical zero
      } else {
        EXPECT_EQ(f.encode(v), code) << "e=" << e << " code=" << c;
      }
    }
  }
}

TEST(AdaptivFloatFormat, QuantizeIsIdempotent) {
  AdaptivFloatFormat f(8, 3, -7);
  for (float x : {0.0f, 0.013f, -1.7f, 3.9f, -123.0f, 1e-8f}) {
    const float q = f.quantize(x);
    EXPECT_EQ(f.quantize(q), q) << "x=" << x;
  }
}

TEST(AdaptivFloatFormat, SubMinimumHalfwayRule) {
  AdaptivFloatFormat f = fig_format();  // vmin = 0.375
  EXPECT_FLOAT_EQ(f.quantize(0.18f), 0.0f);     // below vmin/2 = 0.1875
  EXPECT_FLOAT_EQ(f.quantize(0.19f), 0.375f);   // above the halfway point
  EXPECT_FLOAT_EQ(f.quantize(-0.18f), 0.0f);
  EXPECT_FLOAT_EQ(f.quantize(-0.19f), -0.375f);
  // 2^exp_bias itself (the sacrificed +/-min slot) maps to vmin.
  EXPECT_FLOAT_EQ(f.quantize(0.25f), 0.375f);
}

TEST(AdaptivFloatFormat, ClampAtValueMax) {
  AdaptivFloatFormat f = fig_format();
  EXPECT_FLOAT_EQ(f.quantize(3.0f), 3.0f);
  EXPECT_FLOAT_EQ(f.quantize(57.0f), 3.0f);
  EXPECT_FLOAT_EQ(f.quantize(-1e30f), -3.0f);
  EXPECT_FLOAT_EQ(f.quantize(std::numeric_limits<float>::infinity()), 3.0f);
}

TEST(AdaptivFloatFormat, NanMapsToZero) {
  AdaptivFloatFormat f = fig_format();
  EXPECT_EQ(f.quantize(std::numeric_limits<float>::quiet_NaN()), 0.0f);
}

TEST(AdaptivFloatFormat, RoundsToNearestWithTiesToEven) {
  AdaptivFloatFormat f = fig_format();
  // Midpoint between 2 (mantissa code 0, even) and 3 (code 1): ties to even.
  EXPECT_FLOAT_EQ(f.quantize(2.5f), 2.0f);
  // Midpoint between 1.5 (M=1) and 2 (M=0 at next exponent): 1.75 -> 2.
  EXPECT_FLOAT_EQ(f.quantize(1.75f), 2.0f);
  // Just off the midpoints rounds to the nearer value.
  EXPECT_FLOAT_EQ(f.quantize(2.51f), 3.0f);
  EXPECT_FLOAT_EQ(f.quantize(2.49f), 2.0f);
}

TEST(AdaptivFloatFormat, RoundingBoundariesPinnedAcrossFormats) {
  // Every boundary between adjacent positive representable values, over
  // bits 4-16, exp_bits 0-4 and several biases: the exact midpoint (it has
  // one more significant bit than either side, so it is a float) rounds
  // ties-to-even, and each float neighbour of it rounds to its own side.
  // With mantissa bits, the even side is the even code; without them
  // (m = 0) the significands are 1 and 2, so a tie always goes up. The
  // 0 | value_min boundary follows the sub-minimum rule instead: the
  // midpoint goes to value_min. Both signs are checked.
  for (int bits = 4; bits <= 16; ++bits) {
    for (int e = 0; e <= 4 && e <= bits - 1; ++e) {
      for (const int bias : {-12, -7, -1, 0, 3}) {
        const AdaptivFloatFormat f(bits, e, bias);
        std::vector<float> pos;
        for (const float v : f.representable_values()) {
          if (v > 0.0f) pos.push_back(v);
        }
        const auto check = [&](float x, float want, const char* what) {
          EXPECT_EQ(f.encode(x), f.encode(want))
              << f.to_string() << " " << what << " x=" << x;
          EXPECT_EQ(f.encode(-x), f.encode(-want))
              << f.to_string() << " " << what << " x=-" << x;
        };
        const float half_min = 0.5f * pos.front();
        check(half_min, pos.front(), "sub-minimum midpoint");
        check(std::nextafter(half_min, 0.0f), 0.0f, "below sub-minimum");
        for (std::size_t t = 0; t + 1 < pos.size(); ++t) {
          const float lo = pos[t];
          const float hi = pos[t + 1];
          const float mid = 0.5f * (lo + hi);
          ASSERT_EQ(static_cast<double>(mid),
                    0.5 * (static_cast<double>(lo) + hi))
              << f.to_string() << " midpoint of " << lo << " and " << hi;
          const bool lo_even = (f.encode(lo) & 1u) == 0;
          check(mid, f.mant_bits() > 0 && lo_even ? lo : hi, "midpoint");
          check(std::nextafter(mid, lo), lo, "below midpoint");
          check(std::nextafter(mid, hi), hi, "above midpoint");
        }
      }
    }
  }
}

TEST(AdaptivFloatFormat, MantissaCarryBumpsExponent) {
  AdaptivFloatFormat f(8, 3, -6);  // m=4
  // 1.99 normalizes to mantissa 1.99, which rounds to 2.0 -> carry to 2^1.
  const float two_minus = 1.0f + 15.5f / 16.0f;  // halfway above top mantissa
  EXPECT_FLOAT_EQ(f.quantize(two_minus * 1.001f), 2.0f);
}

TEST(AdaptivFloatFormat, NearestOptimality) {
  // Property: no representable value is closer to x than quantize(x).
  AdaptivFloatFormat f(6, 2, -4);
  auto vals = f.representable_values();
  for (float x = -2.0f; x <= 2.0f; x += 0.0137f) {
    const float q = f.quantize(x);
    float best = std::numeric_limits<float>::max();
    for (float v : vals) best = std::min(best, std::fabs(v - x));
    EXPECT_LE(std::fabs(q - x), best + 1e-6f) << "x=" << x;
  }
}

TEST(AdaptivFloatFormat, FieldAccessors) {
  AdaptivFloatFormat f(8, 3, -6);
  const std::uint16_t code = f.make_code(1, 5, 9);
  EXPECT_EQ(f.sign_of(code), 1);
  EXPECT_EQ(f.exp_field(code), 5);
  EXPECT_EQ(f.mant_field(code), 9);
  EXPECT_THROW(f.make_code(2, 0, 0), Error);
  EXPECT_THROW(f.make_code(0, 8, 0), Error);
  EXPECT_THROW(f.make_code(0, 0, 16), Error);
}

TEST(AdaptivFloatFormat, ZeroMantissaWidthSupported) {
  // AdaptivFloat<4,3>: pure powers of two (the paper's default e=3 at n=4).
  AdaptivFloatFormat f(4, 3, -4);
  EXPECT_EQ(f.mant_bits(), 0);
  EXPECT_FLOAT_EQ(f.value_min(), std::ldexp(2.0f, -4));  // (1+2^0)*2^bias
  auto vals = f.representable_values();
  EXPECT_EQ(vals.size(), 15u);
  for (float v : vals) {
    if (v > 0) {
      EXPECT_FLOAT_EQ(std::ldexp(1.0f, std::ilogb(v)), v)
          << v << " should be a power of two";
    }
  }
}

TEST(AdaptivFloatFormat, ToStringMentionsParameters) {
  EXPECT_EQ(AdaptivFloatFormat(8, 3, -6).to_string(),
            "AdaptivFloat<8,3> bias=-6");
}

TEST(AdaptivFloatFormat, DenseFormatsHaveDistinctValues) {
  // All 2^n codes decode to 2^n - 1 distinct values (only +/-0 collide).
  for (int bits : {4, 6, 8, 10}) {
    AdaptivFloatFormat f(bits, 3 > bits - 1 ? bits - 1 : 3, -5);
    std::set<float> uniq;
    for (int c = 0; c < f.num_codes(); ++c) {
      uniq.insert(f.decode(static_cast<std::uint16_t>(c)));
    }
    EXPECT_EQ(static_cast<int>(uniq.size()), f.num_codes() - 1);
  }
}

}  // namespace
}  // namespace af
