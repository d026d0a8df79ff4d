#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "src/numerics/posit.hpp"
#include "src/util/check.hpp"

namespace af {
namespace {

TEST(PositFormat, Parameters) {
  PositFormat p(8, 1);
  EXPECT_EQ(p.bits(), 8);
  EXPECT_EQ(p.es(), 1);
  EXPECT_DOUBLE_EQ(p.useed(), 4.0);
  EXPECT_THROW(PositFormat(1, 0), Error);
  EXPECT_THROW(PositFormat(8, 5), Error);
}

TEST(PositFormat, ZeroAndNaR) {
  PositFormat p(8, 0);
  EXPECT_EQ(p.decode(0x00), 0.0);
  EXPECT_TRUE(std::isnan(p.decode(0x80)));
}

TEST(PositFormat, KnownPositiveValuesEs0) {
  PositFormat p(8, 0);
  EXPECT_DOUBLE_EQ(p.decode(0x40), 1.0);   // 0100 0000
  EXPECT_DOUBLE_EQ(p.decode(0x60), 2.0);   // 0110 0000
  EXPECT_DOUBLE_EQ(p.decode(0x50), 1.5);   // 0101 0000
  EXPECT_DOUBLE_EQ(p.decode(0x20), 0.5);   // 0010 0000
  EXPECT_DOUBLE_EQ(p.decode(0x48), 1.25);  // 0100 1000
}

TEST(PositFormat, NegativesAreTwosComplement) {
  PositFormat p(8, 0);
  EXPECT_DOUBLE_EQ(p.decode(0xC0), -1.0);
  EXPECT_DOUBLE_EQ(p.decode(0xA0), -2.0);  // twos complement of 0x60
  for (int c = 1; c < 128; ++c) {
    const auto pos = static_cast<std::uint16_t>(c);
    const auto neg = static_cast<std::uint16_t>((256 - c) & 0xFF);
    EXPECT_DOUBLE_EQ(p.decode(neg), -p.decode(pos)) << "code " << c;
  }
}

TEST(PositFormat, MinposMaxposMatchStandardFormulas) {
  // minpos = useed^(2-n), maxpos = useed^(n-2).
  for (int es : {0, 1, 2}) {
    for (int n : {6, 8, 12}) {
      PositFormat p(n, es);
      const double useed = std::ldexp(1.0, 1 << es);
      EXPECT_DOUBLE_EQ(p.maxpos(), std::pow(useed, n - 2)) << n << "," << es;
      EXPECT_DOUBLE_EQ(p.minpos(), std::pow(useed, 2 - n)) << n << "," << es;
    }
  }
}

TEST(PositFormat, ValuesMonotoneInCodeOrder) {
  // Positive posits are ordered like unsigned integers — decode must be
  // strictly increasing on [1, 2^(n-1)-1].
  PositFormat p(10, 1);
  double prev = 0.0;
  for (int c = 1; c < (1 << 9); ++c) {
    const double v = p.decode(static_cast<std::uint16_t>(c));
    EXPECT_GT(v, prev) << "code " << c;
    prev = v;
  }
}

TEST(PositFormat, TaperedPrecisionDenseNearOne) {
  // Posit's defining property: more values per octave near 1.0 than far out.
  PositQuantizer q(8, 1);
  auto vals = q.representable_values();
  auto count_in = [&vals](double lo, double hi) {
    int n = 0;
    for (float v : vals) n += (v >= lo && v < hi);
    return n;
  };
  EXPECT_GT(count_in(1.0, 2.0), count_in(64.0, 128.0));
}

TEST(PositFormat, RepresentableValuesCount) {
  PositQuantizer q(8, 1);
  EXPECT_EQ(q.representable_values().size(), 255u);  // 2^8 - NaR
}

TEST(PositQuantizer, NonzeroNeverRoundsToZero) {
  PositQuantizer q(8, 1);
  EXPECT_GT(q.quantize_value(1e-20f), 0.0f);
  EXPECT_LT(q.quantize_value(-1e-20f), 0.0f);
  EXPECT_EQ(q.quantize_value(0.0f), 0.0f);
}

TEST(PositQuantizer, SaturatesAtMaxpos) {
  PositQuantizer q(8, 1);
  const float maxpos = static_cast<float>(q.format().maxpos());
  EXPECT_FLOAT_EQ(q.quantize_value(1e30f), maxpos);
  EXPECT_FLOAT_EQ(q.quantize_value(-1e30f), -maxpos);
}

TEST(PositQuantizer, ExactValuesFixed) {
  PositQuantizer q(8, 0);
  for (float v : {1.0f, -1.5f, 2.0f, 0.5f}) {
    EXPECT_FLOAT_EQ(q.quantize_value(v), v);
  }
}

TEST(PositQuantizer, Idempotent) {
  PositQuantizer q(8, 1);
  Pcg32 rng(31);
  for (int i = 0; i < 500; ++i) {
    const float x = rng.normal(0.0f, 10.0f);
    const float once = q.quantize_value(x);
    EXPECT_EQ(q.quantize_value(once), once);
  }
}

TEST(PositQuantizer, WideEsStaysFiniteAndEncodesItsOwnRounding) {
  // es up to 4 reaches past FP32 at 12 and 16 bits (maxpos = 2^224 at
  // posit<16,4>): the grid is the saturating decode, so the range stays
  // finite, and encode() is the code of quantize_value() everywhere.
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Pcg32 rng(32);
  for (int bits : {12, 16}) {
    for (int es = 0; es <= 4; ++es) {
      SCOPED_TRACE(::testing::Message() << "posit<" << bits << "," << es
                                        << ">");
      const PositQuantizer q(bits, es);
      const float range = q.value_range();
      ASSERT_TRUE(std::isfinite(range));
      EXPECT_EQ(q.quantize_value(kInf), range);
      EXPECT_EQ(q.quantize_value(-kInf), -range);
      const std::vector<float> vals = q.representable_values();
      EXPECT_EQ(std::count(vals.begin(), vals.end(), 0.0f), 1);
      EXPECT_TRUE(std::is_sorted(vals.begin(), vals.end()));
      std::vector<float> probes = {kInf,
                                   -kInf,
                                   std::numeric_limits<float>::max(),
                                   std::numeric_limits<float>::denorm_min(),
                                   -std::numeric_limits<float>::denorm_min(),
                                   std::numeric_limits<float>::quiet_NaN(),
                                   0.0f,
                                   -0.0f};
      for (std::size_t i = 0; i < vals.size(); ++i) {
        probes.push_back(vals[i]);
        probes.push_back(std::nextafter(vals[i], kInf));
        probes.push_back(std::nextafter(vals[i], -kInf));
        if (i + 1 < vals.size()) {
          probes.push_back(vals[i] + (vals[i + 1] - vals[i]) / 2.0f);
        }
      }
      for (int i = 0; i < 2000; ++i) {
        const float mag = std::ldexp(1.0f, static_cast<int>(
                                               rng.next_below(250)) - 125);
        probes.push_back(rng.uniform(-1.0f, 1.0f) * mag);
      }
      // Reference rounding over the positive grid (std::lower_bound, then
      // the nearer neighbour, ties to the even code), saturating at both
      // ends; applied below to probes strictly inside the grid. A grid
      // value is exact, so encode() gives its code.
      const std::vector<float> pos(vals.begin() + vals.size() / 2 + 1,
                                   vals.end());
      const auto reference = [&](float x) {
        const float a = std::fabs(x);
        std::size_t i = static_cast<std::size_t>(
            std::lower_bound(pos.begin(), pos.end(), a) - pos.begin());
        if (i == 0) return x < 0.0f ? -pos[0] : pos[0];
        const float dl = a - pos[i - 1];
        const float dh = pos[i] - a;
        if (dl < dh || (dl == dh && q.encode(pos[i - 1]) % 2 == 0)) --i;
        return x < 0.0f ? -pos[i] : pos[i];
      };
      for (float x : probes) {
        const float qx = q.quantize_value(x);
        EXPECT_EQ(q.decode(q.encode(x)), qx) << "x=" << x;
        if (std::isfinite(x) && x != 0.0f && std::fabs(x) < range) {
          EXPECT_EQ(qx, reference(x)) << "x=" << x;
        }
      }
    }
  }
}

TEST(PositQuantizer, InterfaceBasics) {
  PositQuantizer q(8, 1);
  EXPECT_EQ(q.name(), "Posit");
  EXPECT_EQ(q.bits(), 8);
  EXPECT_FALSE(q.self_adaptive());
}

}  // namespace
}  // namespace af
