#include "src/core/adaptivfloat.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/check.hpp"

namespace af {

AdaptivFloatFormat::AdaptivFloatFormat(int bits, int exp_bits, int exp_bias)
    : bits_(bits),
      exp_bits_(exp_bits),
      mant_bits_(bits - exp_bits - 1),
      exp_bias_(exp_bias) {
  AF_CHECK(bits >= 2 && bits <= 16, "AdaptivFloat width must be in [2,16]");
  AF_CHECK(exp_bits >= 0 && exp_bits <= bits - 1,
           "exponent width must leave room for the sign bit");
  value_min_ = std::ldexp(1.0f + std::ldexp(1.0f, -mant_bits_), exp_bias_);
  value_max_ = std::ldexp(2.0f - std::ldexp(1.0f, -mant_bits_), exp_max());
  mant_scale_ = std::ldexp(1.0f, mant_bits_);
  has_view_ = exp_bias_ + 127 >= 1 && std::isnormal(value_min_);
  if (has_view_) {
    view_.bits = bits_;
    view_.mant_bits = mant_bits_;
    view_.base = static_cast<std::uint32_t>(exp_bias_ + 127) << mant_bits_;
    view_.min_mag = 1;  // value_min is exponent field 0, mantissa 1
    view_.half_vmin = float_bits(0.5f * value_min_);
    view_.vmin = float_bits(value_min_);
    view_.vmax = float_bits(value_max_);
  }
}

std::uint16_t AdaptivFloatFormat::make_code(std::uint16_t sign,
                                            std::uint16_t exp,
                                            std::uint16_t mant) const {
  AF_CHECK(sign <= 1, "sign field out of range");
  AF_CHECK(exp < (1u << exp_bits_), "exponent field out of range");
  AF_CHECK(mant < (1u << mant_bits_), "mantissa field out of range");
  return static_cast<std::uint16_t>((sign << (bits_ - 1)) |
                                    (exp << mant_bits_) | mant);
}

float AdaptivFloatFormat::decode(std::uint16_t code) const {
  AF_CHECK(code < (1u << bits_), "code wider than the format");
  if (is_zero_code(code)) return 0.0f;  // +0 and -0 both mean exact zero
  const float sign = sign_of(code) ? -1.0f : 1.0f;
  const int exp = static_cast<int>(exp_field(code)) + exp_bias_;
  const float mant =
      1.0f + std::ldexp(static_cast<float>(mant_field(code)), -mant_bits_);
  return sign * std::ldexp(mant, exp);
}

std::uint16_t AdaptivFloatFormat::encode(float x) const {
  if (x == 0.0f || std::isnan(x)) return 0;
  const std::uint16_t sign = x < 0.0f ? 1 : 0;
  float a = std::fabs(x);

  const float vmin = value_min_;
  const float vmax = value_max_;

  // Sub-minimum values round to 0 below the halfway threshold and to
  // value_min above it (paper Algorithm 1, "Handle unrepresentable values").
  if (a < vmin) {
    if (a < 0.5f * vmin) return 0;
    // +/- value_min is the code right after zero: combined exponent+mantissa
    // field 1 (E=0,M=1 when mantissa bits exist, E=1,M=0 when m == 0).
    return static_cast<std::uint16_t>((sign << (bits_ - 1)) | 1u);
  }
  if (a >= vmax) {
    return make_code(sign, static_cast<std::uint16_t>((1 << exp_bits_) - 1),
                     static_cast<std::uint16_t>((1 << mant_bits_) - 1));
  }

  // Normalize: a = mant * 2^exp with mant in [1, 2).
  int exp_plus_1 = 0;
  const float frac = std::frexp(a, &exp_plus_1);  // frac in [0.5, 1)
  int exp = exp_plus_1 - 1;
  float mant = 2.0f * frac;

  // Round the mantissa to m fractional bits, ties to even (the default
  // FE_TONEAREST behaviour of nearbyint). mant * 2^m is exact: a power-of-2
  // scale of a value in [1, 2) with m <= 15 stays a normal float.
  auto q = static_cast<std::int64_t>(std::nearbyint(mant * mant_scale_));
  if (q == (std::int64_t{1} << (mant_bits_ + 1))) {
    q >>= 1;  // mantissa rounded up to 2.0: carry into the exponent
    ++exp;
  }
  if (exp > exp_max()) {
    // Can only occur via the carry right at the top of the range.
    return make_code(sign, static_cast<std::uint16_t>((1 << exp_bits_) - 1),
                     static_cast<std::uint16_t>((1 << mant_bits_) - 1));
  }
  AF_CHECK(exp >= exp_bias_, "normalized exponent below bias after clamping");
  const auto exp_f = static_cast<std::uint16_t>(exp - exp_bias_);
  const auto mant_f =
      static_cast<std::uint16_t>(q - (std::int64_t{1} << mant_bits_));
  return make_code(sign, exp_f, mant_f);
}

float AdaptivFloatFormat::quantize(float x) const { return decode(encode(x)); }

std::vector<float> AdaptivFloatFormat::representable_values() const {
  std::vector<float> vals;
  vals.reserve(static_cast<std::size_t>(num_codes()));
  for (int c = 0; c < num_codes(); ++c) {
    vals.push_back(decode(static_cast<std::uint16_t>(c)));
  }
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

std::string AdaptivFloatFormat::to_string() const {
  return "AdaptivFloat<" + std::to_string(bits_) + "," +
         std::to_string(exp_bits_) + "> bias=" + std::to_string(exp_bias_);
}

}  // namespace af
