#include "src/numerics/float_format.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/check.hpp"

namespace af {

FloatFormat::FloatFormat(int bits, int exp_bits)
    : bits_(bits), exp_bits_(exp_bits), mant_bits_(bits - exp_bits - 1) {
  AF_CHECK(bits >= 2 && bits <= 16, "float width must be in [2,16]");
  AF_CHECK(exp_bits >= 1 && exp_bits <= bits - 1,
           "float exponent width must be in [1, bits-1]");
  AF_CHECK(exp_bits <= 8,
           "float exponent width must be at most 8 (value_min must be a "
           "normal FP32 value)");
  view_.bits = bits_;
  view_.mant_bits = mant_bits_;
  view_.base = static_cast<std::uint32_t>(127 - bias()) << mant_bits_;
  view_.min_mag = 1u << mant_bits_;  // value_min is exponent field 1
  view_.half_vmin = float_bits(0.5f * value_min());
  view_.vmin = float_bits(value_min());
  view_.vmax = float_bits(value_max());
}

float FloatFormat::value_max() const {
  const int emax = ((1 << exp_bits_) - 1) - bias();
  return std::ldexp(2.0f - std::ldexp(1.0f, -mant_bits_), emax);
}

float FloatFormat::value_min() const {
  return std::ldexp(1.0f, 1 - bias());
}

float FloatFormat::decode(std::uint16_t code) const {
  AF_CHECK(code < (1u << bits_), "code wider than the format");
  return float_value_of(view_, 0.0f, code);
}

std::vector<float> FloatFormat::representable_values() const {
  std::vector<float> vals;
  vals.reserve(1u << bits_);
  for (int c = 0; c < (1 << bits_); ++c) {
    const float v = decode(static_cast<std::uint16_t>(c));
    vals.push_back(v == 0.0f ? 0.0f : v);  // canonicalize -0
  }
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

std::string FloatFormat::to_string() const {
  return "Float<" + std::to_string(bits_) + "," + std::to_string(exp_bits_) +
         ">";
}

}  // namespace af
