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
  const std::uint16_t sign_f = (code >> (bits_ - 1)) & 1u;
  const std::uint16_t exp_f =
      static_cast<std::uint16_t>((code >> mant_bits_) & ((1u << exp_bits_) - 1u));
  const std::uint16_t mant_f =
      static_cast<std::uint16_t>(code & ((1u << mant_bits_) - 1u));
  if (exp_f == 0) return 0.0f;  // flush-to-zero: no denormals
  const float sign = sign_f ? -1.0f : 1.0f;
  const float mant =
      1.0f + std::ldexp(static_cast<float>(mant_f), -mant_bits_);
  return sign * std::ldexp(mant, static_cast<int>(exp_f) - bias());
}

std::uint16_t FloatFormat::encode(float x) const {
  if (x == 0.0f || std::isnan(x)) return 0;
  const std::uint16_t sign = x < 0.0f ? 1u : 0u;
  const float a = std::fabs(x);
  const auto with_sign = [this, sign](std::uint16_t exp_f,
                                      std::uint16_t mant_f) {
    return static_cast<std::uint16_t>(
        (sign << (bits_ - 1)) | (exp_f << mant_bits_) | mant_f);
  };

  const int emax = ((1 << exp_bits_) - 1) - bias();
  const float vmin = value_min();
  if (a < vmin) {
    // Sub-minimum values round to 0 below the halfway point, else to vmin.
    if (a < 0.5f * vmin) return 0;
    return with_sign(1, 0);
  }
  if (a >= value_max()) {
    return with_sign(static_cast<std::uint16_t>((1 << exp_bits_) - 1),
                     static_cast<std::uint16_t>((1 << mant_bits_) - 1));
  }

  int exp_plus_1 = 0;
  const float frac = std::frexp(a, &exp_plus_1);
  int exp = exp_plus_1 - 1;
  auto q = static_cast<std::int64_t>(
      std::nearbyint(std::ldexp(2.0f * frac, mant_bits_)));
  if (q == (std::int64_t{1} << (mant_bits_ + 1))) {
    q >>= 1;
    ++exp;
  }
  if (exp > emax) {
    return with_sign(static_cast<std::uint16_t>((1 << exp_bits_) - 1),
                     static_cast<std::uint16_t>((1 << mant_bits_) - 1));
  }
  return with_sign(static_cast<std::uint16_t>(exp + bias()),
                   static_cast<std::uint16_t>(
                       q - (std::int64_t{1} << mant_bits_)));
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
