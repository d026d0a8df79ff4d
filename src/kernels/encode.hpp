// One closed-form encoder per format (DESIGN.md §12.6).
//
// Every format of the evaluation rounds x to its nearest code by
// arithmetic on x's bits, without a search or a table of boundaries:
//
//  * kFloat — AdaptivFloat and Float. Round-to-nearest-even of the
//    mantissa is one integer add on |x|'s bit pattern; the exponent field
//    is the float's own minus a per-format offset.
//  * kLevel — Uniform and BFP. nearbyint(x / step) in double, clamped to
//    the level range, as a two's-complement code.
//  * kPosit — the code truncated from x's exponent and mantissa, or the
//    next one up, whichever value is nearer in float distance.
//
// An EncodeView carries one calibrated format's parameters. The inline
// functions here are each format's scalar encode, and the value of each
// code (what quantize_value gives); KernelBackend::encode loops them
// (scalar backend) or runs them in 8 lanes (AVX2), with the same codes and
// values on every float.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace af {

enum class EncodeKind : std::uint8_t { kFloat, kLevel, kPosit };

/// One calibrated format's encode parameters. Only the fields of `kind`
/// are read.
struct EncodeView {
  EncodeKind kind = EncodeKind::kFloat;
  int bits = 0;  ///< code width, 2..16

  // kFloat: requires a normal value_min.
  int mant_bits = 0;           ///< m, 0..15
  std::uint32_t base = 0;      ///< float exponent field of code exponent 0, << m
  std::uint32_t min_mag = 0;   ///< magnitude code of value_min
  std::uint32_t half_vmin = 0; ///< bit pattern of 0.5f * value_min
  std::uint32_t vmin = 0;      ///< bit pattern of value_min
  std::uint32_t vmax = 0;      ///< bit pattern of value_max (may be +inf)

  // kLevel.
  float step = 0.0f;  ///< value of level 1; 0 encodes everything to 0

  // kPosit.
  int es = 0;                   ///< exponent bits, 0..4
  const float* values = nullptr;  ///< [2^(bits-1)]: value of code c >= 0
  std::uint32_t top_code = 0;   ///< first code whose value is the largest
};

inline std::uint32_t float_bits(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

inline float bits_float(std::uint32_t u) {
  float x = 0.0f;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}

/// kFloat: the mantissa of |x|'s bit pattern a rounds to m bits, ties to
/// even, as r = a + 2^(22-m) - 1 + lsb with lsb the kept mantissa's last
/// bit (at m = 0 always 1: the rounded q is 1 or 2 and ties go to 2); a
/// carry runs into the exponent field by itself. The magnitude code is
/// (r >> (23 - m)) - base, clamped to 2^(bits-1) - 1. +-0 and NaN give
/// code 0, |x| < value_min gives 0 or min_mag by the half-value_min
/// threshold, |x| >= value_max the max code.
inline std::uint16_t float_encode_bits(const EncodeView& f, float x) {
  const std::uint32_t u = float_bits(x);
  const std::uint32_t a = u & 0x7fffffffu;
  const std::uint32_t max_mag = (1u << (f.bits - 1)) - 1u;
  std::uint32_t mag;
  if (a > 0x7f800000u || a < f.half_vmin) return 0;  // NaN, +-0, tiny
  if (a < f.vmin) {
    mag = f.min_mag;
  } else if (a >= f.vmax) {
    mag = max_mag;
  } else {
    const int shift = 23 - f.mant_bits;
    const std::uint32_t lsb = f.mant_bits == 0 ? 1u : (a >> shift) & 1u;
    const std::uint32_t r = a + ((1u << (shift - 1)) - 1u) + lsb;
    mag = std::min((r >> shift) - f.base, max_mag);
  }
  return static_cast<std::uint16_t>(((u >> 31) << (f.bits - 1)) | mag);
}

/// kLevel: round(x / step) in double, clamped to +-(2^(bits-1) - 1) before
/// any integer cast (casting an infinite or huge quotient is UB). NaN and
/// step 0 give code 0.
inline std::uint16_t level_encode_bits(const EncodeView& f, float x) {
  if (f.step == 0.0f || std::isnan(x)) return 0;
  const double level_max = (1 << (f.bits - 1)) - 1;
  const double q =
      std::clamp(std::nearbyint(static_cast<double>(x) / f.step), -level_max,
                 level_max);
  const std::uint32_t mask = (1u << f.bits) - 1u;
  return static_cast<std::uint16_t>(
      static_cast<std::uint32_t>(static_cast<std::int32_t>(q)) & mask);
}

/// kPosit helper: the largest code whose exact posit value is at most the
/// positive float with bit pattern a, for minpos < a < maxpos. The posit
/// bits of a are its regime (k + 1 ones and a zero for k >= 0, -k zeros
/// and a one below), es exponent bits and the fraction; truncating them to
/// bits - 1 rounds toward zero, because posit codes order as their values.
/// Only the top 13 fraction bits can reach a code (the regime takes at
/// least 2 bits), so the whole pattern fits 32 bits.
inline std::uint32_t posit_truncated_code(const EncodeView& f,
                                          std::uint32_t a) {
  int scale_bias = 127;
  if (a < 0x00800000u) {  // subnormal: scaled by 2^32, exactly
    a = float_bits(bits_float(a) * 0x1p32f);
    scale_bias += 32;
  }
  const int scale = static_cast<int>(a >> 23) - scale_bias;
  const int k = scale >> f.es;  // floor(scale / 2^es)
  const std::uint32_t e = static_cast<std::uint32_t>(scale) &
                          ((1u << f.es) - 1u);
  const int regime_len = k >= 0 ? k + 2 : 1 - k;
  const std::uint32_t regime = k >= 0 ? (1u << (k + 2)) - 2u : 1u;
  const std::uint32_t tail = (e << 13) | ((a & 0x7fffffu) >> 10);
  const std::uint32_t full = (regime << (f.es + 13)) | tail;
  return full >> (regime_len + f.es + 13 - (f.bits - 1));
}

/// kPosit: NaN and +-0 give code 0; a nonzero |x| saturates at the first
/// code (|x| <= its value) and at top_code (|x| >= the largest value).
/// Between them |x| lies in [value(c), value(c + 1)) for the truncated
/// code c, and the nearer of the two wins in float distance; an exact tie
/// takes the even code. Where FP32 saturation gives several codes one
/// value, the first of them is the code: top_code at the top and code 1 at
/// the bottom. Negative x gives the two's complement.
inline std::uint16_t posit_encode_bits(const EncodeView& f, float x) {
  const std::uint32_t u = float_bits(x);
  const std::uint32_t a = u & 0x7fffffffu;
  if (a == 0 || a > 0x7f800000u) return 0;
  const std::uint32_t top = (1u << (f.bits - 1)) - 1u;
  const float lo = f.values[1];
  std::uint32_t mag;
  if (a <= float_bits(lo)) {
    mag = 1;
  } else if (a >= float_bits(f.values[top])) {
    mag = f.top_code;
  } else {
    const std::uint32_t c = posit_truncated_code(f, a);
    const float ax = bits_float(a);
    const float vl = f.values[c];
    const float dl = ax - vl;
    const float dh = f.values[c + 1] - ax;
    const std::uint32_t cl = vl == lo ? 1u : c;
    mag = (dl < dh) | ((dl == dh) & ((cl & 1u) == 0)) ? cl : c + 1;
  }
  const std::uint32_t mask = (1u << f.bits) - 1u;
  return static_cast<std::uint16_t>(((u >> 31) ? 0u - mag : mag) & mask);
}

// The value each format's quantize_value gives x, from x's code c: the
// value c decodes to, except that a level format keeps a negative x's sign
// at level 0 (round(x / step) is -0.0 there, and so is level * step).

/// kFloat: magnitudes below min_mag are 0 (AdaptivFloat's zero code,
/// Float's flushed exponent field 0); any other is the float whose
/// exponent and mantissa fields are mag + base, +inf once that passes the
/// float range (as ldexp gives).
inline float float_value_of(const EncodeView& f, float, std::uint16_t c) {
  const std::uint32_t mag = c & ((1u << (f.bits - 1)) - 1u);
  const std::uint32_t field = mag + f.base;
  const std::uint32_t a = field >= (255u << f.mant_bits)
                              ? 0x7f800000u
                              : field << (23 - f.mant_bits);
  const std::uint32_t sign = static_cast<std::uint32_t>(c >> (f.bits - 1))
                             << 31;
  return bits_float(mag < f.min_mag ? 0u : sign | a);
}

/// kLevel: the sign-extended level times the step.
inline float level_value_of(const EncodeView& f, float x, std::uint16_t c) {
  const int unused = 32 - f.bits;
  const auto level =
      static_cast<std::int32_t>(static_cast<std::uint32_t>(c) << unused) >>
      unused;
  const float v = static_cast<float>(level) * f.step;
  return level == 0 && x < 0.0f && f.step != 0.0f ? -0.0f : v;
}

/// kPosit: the value table, negated for negative codes (posit decode is
/// antisymmetric).
inline float posit_value_of(const EncodeView& f, float, std::uint16_t c) {
  const std::uint32_t negative = c >> (f.bits - 1);
  const float v = f.values[negative ? (0u - c) & ((1u << f.bits) - 1u) : c];
  return negative ? -v : v;
}

/// The scalar forms of one kind over [begin, end): codes[i] = Encode(f,
/// x[i]) and values[i] = ValueOf(f, x[i], codes[i]), each output skipped
/// when null.
template <std::uint16_t (*Encode)(const EncodeView&, float),
          float (*ValueOf)(const EncodeView&, float, std::uint16_t)>
void encode_range_of(const EncodeView& f, const float* x, std::uint16_t* codes,
                     float* values, std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    const std::uint16_t c = Encode(f, x[i]);
    if (codes != nullptr) codes[i] = c;
    if (values != nullptr) values[i] = ValueOf(f, x[i], c);
  }
}

/// The scalar forms of f's format over [begin, end), the kind chosen once:
/// the scalar backend's encode entry, and the AVX2 entry's tails.
inline void encode_range(const EncodeView& f, const float* x,
                         std::uint16_t* codes, float* values,
                         std::int64_t begin, std::int64_t end) {
  switch (f.kind) {
    case EncodeKind::kFloat:
      return encode_range_of<float_encode_bits, float_value_of>(
          f, x, codes, values, begin, end);
    case EncodeKind::kLevel:
      return encode_range_of<level_encode_bits, level_value_of>(
          f, x, codes, values, begin, end);
    case EncodeKind::kPosit:
      return encode_range_of<posit_encode_bits, posit_value_of>(
          f, x, codes, values, begin, end);
  }
}

}  // namespace af
