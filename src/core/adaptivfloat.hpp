// The AdaptivFloat number format (Tambe et al., DAC 2020, Section 3.1).
//
// AdaptivFloat<n,e> is a sign/exponent/mantissa format like IEEE 754 with
// three deliberate deviations that simplify hardware:
//   1. no denormal values — every nonzero value has an implied leading 1;
//   2. the all-zero exponent+mantissa bit pattern means exact 0, sacrificing
//      the +/- minimum normal values (paper Figure 2);
//   3. no infinities or NaNs — quantization clamps into range instead.
// A per-tensor integer exponent bias `exp_bias` shifts the whole
// representable range so it brackets the tensor being encoded; selecting
// that bias is Algorithm 1 (see algorithm1.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernels/encode.hpp"

namespace af {

/// A concrete AdaptivFloat format: total width, exponent width and the
/// per-tensor exponent bias. Codes are the low `bits()` bits of a uint16_t,
/// laid out [ sign | exponent | mantissa ] from MSB to LSB.
class AdaptivFloatFormat {
 public:
  /// Constructs AdaptivFloat<bits, exp_bits> with the given exponent bias.
  /// Requires 2 <= bits <= 16, 0 <= exp_bits <= bits - 1 (one bit is the
  /// sign; mantissa gets the rest).
  AdaptivFloatFormat(int bits, int exp_bits, int exp_bias);

  int bits() const { return bits_; }
  int exp_bits() const { return exp_bits_; }
  int mant_bits() const { return mant_bits_; }
  int exp_bias() const { return exp_bias_; }

  /// Largest unbiased exponent: exp_bias + 2^e - 1.
  int exp_max() const { return exp_bias_ + (1 << exp_bits_) - 1; }

  /// Smallest positive representable magnitude after the zero rule:
  /// 2^exp_bias * (1 + 2^-m)   (paper Algorithm 1, value_min).
  float value_min() const { return value_min_; }

  /// Largest representable magnitude: 2^exp_max * (2 - 2^-m).
  float value_max() const { return value_max_; }

  /// Number of distinct bit patterns (2^bits).
  int num_codes() const { return 1 << bits_; }

  // ----- codec -------------------------------------------------------------

  /// Decodes an n-bit code. Codes with exponent==0 and mantissa==0 decode to
  /// 0 regardless of sign (the +/-0 slots of Figure 2).
  float decode(std::uint16_t code) const;

  /// Encodes by rounding to the nearest representable value
  /// (ties-to-even mantissa), with sub-value_min rounding to 0 or value_min
  /// at the halfway point and clamping at +/-value_max. Non-finite inputs
  /// are well-defined (the format has no NaN/Inf slots to pass them
  /// through): NaN encodes to the zero code, +/-Inf saturates to
  /// +/-value_max.
  std::uint16_t encode(float x) const;

  /// The encode entry's view of this format (KernelBackend::encode, the
  /// kFloat formula), or nullptr where that formula does not apply —
  /// exp_bias + 127 < 1 or a subnormal value_min — and encode() stays the
  /// only path.
  const EncodeView* encode_view() const {
    return has_view_ ? &view_ : nullptr;
  }

  /// decode(encode(x)) — the quantization function the paper applies to
  /// tensors.
  float quantize(float x) const;

  /// All representable values, sorted ascending, including one 0 entry
  /// (2^bits - 1 distinct values since +0 and -0 coincide).
  std::vector<float> representable_values() const;

  /// "AdaptivFloat<8,3> bias=-6"
  std::string to_string() const;

  bool operator==(const AdaptivFloatFormat& o) const {
    return bits_ == o.bits_ && exp_bits_ == o.exp_bits_ &&
           exp_bias_ == o.exp_bias_;
  }

  // ----- field helpers used by the HFINT hardware model ---------------------
  std::uint16_t sign_of(std::uint16_t code) const {
    return static_cast<std::uint16_t>((code >> (bits_ - 1)) & 1u);
  }
  std::uint16_t exp_field(std::uint16_t code) const {
    return static_cast<std::uint16_t>((code >> mant_bits_) &
                                      ((1u << exp_bits_) - 1u));
  }
  std::uint16_t mant_field(std::uint16_t code) const {
    return static_cast<std::uint16_t>(code & ((1u << mant_bits_) - 1u));
  }
  /// True iff the code is the canonical zero pattern (exp==0 && mant==0).
  bool is_zero_code(std::uint16_t code) const {
    return exp_field(code) == 0 && mant_field(code) == 0;
  }
  std::uint16_t make_code(std::uint16_t sign, std::uint16_t exp,
                          std::uint16_t mant) const;

 private:
  int bits_;
  int exp_bits_;
  int mant_bits_;
  int exp_bias_;
  // Derived once in the constructor: encode() reads them per element.
  float value_min_;
  float value_max_;
  float mant_scale_;  // 2^mant_bits
  EncodeView view_{};
  bool has_view_ = false;
};

}  // namespace af
