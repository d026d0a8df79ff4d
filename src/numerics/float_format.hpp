// Non-adaptive "IEEE-like float" comparison format.
//
// FloatFormat<n,e> follows IEEE 754 field semantics at reduced width with
// the usual hardware simplifications (the same ones the paper applies to
// AdaptivFloat): fixed bias 2^(e-1) - 1, *no denormals* — a zero exponent
// field means zero regardless of mantissa, as in flush-to-zero hardware
// floats — and no Inf/NaN; out-of-range values saturate. The only thing it
// lacks relative to AdaptivFloat is the per-tensor exponent bias.
//
// So it encodes with AdaptivFloat's formula (src/kernels/encode.hpp,
// kFloat): the fixed bias gives base = (127 - bias) << m, value_min is
// 2^(1 - bias), and a value below it rounds up to exponent field 1,
// magnitude code 1 << m, instead of AdaptivFloat's code 1. The formula
// needs a normal value_min, so the exponent field is at most 8 bits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernels/encode.hpp"
#include "src/numerics/quantizer.hpp"

namespace af {

/// Reduced-width IEEE-style float codec (flush-to-zero).
class FloatFormat {
 public:
  /// Requires 2 <= bits <= 16 and 1 <= exp_bits <= min(bits - 1, 8).
  FloatFormat(int bits, int exp_bits);

  int bits() const { return bits_; }
  int exp_bits() const { return exp_bits_; }
  int mant_bits() const { return mant_bits_; }
  /// IEEE bias: 2^(e-1) - 1.
  int bias() const { return (1 << (exp_bits_ - 1)) - 1; }

  /// Largest magnitude: 2^emax * (2 - 2^-m) with emax = (2^e - 1) - bias
  /// (the all-ones exponent encodes ordinary values, not Inf/NaN).
  float value_max() const;
  /// Smallest positive normal: 2^(1 - bias). There are no denormals.
  float value_min() const;

  float decode(std::uint16_t code) const;
  /// Nearest, ties-to-even mantissa. Non-finite inputs are well-defined:
  /// NaN encodes to the zero code, +/-Inf saturates to +/-value_max.
  std::uint16_t encode(float x) const { return float_encode_bits(view_, x); }
  float quantize(float x) const { return decode(encode(x)); }

  /// The encode entry's view of this format (KernelBackend::encode).
  const EncodeView* encode_view() const { return &view_; }

  /// All representable values sorted ascending (one zero entry).
  std::vector<float> representable_values() const;

  std::string to_string() const;

 private:
  int bits_;
  int exp_bits_;
  int mant_bits_;
  EncodeView view_;
};

/// Quantizer adapter for FloatFormat (non-adaptive).
class FloatQuantizer final : public Quantizer {
 public:
  FloatQuantizer(int bits, int exp_bits) : fmt_(bits, exp_bits) {}

  std::string name() const override { return "Float"; }
  int bits() const override { return fmt_.bits(); }
  bool self_adaptive() const override { return false; }
  void calibrate(const Tensor&) override {}  // fixed range by construction
  float quantize_value(float x) const override { return fmt_.quantize(x); }
  std::uint16_t encode(float x) const override { return fmt_.encode(x); }
  const EncodeView* encode_view() const override {
    return fmt_.encode_view();
  }
  float decode(std::uint16_t code) const override { return fmt_.decode(code); }
  float value_range() const override { return fmt_.value_max(); }

  const FloatFormat& format() const { return fmt_; }

 private:
  FloatFormat fmt_;
};

}  // namespace af
