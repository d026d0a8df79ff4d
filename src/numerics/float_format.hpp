// Non-adaptive "IEEE-like float" comparison format.
//
// FloatFormat<n,e> follows IEEE 754 field semantics at reduced width with
// the usual hardware simplifications (the same ones the paper applies to
// AdaptivFloat): fixed bias 2^(e-1) - 1, *no denormals* — a zero exponent
// field means zero regardless of mantissa, as in flush-to-zero hardware
// floats — and no Inf/NaN; out-of-range values saturate. The only thing it
// lacks relative to AdaptivFloat is the per-tensor exponent bias.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/numerics/quantizer.hpp"

namespace af {

/// Reduced-width IEEE-style float codec (flush-to-zero).
class FloatFormat {
 public:
  /// Requires 2 <= bits <= 16 and 1 <= exp_bits <= bits - 1.
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
  std::uint16_t encode(float x) const;
  float quantize(float x) const { return decode(encode(x)); }

  /// All representable values sorted ascending (one zero entry).
  std::vector<float> representable_values() const;

  std::string to_string() const;

 private:
  int bits_;
  int exp_bits_;
  int mant_bits_;
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
  float decode(std::uint16_t code) const override { return fmt_.decode(code); }
  float value_range() const override { return fmt_.value_max(); }
  std::vector<float> representable_values() const override {
    return fmt_.representable_values();  // decode never emits -0 (FTZ -> +0)
  }

  const FloatFormat& format() const { return fmt_; }

 private:
  FloatFormat fmt_;
};

}  // namespace af
