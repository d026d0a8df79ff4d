// Posit arithmetic (Gustafson & Yonemoto, 2017) as a comparison format.
//
// Posit<n,es> packs sign, a variable-length unary regime, up to `es`
// exponent bits, and fraction bits. The tapered accuracy profile gives it
// a wide dynamic range with fine precision near 1.0, which is why the paper
// includes it among the floating-point-inspired contenders.
//
// PositFormat decodes every bit pattern exactly (in double). PositQuantizer
// is the format's one rounding and one codec: quantization follows posit
// semantics — nonzero inputs never round to zero (they saturate at
// +/-minpos) and overflow saturates at +/-maxpos; NaR is never produced —
// and encode() emits the code of that rounded value.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/numerics/quantizer.hpp"

namespace af {

/// Posit<n,es> codec, n in [2,16].
class PositFormat {
 public:
  PositFormat(int bits, int es);

  int bits() const { return bits_; }
  int es() const { return es_; }
  /// useed = 2^(2^es).
  double useed() const { return std::ldexp(1.0, 1 << es_); }

  /// Decodes a code. Returns NaN for the NaR pattern (1 0...0).
  double decode(std::uint16_t code) const;

  /// Smallest / largest positive representable magnitudes.
  double minpos() const;
  double maxpos() const;

  std::string to_string() const;

 private:
  int bits_;
  int es_;
};

/// Quantizer and codec for Posit<n,es> (non-adaptive). Its grid is the
/// FP32 image of the saturating decode(), so wide-es formats whose maxpos
/// exceeds FP32 stay finite. Non-finite inputs are well-defined: NaN maps
/// to 0 (NaR is never produced), +/-Inf saturates to +/-value_range().
/// encode() is the kPosit closed form (src/kernels/encode.hpp) over the
/// table of non-negative code values built at construction.
class PositQuantizer final : public Quantizer {
 public:
  PositQuantizer(int bits, int es);

  std::string name() const override { return "Posit"; }
  int bits() const override { return fmt_.bits(); }
  bool self_adaptive() const override { return false; }
  void calibrate(const Tensor&) override {}
  float quantize_value(float x) const override { return decode(encode(x)); }
  std::uint16_t encode(float x) const override {
    return posit_encode_bits(view_, x);
  }
  const EncodeView* encode_view() const override { return &view_; }
  /// PositFormat::decode narrowed to FP32, saturating: a nonzero posit
  /// never decodes to 0 or +/-Inf (magnitudes clamp into
  /// [denorm_min, FLT_MAX]); NaR decodes to NaN.
  float decode(std::uint16_t code) const override;
  float value_range() const override { return values_.back(); }

  /// The distinct values quantize_value emits, ascending: one zero and
  /// the positives mirrored.
  std::vector<float> representable_values() const;

  const PositFormat& format() const { return fmt_; }

 private:
  PositFormat fmt_;
  // decode(c) for every non-negative code c < 2^(n-1), ascending (positive
  // codes are monotone in value; FP32 saturation can give neighbouring
  // codes one value).
  std::vector<float> values_;
  EncodeView view_;
};

}  // namespace af
