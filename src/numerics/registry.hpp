// Factory tying the five formats of the paper's evaluation together.
//
// Exponent-field defaults follow Section 4 of the paper: 3 exponent bits
// for AdaptivFloat, 4 for Float (3 when the word is 4 bits), es=1 for posit
// (es=0 at 4 bits); BFP and Uniform have no exponent parameter.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/core/adaptivfloat.hpp"
#include "src/core/algorithm1.hpp"
#include "src/numerics/quantizer.hpp"

namespace af {

/// The five encodings of the paper's evaluation, in table order.
enum class FormatKind { kFloat, kBlockFloat, kUniform, kPosit, kAdaptivFloat };

/// "Float", "BFP", "Uniform", "Posit", "AdaptivFloat".
std::string format_kind_name(FormatKind kind);

/// All five kinds in the order the paper's tables list them.
const std::vector<FormatKind>& all_format_kinds();

/// Per-format knobs; negative exponent fields mean "use the paper default".
struct QuantizerOptions {
  int exp_bits = -1;  ///< AdaptivFloat / Float exponent width, posit es
};

/// Creates a quantizer of the given kind and width.
std::unique_ptr<Quantizer> make_quantizer(FormatKind kind, int bits,
                                          QuantizerOptions opts = {});

/// Quantizer adapter for the paper's own format (self-adaptive: Algorithm 1
/// re-derives exp_bias at every calibration).
class AdaptivFloatQuantizer final : public Quantizer {
 public:
  AdaptivFloatQuantizer(int bits, int exp_bits);

  std::string name() const override { return "AdaptivFloat"; }
  int bits() const override { return bits_; }
  bool self_adaptive() const override { return true; }
  void calibrate(const Tensor& t) override;
  void calibrate_max_abs(float max_abs) override;
  float quantize_value(float x) const override { return fmt_.quantize(x); }
  std::uint16_t encode(float x) const override { return fmt_.encode(x); }
  const EncodeView* encode_view() const override {
    return fmt_.encode_view();
  }
  float decode(std::uint16_t code) const override { return fmt_.decode(code); }
  float value_range() const override { return fmt_.value_max(); }

  /// Format chosen by the last calibration.
  const AdaptivFloatFormat& format() const { return fmt_; }
  int exp_bits() const { return exp_bits_; }

 private:
  int bits_;
  int exp_bits_;
  AdaptivFloatFormat fmt_;
};

}  // namespace af
