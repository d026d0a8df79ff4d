#include "src/numerics/registry.hpp"

#include "src/numerics/block_float.hpp"
#include "src/numerics/float_format.hpp"
#include "src/numerics/posit.hpp"
#include "src/numerics/uniform.hpp"
#include "src/util/check.hpp"

namespace af {

std::string format_kind_name(FormatKind kind) {
  switch (kind) {
    case FormatKind::kFloat: return "Float";
    case FormatKind::kBlockFloat: return "BFP";
    case FormatKind::kUniform: return "Uniform";
    case FormatKind::kPosit: return "Posit";
    case FormatKind::kAdaptivFloat: return "AdaptivFloat";
  }
  fail("unknown FormatKind");
}

const std::vector<FormatKind>& all_format_kinds() {
  static const std::vector<FormatKind> kinds = {
      FormatKind::kFloat, FormatKind::kBlockFloat, FormatKind::kUniform,
      FormatKind::kPosit, FormatKind::kAdaptivFloat};
  return kinds;
}

std::unique_ptr<Quantizer> make_quantizer(FormatKind kind, int bits,
                                          QuantizerOptions opts) {
  switch (kind) {
    case FormatKind::kFloat: {
      // Paper: 4 exponent bits, 3 when the word size is 4 bits. Clamped so
      // sub-4-bit widths stay constructible (e <= bits - 1).
      int e = opts.exp_bits >= 0 ? opts.exp_bits : (bits <= 4 ? 3 : 4);
      if (e > bits - 1) e = bits - 1;
      return std::make_unique<FloatQuantizer>(bits, e);
    }
    case FormatKind::kBlockFloat:
      return std::make_unique<BlockFloatQuantizer>(bits);
    case FormatKind::kUniform:
      return std::make_unique<UniformQuantizer>(bits);
    case FormatKind::kPosit: {
      // Paper: es=1, es=0 when the word size is 4 bits.
      int es = opts.exp_bits >= 0 ? opts.exp_bits : (bits <= 4 ? 0 : 1);
      return std::make_unique<PositQuantizer>(bits, es);
    }
    case FormatKind::kAdaptivFloat: {
      // Paper: 3 exponent bits across all word sizes.
      int e = opts.exp_bits >= 0 ? opts.exp_bits : 3;
      if (e > bits - 1) e = bits - 1;
      return std::make_unique<AdaptivFloatQuantizer>(bits, e);
    }
  }
  fail("unknown FormatKind");
}

AdaptivFloatQuantizer::AdaptivFloatQuantizer(int bits, int exp_bits)
    : bits_(bits),
      exp_bits_(exp_bits),
      fmt_(format_for_max_abs(1.0f, bits, exp_bits)) {}

void AdaptivFloatQuantizer::calibrate(const Tensor& t) {
  fmt_ = format_for_tensor(t, bits_, exp_bits_);
}

void AdaptivFloatQuantizer::calibrate_max_abs(float max_abs) {
  fmt_ = format_for_max_abs(max_abs, bits_, exp_bits_);
}

}  // namespace af
