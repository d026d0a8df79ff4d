// Uniform (integer) quantization — the TensorRT-style baseline.
//
// Symmetric linear quantization with a full-precision scale factor:
//   scale = max|x| / (2^(n-1) - 1),  q = clamp(round(x / scale)) * scale.
// This is the "Uniform" column of the paper's tables and the arithmetic of
// the NVDLA-like integer PE in Section 5.1.
#pragma once

#include <string>

#include "src/numerics/quantizer.hpp"

namespace af {

/// Self-adaptive symmetric uniform quantizer over n-bit signed integers.
class UniformQuantizer final : public LevelQuantizer {
 public:
  explicit UniformQuantizer(int bits) : LevelQuantizer(bits) {}

  std::string name() const override { return "Uniform"; }

  /// Scale chosen by the last calibration (0 for an all-zero tensor).
  float scale() const { return step(); }

 private:
  float step_for(float max_abs) const override {
    return max_abs / static_cast<float>(level_max());
  }
};

}  // namespace af
