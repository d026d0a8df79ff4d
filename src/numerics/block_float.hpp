// Block floating-point (BFP) comparison format.
//
// BFP collapses the exponent of every element in a block (here: the whole
// tensor, matching the paper's per-layer granularity) to the exponent of
// the largest-magnitude element; each element keeps only a sign and an
// (n-1)-bit mantissa scaled by the shared exponent. Cheap like fixed-point,
// but small-magnitude elements lose precision — the failure mode the paper
// highlights on wide weight distributions.
#pragma once

#include <cmath>
#include <string>

#include "src/numerics/quantizer.hpp"

namespace af {

/// Self-adaptive BFP<n> quantizer: shared exponent from max-abs, symmetric
/// (n-1)-bit signed mantissas.
class BlockFloatQuantizer final : public LevelQuantizer {
 public:
  explicit BlockFloatQuantizer(int bits) : LevelQuantizer(bits) {}

  std::string name() const override { return "BFP"; }

  /// Shared (unbiased) exponent chosen by the last calibration (0 for an
  /// all-zero block); step() is 2^(shared_exp - (n - 2)).
  int shared_exp() const {
    return step() == 0.0f ? 0 : std::ilogb(step()) + (bits() - 2);
  }

 private:
  float step_for(float max_abs) const override {
    // 2^shared_exp <= max_abs < 2^(shared_exp + 1): the max element maps
    // near the top of the mantissa range, max_abs / step < 2^(n-1).
    int e = 0;
    (void)std::frexp(max_abs, &e);
    return std::ldexp(1.0f, (e - 1) - (bits() - 2));
  }
};

}  // namespace af
