// The common interface every number format under evaluation implements.
//
// The paper compares five encodings at equal bit width: AdaptivFloat,
// IEEE-like float, posit, block floating-point, and uniform (integer).
// Three of them ("self-adaptive": AdaptivFloat, BFP, uniform) have
// per-tensor parameters derived from the tensor's statistics; calibrate()
// sets those. Float and posit are non-adaptive: calibrate() is a no-op.
//
// Each quantizer is also its format's bit-level codec: encode() gives the
// n-bit storage code of quantize_value(x), decode() reads any code back,
// corrupted ones included. The fake-quant tables and the bit-flip sweeps
// (src/resilience/codec.*) therefore measure one rounding per format.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/kernels/nearest_lut.hpp"
#include "src/tensor/tensor.hpp"

namespace af {

/// Abstract fake-quantizer: maps FP32 values onto the representable set of
/// a low-precision format (carried in FP32, exactly like the paper's PyTorch
/// templates).
class Quantizer {
 public:
  virtual ~Quantizer() = default;

  /// Human-readable format name ("AdaptivFloat", "Posit", ...).
  virtual std::string name() const = 0;

  /// Total encoding width in bits.
  virtual int bits() const = 0;

  /// True when the format derives per-tensor parameters in calibrate().
  virtual bool self_adaptive() const = 0;

  /// Derives per-tensor parameters (scale / shared exponent / exp_bias)
  /// from the data. No-op for non-adaptive formats.
  virtual void calibrate(const Tensor& t) = 0;

  /// Calibrates from a max-abs statistic alone — how activation ranges are
  /// set from offline batch statistics in the paper's accelerator (Sec. 5.2).
  /// No-op for non-adaptive formats.
  virtual void calibrate_max_abs(float max_abs) { (void)max_abs; }

  /// Quantizes a single value to the nearest representable datapoint.
  /// Non-finite inputs are defined deterministically for every format:
  /// NaN maps to 0, +/-Inf saturates to +/-value_range().
  virtual float quantize_value(float x) const = 0;

  /// The n-bit storage code of quantize_value(x) under the current
  /// calibration: decode(encode(x)) == quantize_value(x) for every float
  /// (the level formats' -0.0f comes back as +0.0f).
  virtual std::uint16_t encode(float x) const = 0;

  /// The encode entry's view (KernelBackend::adaptivfloat_encode) of the
  /// current calibration, when one computes encode(): AdaptivFloat formats
  /// the entry covers; nullptr (the default) for every other format.
  virtual const AfEncodeView* encode_view() const { return nullptr; }

  /// Raw decode of any n-bit code, a corrupted one included — exactly what
  /// an unprotected datapath would emit, huge outliers and all (posit NaR
  /// decodes to NaN).
  virtual float decode(std::uint16_t code) const = 0;

  /// Largest magnitude the format can emit after the last calibration
  /// (value_max / maxpos / level_max * scale). Infinity until a
  /// self-adaptive format is first calibrated only if the format has no
  /// intrinsic bound; every implementation here returns a finite value.
  virtual float value_range() const = 0;

  /// The exact output set of quantize_value under the current calibration,
  /// in ascending order. Formats whose scalar path can emit a signed zero
  /// (the level formats round tiny negatives to -0.0f) list -0.0f as its
  /// own entry right before +0.0f. An empty result (the default) disables
  /// the table-driven quantize fast path.
  virtual std::vector<float> representable_values() const { return {}; }

  /// Elementwise tensor quantization. For bulk tensors of a format that
  /// publishes representable_values(), rounding runs through a cached
  /// NearestLut built *outside* the parallel region from quantize_value
  /// itself — bit-identical to the scalar path, without the per-element
  /// O(log V) search. Small tensors keep the scalar path (the table build
  /// would dominate); the results are identical either way.
  virtual Tensor quantize(const Tensor& t) const;

  /// calibrate(t) followed by quantize(t) — the per-layer flow of the paper.
  Tensor calibrate_and_quantize(const Tensor& t) {
    calibrate(t);
    return quantize(t);
  }

  /// True once the cached rounding table is live (test/bench seam).
  bool lut_quantize_active() const {
    return round_lut_state_ == RoundLutState::kBuilt;
  }

 protected:
  /// Subclasses call this from calibrate()/calibrate_max_abs(): the cached
  /// rounding table depends on the calibration parameters.
  void invalidate_round_lut() {
    round_lut_.reset();
    round_lut_state_ = RoundLutState::kUndecided;
  }

 private:
  /// The cached table, built lazily on the first bulk quantize after a
  /// calibration (nullptr when the scalar path should run). Not
  /// thread-safe against concurrent quantize() of the *same* quantizer —
  /// the same pre-existing constraint as calibrate(); quantize() is never
  /// called from inside a parallel body.
  const NearestLut* round_lut(std::int64_t numel) const;

  enum class RoundLutState { kUndecided, kBuilt, kUnavailable };
  mutable RoundLutState round_lut_state_ = RoundLutState::kUndecided;
  mutable std::shared_ptr<const NearestLut> round_lut_;
};

/// Shared base of the two's-complement level formats, Uniform (full-
/// precision scale) and BFP (power-of-two step): a value is a signed level
/// q in [-level_max, level_max] times the calibrated step, and its code is
/// q's n-bit two's complement. Subclasses supply only the step rule.
class LevelQuantizer : public Quantizer {
 public:
  int bits() const override { return bits_; }
  bool self_adaptive() const override { return true; }
  void calibrate(const Tensor& t) override { calibrate_max_abs(t.max_abs()); }
  void calibrate_max_abs(float max_abs) override;
  float quantize_value(float x) const override;
  std::uint16_t encode(float x) const override;
  float decode(std::uint16_t code) const override;
  float value_range() const override {
    return step_ * static_cast<float>(level_max_);
  }
  std::vector<float> representable_values() const override;

  /// Largest level: 2^(n-1) - 1.
  int level_max() const { return level_max_; }

 protected:
  explicit LevelQuantizer(int bits);

  /// Step for a nonzero max-abs (an all-zero tensor gets step 0, and every
  /// value then quantizes to 0).
  virtual float step_for(float max_abs) const = 0;

  float step_ = 0.0f;  // 0 until calibrated

 private:
  /// round(x / step) clamped to +/-level_max, in the double domain: casting
  /// an infinite or huge quotient straight to an integer is UB.
  double level_of(float x) const;

  int bits_;
  int level_max_;
};

}  // namespace af
