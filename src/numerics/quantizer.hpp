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
// Each format has one encoder, a closed form on x's bits
// (src/kernels/encode.hpp); encode_view() hands its parameters to the
// backend's batched encode, which bulk quantize() and every bulk encode
// run. A quantizer holds no cache, so quantize() may run on one quantizer
// from any number of threads at once.
#pragma once

#include <cstdint>
#include <string>

#include "src/kernels/encode.hpp"
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

  /// The encode entry's view (KernelBackend::encode) of the current
  /// calibration, which computes encode(). nullptr only for an AdaptivFloat
  /// calibration outside the kFloat formula; encode() then runs alone.
  virtual const EncodeView* encode_view() const = 0;

  /// Raw decode of any n-bit code, a corrupted one included — exactly what
  /// an unprotected datapath would emit, huge outliers and all (posit NaR
  /// decodes to NaN).
  virtual float decode(std::uint16_t code) const = 0;

  /// Largest magnitude the format can emit after the last calibration
  /// (value_max / maxpos / level_max * scale). Infinity until a
  /// self-adaptive format is first calibrated only if the format has no
  /// intrinsic bound; every implementation here returns a finite value.
  virtual float value_range() const = 0;

  /// Elementwise tensor quantization, decode(encode(x)) per element: the
  /// codes come from the active backend's encode entry. Bit-identical to
  /// quantize_value, the level formats' -0.0f included, on every backend
  /// and thread count.
  Tensor quantize(const Tensor& t) const;

  /// calibrate(t) followed by quantize(t) — the per-layer flow of the paper.
  Tensor calibrate_and_quantize(const Tensor& t) {
    calibrate(t);
    return quantize(t);
  }
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
  std::uint16_t encode(float x) const override {
    return level_encode_bits(view_, x);
  }
  const EncodeView* encode_view() const override { return &view_; }
  float decode(std::uint16_t code) const override;
  float value_range() const override {
    return step() * static_cast<float>(level_max_);
  }

  /// Largest level: 2^(n-1) - 1.
  int level_max() const { return level_max_; }

  /// Value of level 1 after the last calibration (0 until calibrated, and
  /// for an all-zero tensor).
  float step() const { return view_.step; }

 protected:
  explicit LevelQuantizer(int bits);

  /// Step for a nonzero max-abs (an all-zero tensor gets step 0, and every
  /// value then quantizes to 0).
  virtual float step_for(float max_abs) const = 0;

 private:
  EncodeView view_;  // kLevel
  int bits_;
  int level_max_;
};

}  // namespace af
