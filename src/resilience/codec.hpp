// Bit-level codecs for all five evaluation formats.
//
// A fault-injection study flips bits of *stored codes*, and what a flip
// costs depends on how the format assigns meaning to bits. Every Quantizer
// (src/numerics) already is its format's codec — encode() emits the code of
// quantize_value(x), decode() reads any code back — so a FormatCodec is one
// calibrated quantizer plus the state a sweep needs on top of it:
//   * the hardened clamp window, one rule for every format:
//     min(|decode(encode(max_abs))|, value_range()) — no clean weight with
//     |w| <= max_abs decodes outside it, so clamping there is transparent
//     on uncorrupted data;
//   * the raw and hardened code -> FP32 tables, built in the constructor.
// What a flip can do then follows from each format's code layout:
//   * AdaptivFloat — codes bracketed by the calibrated exp_bias, so any
//     flip lands within +/-value_max;
//   * Float — IEEE-like fields with fixed bias (an exponent-MSB flip can
//     scale a weight by 2^8);
//   * Posit — two's-complement ring with regime bits (a sign-adjacent flip
//     can jump to maxpos);
//   * Uniform / BFP — two's-complement integer levels (flips bounded by
//     ~2x the calibrated range).
// decode() is the raw hardware behaviour; decode_hardened() is the
// protected path that saturates into the clamp window and maps NaN (posit
// NaR) to 0. A FormatCodec is immutable after construction, so one codec
// may be shared across threads.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/kernels/decode_lut.hpp"
#include "src/numerics/registry.hpp"
#include "src/tensor/tensor.hpp"

namespace af {

/// Encode/decode between FP32 values and n-bit storage codes for one
/// calibrated format instance.
class FormatCodec {
 public:
  /// Wraps `q`, already calibrated for data whose max-abs is `max_abs`
  /// (make_codec does both).
  FormatCodec(std::unique_ptr<Quantizer> q, float max_abs);

  std::string name() const { return q_->name(); }
  int bits() const { return q_->bits(); }

  /// Nearest-representable encoding: the code of q.quantize_value(x).
  std::uint16_t encode(float x) const { return q_->encode(x); }

  /// Raw decode of an arbitrary (possibly corrupted) code — exactly what
  /// an unprotected datapath would emit, huge outliers and all.
  float decode(std::uint16_t code) const { return q_->decode(code); }

  /// The encode entry's view of this codec's encode, for batched encodes
  /// through a backend's encode; nullptr only for an AdaptivFloat
  /// calibration outside the entry's formula.
  const EncodeView* encode_view() const { return q_->encode_view(); }

  /// Calibrated clamp window of the hardened path.
  float range() const { return range_; }

  /// Hardened decode: decode(), then saturate into [-range, range] and map
  /// NaN to 0. A corrupted code can still be *wrong*, but never explosive.
  float decode_hardened(std::uint16_t code) const;

  /// Elementwise helpers for whole tensors: decode_tensor through the
  /// decode table (2^bits entries amortize over any sweep payload),
  /// encode_tensor through the active backend's encode entry. Results are
  /// bit-identical to the scalar loops.
  std::vector<std::uint16_t> encode_tensor(const Tensor& t) const;
  Tensor decode_tensor(const std::vector<std::uint16_t>& codes,
                       const Shape& shape, bool hardened) const;

  /// The code -> FP32 table of decode() or decode_hardened(). Exposed so
  /// packed consumers (the quantized KV cache) can stream payloads through
  /// a backend's fused decode; entries come from the scalar decode, so LUT
  /// results are bit-identical to it.
  const DecodeLut& decode_lut(bool hardened) const {
    return hardened ? hardened_lut_ : raw_lut_;
  }

 private:
  std::unique_ptr<Quantizer> q_;
  float range_;
  DecodeLut raw_lut_;
  DecodeLut hardened_lut_;
};

/// Creates a codec of the given kind/width calibrated for data whose
/// max-abs is `max_abs` (ignored by the non-adaptive Float and Posit,
/// except for the hardened clamp window): make_quantizer, then
/// calibrate_max_abs, so exponent-field defaults are make_quantizer's.
std::unique_ptr<FormatCodec> make_codec(FormatKind kind, int bits,
                                        float max_abs,
                                        QuantizerOptions opts = {});

}  // namespace af
