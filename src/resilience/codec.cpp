#include "src/resilience/codec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/core/algorithm1.hpp"
#include "src/kernels/backend.hpp"
#include "src/numerics/float_format.hpp"
#include "src/numerics/posit.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace af {

namespace {
constexpr std::int64_t kCodecGrain = 1 << 12;
}  // namespace

float FormatCodec::decode_hardened(std::uint16_t code) const {
  const float v = decode(code);
  if (std::isnan(v)) return 0.0f;
  const float r = range();
  if (v > r) return r;
  if (v < -r) return -r;
  return v;
}

const DecodeLut& FormatCodec::cached_decode_lut(bool hardened) const {
  auto& slot = hardened ? hardened_lut_ : raw_lut_;
  if (!slot) {
    slot = std::make_shared<DecodeLut>(
        bits(), [this, hardened](std::uint16_t c) {
          return hardened ? decode_hardened(c) : decode(c);
        });
  }
  return *slot;
}

const NearestLut* FormatCodec::cached_encode_lut(std::int64_t numel) const {
  if (encode_lut_decided_) return encode_lut_.get();
  if (numel < kNearestLutMinBuildElems) return nullptr;  // stay undecided
  encode_lut_decided_ = true;
  auto lut = std::make_shared<NearestLut>(build_encode_lut(
      bits(), [this](float x) { return encode(x); },
      [this](std::uint16_t c) { return decode(c); }));
  if (!lut->empty()) encode_lut_ = std::move(lut);
  return encode_lut_.get();  // null -> scalar fallback, identical codes
}

std::vector<std::uint16_t> FormatCodec::encode_tensor(const Tensor& t) const {
  std::vector<std::uint16_t> codes(static_cast<std::size_t>(t.numel()));
  const NearestLut* lut = cached_encode_lut(t.numel());
  if (lut != nullptr) {
    // Batched boundary search through the active backend. The search is
    // integer-exact, so every backend emits the same codes.
    const KernelBackend& be = active_backend();
    count_backend_dispatch(be);
    parallel_for(0, t.numel(), kCodecGrain,
                 [&](std::int64_t lo, std::int64_t hi) {
                   lut->codes_of(t.data() + lo,
                                 codes.data() + static_cast<std::size_t>(lo),
                                 hi - lo, be);
                 });
    return codes;
  }
  parallel_for(0, t.numel(), kCodecGrain,
               [&](std::int64_t lo, std::int64_t hi) {
                 for (std::int64_t i = lo; i < hi; ++i) {
                   codes[static_cast<std::size_t>(i)] = encode(t[i]);
                 }
               });
  return codes;
}

Tensor FormatCodec::decode_tensor(const std::vector<std::uint16_t>& codes,
                                  const Shape& shape, bool hardened) const {
  AF_CHECK(static_cast<std::int64_t>(codes.size()) == numel_of(shape),
           "code count does not match the target shape");
  Tensor out(shape);
  const DecodeLut& lut = cached_decode_lut(hardened);
  const std::uint16_t mask =
      static_cast<std::uint16_t>((1u << bits()) - 1u);
  const std::int64_t n = out.numel();
  parallel_for(0, n, kCodecGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      // All producers (encode_tensor, unpack_codes) emit codes < 2^bits;
      // the mask only guards the table bound for hand-built vectors.
      out[i] = lut[static_cast<std::uint16_t>(
          codes[static_cast<std::size_t>(i)] & mask)];
    }
  });
  return out;
}

namespace {

/// Tight, transparent hardened-clamp window: by monotonicity of
/// round-to-nearest, no weight with |w| <= max_abs encodes to a magnitude
/// above |decode(encode(max_abs))| — so clamping there never alters a
/// clean (uncorrupted) decode.
template <typename Codec>
float calibrated_range(const Codec& codec, float max_abs, float format_max) {
  if (!(max_abs > 0.0f)) return format_max;
  return std::min(std::fabs(codec.decode(codec.encode(max_abs))), format_max);
}

class AdaptivFloatCodec final : public FormatCodec {
 public:
  AdaptivFloatCodec(int bits, int exp_bits, float max_abs)
      : fmt_(format_for_max_abs(max_abs, bits, exp_bits)) {
    range_ = calibrated_range(*this, max_abs, fmt_.value_max());
  }

  std::string name() const override { return "AdaptivFloat"; }
  int bits() const override { return fmt_.bits(); }
  std::uint16_t encode(float x) const override { return fmt_.encode(x); }
  float decode(std::uint16_t code) const override { return fmt_.decode(code); }
  float range() const override { return range_; }

 private:
  AdaptivFloatFormat fmt_;
  float range_ = 0.0f;
};

class FloatCodec final : public FormatCodec {
 public:
  FloatCodec(int bits, int exp_bits, float max_abs) : fmt_(bits, exp_bits) {
    range_ = calibrated_range(*this, max_abs, fmt_.value_max());
  }

  std::string name() const override { return "Float"; }
  int bits() const override { return fmt_.bits(); }
  std::uint16_t encode(float x) const override { return fmt_.encode(x); }
  float decode(std::uint16_t code) const override { return fmt_.decode(code); }
  float range() const override { return range_; }

 private:
  FloatFormat fmt_;
  float range_ = 0.0f;
};

class PositCodec final : public FormatCodec {
 public:
  PositCodec(int bits, int es, float max_abs) : fmt_(bits, es) {
    const std::uint32_t nar = 1u << (bits - 1);
    for (std::uint32_t c = 0; c < (1u << bits); ++c) {
      if (c == nar) continue;
      table_.emplace_back(decode(static_cast<std::uint16_t>(c)),
                          static_cast<std::uint16_t>(c));
    }
    std::sort(table_.begin(), table_.end());
    range_ = calibrated_range(*this, max_abs, table_.back().first);
  }

  std::string name() const override { return "Posit"; }
  int bits() const override { return fmt_.bits(); }

  std::uint16_t encode(float x) const override {
    if (x == 0.0f || std::isnan(x)) return 0;
    // Round to the nearest entry of the decoded grid, zero included:
    // |x| <= ~minpos/2 flushes to code 0 (no minpos saturation), |x| beyond
    // maxpos saturates at +-maxpos, and an exact tie takes the lower
    // neighbour (toward -inf, so +1.75 -> 1.5 but -1.75 -> -2 at
    // posit<4,0>). PositQuantizer instead saturates at +-minpos and breaks
    // ties toward zero; see ROADMAP.
    auto it = std::lower_bound(
        table_.begin(), table_.end(), x,
        [](const auto& entry, float v) { return entry.first < v; });
    if (it == table_.begin()) return it->second;
    if (it == table_.end()) return (it - 1)->second;
    const auto lo = it - 1;
    return (x - lo->first <= it->first - x) ? lo->second : it->second;
  }

  float decode(std::uint16_t code) const override {
    const double v = fmt_.decode(code);
    // Wide-es posits can exceed FP32 range; saturate instead of relying on
    // an out-of-range narrowing conversion.
    constexpr double kFltMax = std::numeric_limits<float>::max();
    if (v > kFltMax) return std::numeric_limits<float>::max();
    if (v < -kFltMax) return -std::numeric_limits<float>::max();
    return static_cast<float>(v);
  }

  float range() const override { return range_; }

 private:
  PositFormat fmt_;
  std::vector<std::pair<float, std::uint16_t>> table_;  // value -> code
  float range_ = 0.0f;
};

/// Shared implementation for the two's-complement level formats: Uniform
/// (full-precision scale) and BFP (power-of-two step).
class LevelCodec : public FormatCodec {
 public:
  LevelCodec(int bits, float step)
      : bits_(bits),
        level_max_((1 << (bits - 1)) - 1),
        step_(step),
        mask_((1u << bits) - 1u) {
    range_ = step_ * static_cast<float>(level_max_);
  }

  int bits() const override { return bits_; }

  std::uint16_t encode(float x) const override {
    if (step_ == 0.0f || x == 0.0f || std::isnan(x)) return 0;
    double q = std::nearbyint(static_cast<double>(x) / step_);
    if (q > level_max_) q = level_max_;
    if (q < -level_max_) q = -level_max_;
    return static_cast<std::uint16_t>(static_cast<std::int32_t>(q) & mask_);
  }

  float decode(std::uint16_t code) const override {
    std::uint32_t word = code & mask_;
    if (word & (1u << (bits_ - 1))) word |= ~mask_;  // sign-extend
    return static_cast<float>(static_cast<std::int32_t>(word)) * step_;
  }

  float range() const override { return range_; }

 private:
  int bits_;
  int level_max_;
  float step_;
  std::uint32_t mask_;
  float range_ = 0.0f;
};

class UniformCodec final : public LevelCodec {
 public:
  UniformCodec(int bits, float max_abs)
      : LevelCodec(bits, max_abs <= 0.0f
                             ? 0.0f
                             : max_abs / static_cast<float>(
                                             (1 << (bits - 1)) - 1)) {}
  std::string name() const override { return "Uniform"; }
};

class BfpCodec final : public LevelCodec {
 public:
  BfpCodec(int bits, float max_abs) : LevelCodec(bits, bfp_step(bits, max_abs)) {}
  std::string name() const override { return "BFP"; }

 private:
  static float bfp_step(int bits, float max_abs) {
    if (max_abs <= 0.0f) return 0.0f;
    int e = 0;
    (void)std::frexp(max_abs, &e);
    return std::ldexp(1.0f, (e - 1) - (bits - 2));
  }
};

}  // namespace

std::unique_ptr<FormatCodec> make_codec(FormatKind kind, int bits,
                                        float max_abs, QuantizerOptions opts) {
  AF_CHECK(bits >= 2 && bits <= 16, "codec width must be in [2,16]");
  AF_CHECK(!(max_abs < 0.0f) && std::isfinite(max_abs),
           "max_abs must be finite and non-negative");
  switch (kind) {
    case FormatKind::kFloat: {
      int e = opts.exp_bits >= 0 ? opts.exp_bits : (bits <= 4 ? 3 : 4);
      if (e > bits - 1) e = bits - 1;
      return std::make_unique<FloatCodec>(bits, e, max_abs);
    }
    case FormatKind::kBlockFloat:
      return std::make_unique<BfpCodec>(bits, max_abs);
    case FormatKind::kUniform:
      return std::make_unique<UniformCodec>(bits, max_abs);
    case FormatKind::kPosit: {
      const int es = opts.exp_bits >= 0 ? opts.exp_bits : (bits <= 4 ? 0 : 1);
      return std::make_unique<PositCodec>(bits, es, max_abs);
    }
    case FormatKind::kAdaptivFloat: {
      int e = opts.exp_bits >= 0 ? opts.exp_bits : 3;
      if (e > bits - 1) e = bits - 1;
      return std::make_unique<AdaptivFloatCodec>(bits, e, max_abs);
    }
  }
  fail("unknown FormatKind");
}

}  // namespace af
