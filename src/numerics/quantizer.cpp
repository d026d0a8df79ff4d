#include "src/numerics/quantizer.hpp"

#include <algorithm>
#include <cmath>

#include "src/kernels/backend.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace af {

const NearestLut* Quantizer::round_lut(std::int64_t numel) const {
  if (round_lut_state_ == RoundLutState::kBuilt) return round_lut_.get();
  if (round_lut_state_ == RoundLutState::kUnavailable) return nullptr;
  if (numel < kNearestLutMinBuildElems) return nullptr;  // stay undecided
  const std::vector<float> values = representable_values();
  if (values.empty()) {
    round_lut_state_ = RoundLutState::kUnavailable;
    return nullptr;
  }
  NearestLut lut =
      build_value_lut(values, [this](float x) { return quantize_value(x); });
  if (lut.empty()) {
    // Table inconsistent with the scalar path (e.g. a degenerate
    // calibration collapsed adjacent values) — fall back to scalar.
    round_lut_state_ = RoundLutState::kUnavailable;
    return nullptr;
  }
  round_lut_ = std::make_shared<const NearestLut>(std::move(lut));
  round_lut_state_ = RoundLutState::kBuilt;
  return round_lut_.get();
}

Tensor Quantizer::quantize(const Tensor& t) const {
  // Purely elementwise: each chunk writes a disjoint slice of `out`, so the
  // result is bit-identical for any AF_THREADS setting. The LUT is built
  // (or fetched from the cache) before the parallel region ever starts.
  constexpr std::int64_t kGrain = 1 << 12;
  Tensor out(t.shape());
  if (const NearestLut* lut = round_lut(t.numel())) {
    const KernelBackend& be = active_backend();
    count_backend_dispatch(be);
    parallel_for(0, t.numel(), kGrain, [&](std::int64_t b, std::int64_t e) {
      lut->values_of(t.data() + b, out.data() + b, e - b, be);
    });
    return out;
  }
  parallel_for(0, t.numel(), kGrain, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) out[i] = quantize_value(t[i]);
  });
  return out;
}

LevelQuantizer::LevelQuantizer(int bits) : bits_(bits) {
  AF_CHECK(bits >= 2 && bits <= 16, "level-format width must be in [2,16]");
  level_max_ = (1 << (bits_ - 1)) - 1;
}

void LevelQuantizer::calibrate_max_abs(float max_abs) {
  AF_CHECK(max_abs >= 0.0f && std::isfinite(max_abs),
           "max_abs must be finite and non-negative");
  step_ = max_abs == 0.0f ? 0.0f : step_for(max_abs);
  invalidate_round_lut();
}

double LevelQuantizer::level_of(float x) const {
  const double q = std::nearbyint(static_cast<double>(x) / step_);
  return std::clamp(q, -static_cast<double>(level_max_),
                    static_cast<double>(level_max_));
}

float LevelQuantizer::quantize_value(float x) const {
  if (step_ == 0.0f || x == 0.0f || std::isnan(x)) return 0.0f;
  return static_cast<float>(level_of(x)) * step_;
}

std::uint16_t LevelQuantizer::encode(float x) const {
  if (step_ == 0.0f || x == 0.0f || std::isnan(x)) return 0;
  const std::uint32_t mask = (1u << bits_) - 1u;
  return static_cast<std::uint16_t>(
      static_cast<std::uint32_t>(static_cast<std::int32_t>(level_of(x))) &
      mask);
}

float LevelQuantizer::decode(std::uint16_t code) const {
  const std::uint32_t mask = (1u << bits_) - 1u;
  std::uint32_t word = code & mask;
  if (word & (1u << (bits_ - 1))) word |= ~mask;  // sign-extend
  return static_cast<float>(static_cast<std::int32_t>(word)) * step_;
}

std::vector<float> LevelQuantizer::representable_values() const {
  if (step_ == 0.0f) return {0.0f};
  std::vector<float> vals;
  vals.reserve(2 * static_cast<std::size_t>(level_max_) + 2);
  for (int q = -level_max_; q < 0; ++q) {
    vals.push_back(static_cast<float>(q) * step_);
  }
  // quantize_value rounds tiny negatives to level -0.0, whose product with
  // the step is -0.0f — a distinct interval in key order.
  vals.push_back(-0.0f);
  for (int q = 0; q <= level_max_; ++q) {
    vals.push_back(static_cast<float>(q) * step_);
  }
  return vals;
}

}  // namespace af
