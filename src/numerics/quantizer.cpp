#include "src/numerics/quantizer.hpp"

#include <cmath>

#include "src/kernels/backend.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace af {

Tensor Quantizer::quantize(const Tensor& t) const {
  // Purely elementwise: each chunk writes a disjoint slice of `out`, so the
  // result is bit-identical for any AF_THREADS setting.
  constexpr std::int64_t kGrain = 1 << 12;
  Tensor out(t.shape());
  const EncodeView* view = encode_view();
  if (view == nullptr) {
    parallel_for(0, t.numel(), kGrain, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) out[i] = quantize_value(t[i]);
    });
    return out;
  }
  const KernelBackend& be = active_backend();
  count_backend_dispatch(be);
  parallel_for(0, t.numel(), kGrain, [&](std::int64_t b, std::int64_t e) {
    be.encode(*view, t.data() + b, nullptr, out.data() + b, e - b);
  });
  return out;
}

LevelQuantizer::LevelQuantizer(int bits) : bits_(bits) {
  AF_CHECK(bits >= 2 && bits <= 16, "level-format width must be in [2,16]");
  level_max_ = (1 << (bits_ - 1)) - 1;
  view_.kind = EncodeKind::kLevel;
  view_.bits = bits_;
}

void LevelQuantizer::calibrate_max_abs(float max_abs) {
  AF_CHECK(max_abs >= 0.0f && std::isfinite(max_abs),
           "max_abs must be finite and non-negative");
  view_.step = max_abs == 0.0f ? 0.0f : step_for(max_abs);
}

float LevelQuantizer::quantize_value(float x) const {
  return level_value_of(view_, x, encode(x));
}

float LevelQuantizer::decode(std::uint16_t code) const {
  return level_value_of(view_, 0.0f, code);  // x = 0: no signed zero
}

}  // namespace af
