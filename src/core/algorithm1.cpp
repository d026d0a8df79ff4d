#include "src/core/algorithm1.hpp"

#include <cmath>

#include "src/kernels/backend.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace af {
namespace {

/// floor(log2(x)) for x > 0, exact for powers of two.
int floor_log2(float x) {
  int e = 0;
  (void)std::frexp(x, &e);  // x = f * 2^e, f in [0.5, 1)
  return e - 1;
}

}  // namespace

AdaptivFloatFormat format_for_max_abs(float max_abs, int bits, int exp_bits) {
  AF_CHECK(max_abs >= 0.0f && std::isfinite(max_abs),
           "max_abs must be finite and non-negative");
  const int full_scale = (1 << exp_bits) - 1;
  if (max_abs == 0.0f) {
    return AdaptivFloatFormat(bits, exp_bits, -full_scale);
  }
  const int exp_max = floor_log2(max_abs);
  return AdaptivFloatFormat(bits, exp_bits, exp_max - full_scale);
}

AdaptivFloatFormat format_for_tensor(const Tensor& w, int bits, int exp_bits) {
  return format_for_max_abs(w.max_abs(), bits, exp_bits);
}

AdaptivFloatQuantResult adaptivfloat_quantize(const Tensor& w, int bits,
                                              int exp_bits) {
  // This follows the matrix formulation of Algorithm 1 step by step; the
  // codec in AdaptivFloatFormat implements the same mapping per value and
  // the two are cross-checked in tests.
  AdaptivFloatFormat fmt = format_for_tensor(w, bits, exp_bits);
  const int m = fmt.mant_bits();
  const float vmin = fmt.value_min();
  const float vmax = fmt.value_max();

  AdaptivFloatQuantResult out{fmt, Tensor(w.shape()), {}};
  out.codes.resize(static_cast<std::size_t>(w.numel()));

  // The codes come from the backend's encode entry (or, for a format
  // outside it, fmt.encode); either way they equal fmt.encode's.
  const KernelBackend& be = active_backend();

  // Elementwise with disjoint writes per chunk — bit-identical for any
  // AF_THREADS value.
  constexpr std::int64_t kGrain = 1 << 12;
  parallel_for(0, w.numel(), kGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const float sign = w[i] < 0.0f ? -1.0f : 1.0f;  // W_sign
      float a = std::fabs(w[i]);                      // W_abs

      // Handle unrepresentable values.
      if (a < vmin) {
        a = (a < 0.5f * vmin) ? 0.0f : vmin;
      } else if (a > vmax) {
        a = vmax;
      }

      float reconstructed = 0.0f;
      if (a != 0.0f) {
        // Normalize into W_exp / W_mant with 1 <= mant < 2, then quantize
        // the mantissa at scale 2^-m.
        int exp_plus_1 = 0;
        const float frac = std::frexp(a, &exp_plus_1);
        int exp = exp_plus_1 - 1;
        float mant_q = std::ldexp(
            static_cast<float>(std::nearbyint(std::ldexp(2.0f * frac, m))),
            -m);
        if (mant_q == 2.0f) {  // carry from mantissa rounding
          mant_q = 1.0f;
          ++exp;
        }
        reconstructed = std::ldexp(mant_q, exp);  // 2^W_exp * W_q
        if (reconstructed > vmax) reconstructed = vmax;
      }
      out.quantized[i] = sign * reconstructed;  // W_sign * 2^W_exp * W_q
    }
    encode_span(fmt, w.data() + lo, out.codes.data() + lo, hi - lo, be);
  });
  return out;
}

}  // namespace af
