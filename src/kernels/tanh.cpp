// tanh_f32: the in-repo single-precision tanh every float tanh in the
// library runs (DESIGN.md §12.6).
//
// It replicates, operation for operation, fdlibm's s_tanhf.c over
// s_expm1f.c — the algorithm glibc 2.36 ships as tanhf — so inference
// bits no longer depend on which libm the host links, and the AVX2
// tanh_map (backend_avx2.cpp) has one scalar function to reproduce lane by
// lane. Every expression keeps fdlibm's evaluation order and rounds each
// operation separately: this TU builds with -ffp-contract=off, because a
// fused multiply-add changes the bits of the polynomial and the argument
// reduction. Floating-point exception flags and errno are not replicated
// (nothing here reads them); the returned bits are.
#include <bit>
#include <cstdint>

#include "src/kernels/backend.hpp"

namespace af {
namespace {

constexpr float f32(std::uint32_t bits) { return std::bit_cast<float>(bits); }

constexpr float kOne = 1.0f;
constexpr float kTiny = 1.0e-30f;
constexpr float kHuge = 1.0e+30f;
constexpr float kOThreshold = f32(0x42b17180u);  // 8.8721679688e+01
constexpr float kLn2Hi = f32(0x3f317180u);       // 6.9313812256e-01
constexpr float kLn2Lo = f32(0x3717f7d1u);       // 9.0580006145e-06
constexpr float kInvLn2 = f32(0x3fb8aa3bu);      // 1.4426950216e+00
constexpr float kQ1 = f32(0xbd088889u);          // -3.3333335072e-02
constexpr float kQ2 = f32(0x3ad00d01u);          //  1.5873016091e-03
constexpr float kQ3 = f32(0xb8a670cdu);          // -7.9365076090e-05
constexpr float kQ4 = f32(0x36867e54u);          //  4.0082177293e-06
constexpr float kQ5 = f32(0xb457edbbu);          // -2.0109921195e-07

// y * 2^k by adding k to y's biased exponent field (y normal, no overflow).
float add_exponent(float y, std::int32_t k) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(y) +
                              (static_cast<std::uint32_t>(k) << 23));
}

// fdlibm expm1f.
float expm1_f32(float x) {
  std::uint32_t hx = std::bit_cast<std::uint32_t>(x);
  const bool negative = (hx & 0x80000000u) != 0;
  hx &= 0x7fffffffu;

  // Huge and non-finite arguments.
  if (hx >= 0x4195b844u) {    // |x| >= 27 ln2
    if (hx >= 0x42b17218u) {  // |x| >= 88.721...
      if (hx > 0x7f800000u) return x + x;                     // NaN
      if (hx == 0x7f800000u) return negative ? -1.0f : x;     // +-inf
      if (x > kOThreshold) return kHuge * kHuge;              // overflow
    }
    if (negative) return kTiny - kOne;  // x < -27 ln2: -1
  }

  // Argument reduction: x = hi - lo = k ln2 + r, |r| <= 0.5 ln2.
  float hi = 0.0f, lo = 0.0f, c = 0.0f;
  std::int32_t k = 0;
  if (hx > 0x3eb17218u) {    // |x| > 0.5 ln2
    if (hx < 0x3f851592u) {  // and |x| < 1.5 ln2
      if (!negative) {
        hi = x - kLn2Hi;
        lo = kLn2Lo;
        k = 1;
      } else {
        hi = x + kLn2Hi;
        lo = -kLn2Lo;
        k = -1;
      }
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: x
    const float t = kHuge + x;
    return x - (t - kHuge);
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 =
      kOne + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = (x * (e - c) - c);
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k == 1) {
    if (x < -0.25f) return -2.0f * (e - (x + 0.5f));
    return kOne + 2.0f * (x - e);
  }
  if (k <= -2 || k > 56) {  // exp(x) - 1 suffices
    const float y = kOne - (e - x);
    return add_exponent(y, k) - kOne;
  }
  if (k < 23) {
    t = f32(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    const float y = t - (e - x);
    return add_exponent(y, k);
  }
  t = f32(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
  float y = x - (e + t);
  y += kOne;
  return add_exponent(y, k);
}

}  // namespace

// fdlibm tanhf.
float tanh_f32(float x) {
  const std::uint32_t jx = std::bit_cast<std::uint32_t>(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx & 0x80000000u) != 0;

  if (ix >= 0x7f800000u) {  // inf or NaN
    return negative ? kOne / x - kOne : kOne / x + kOne;
  }

  float z;
  if (ix < 0x41b00000u) {                    // |x| < 22
    if (ix == 0) return x;                   // +-0
    if (ix < 0x24000000u) return x * (kOne + x);  // |x| < 2^-55
    const float ax = std::bit_cast<float>(ix);
    if (ix >= 0x3f800000u) {  // |x| >= 1
      const float t = expm1_f32(2.0f * ax);
      z = kOne - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1_f32(-2.0f * ax);
      z = -t / (t + 2.0f);
    }
  } else {  // |x| >= 22: +-1
    z = kOne - kTiny;
  }
  return negative ? -z : z;
}

}  // namespace af
