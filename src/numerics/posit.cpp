#include "src/numerics/posit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.hpp"

namespace af {
namespace {

int bit_at(std::uint32_t v, int pos) { return (v >> pos) & 1u; }

}  // namespace

PositFormat::PositFormat(int bits, int es) : bits_(bits), es_(es) {
  AF_CHECK(bits >= 2 && bits <= 16, "posit width must be in [2,16]");
  AF_CHECK(es >= 0 && es <= 4, "posit es must be in [0,4]");
}

double PositFormat::decode(std::uint16_t code) const {
  const std::uint32_t mask = (1u << bits_) - 1u;
  AF_CHECK(code <= mask, "code wider than the format");
  if (code == 0) return 0.0;
  const std::uint32_t nar = 1u << (bits_ - 1);
  if (code == nar) return std::numeric_limits<double>::quiet_NaN();

  double sign = 1.0;
  std::uint32_t p = code;
  if (p & nar) {
    // Negative posits decode as the negation of their two's complement.
    sign = -1.0;
    p = (~p + 1u) & mask;
  }

  // Regime: run of identical bits starting just below the sign bit.
  int pos = bits_ - 2;
  const int r0 = bit_at(p, pos);
  int run = 0;
  while (pos >= 0 && bit_at(p, pos) == r0) {
    ++run;
    --pos;
  }
  const int k = r0 ? run - 1 : -run;
  if (pos >= 0) --pos;  // consume the terminating (opposite) regime bit

  // Exponent: up to es bits; missing (truncated) bits are zero.
  int exp = 0;
  int got = 0;
  while (got < es_ && pos >= 0) {
    exp = (exp << 1) | bit_at(p, pos);
    --pos;
    ++got;
  }
  exp <<= (es_ - got);

  // Fraction: whatever bits remain.
  const int fbits = pos + 1;
  const std::uint32_t f = p & ((1u << fbits) - 1u);
  const double frac = std::ldexp(static_cast<double>(f), -fbits);

  return sign * std::ldexp(1.0 + frac, k * (1 << es_) + exp);
}

double PositFormat::minpos() const {
  // Code 0...01 — the most negative regime.
  return decode(1);
}

double PositFormat::maxpos() const {
  // Code 01...1 — the most positive regime.
  return decode(static_cast<std::uint16_t>((1u << (bits_ - 1)) - 1u));
}

std::string PositFormat::to_string() const {
  return "Posit<" + std::to_string(bits_) + "," + std::to_string(es_) + ">";
}

PositQuantizer::PositQuantizer(int bits, int es) : fmt_(bits, es) {
  for (std::uint32_t c = 1; c < (1u << (bits - 1)); ++c) {
    const auto code = static_cast<std::uint16_t>(c);
    const float v = decode(code);
    if (!positives_.empty() && v == positives_.back()) continue;
    positives_.push_back(v);
    codes_.push_back(code);
  }
}

float PositQuantizer::decode(std::uint16_t code) const {
  const double v = fmt_.decode(code);
  if (v == 0.0 || std::isnan(v)) return static_cast<float>(v);
  // Wide-es posits reach past FP32 at both ends: saturate rather than
  // narrow to +/-Inf or flush a nonzero posit to 0.
  const double a =
      std::clamp(std::fabs(v),
                 static_cast<double>(std::numeric_limits<float>::denorm_min()),
                 static_cast<double>(std::numeric_limits<float>::max()));
  return static_cast<float>(std::copysign(a, v));
}

std::size_t PositQuantizer::nearest_index(float a) const {
  if (a <= positives_.front()) return 0;
  const std::size_t top = positives_.size() - 1;
  if (a >= positives_[top]) return top;
  // Branch-free lower bound: the KV cache encodes every appended element,
  // and a data-dependent branch per halving mispredicts about half the time.
  const float* base = positives_.data();
  for (std::size_t n = top + 1; n > 1;) {
    const std::size_t half = n / 2;
    base += static_cast<std::size_t>(base[half - 1] < a) * half;
    n -= half;
  }
  const auto hi = static_cast<std::size_t>(base - positives_.data());
  const float dh = positives_[hi] - a;
  const float dl = a - positives_[hi - 1];
  // Nearer neighbour; an exact tie takes the entry whose code is even (the
  // posit standard's round-to-nearest-even on the bit pattern).
  const bool lo_even = (codes_[hi - 1] & 1u) == 0;
  const bool take_lo = (dl < dh) | ((dl == dh) & lo_even);
  return hi - static_cast<std::size_t>(take_lo);
}

float PositQuantizer::quantize_value(float x) const {
  if (x == 0.0f || std::isnan(x)) return 0.0f;
  const float v = positives_[nearest_index(std::fabs(x))];
  return x < 0.0f ? -v : v;
}

std::uint16_t PositQuantizer::encode(float x) const {
  if (x == 0.0f || std::isnan(x)) return 0;
  const std::uint32_t code = codes_[nearest_index(std::fabs(x))];
  if (x > 0.0f) return static_cast<std::uint16_t>(code);
  // A negative posit is the two's complement of its magnitude's code.
  return static_cast<std::uint16_t>((~code + 1u) & ((1u << bits()) - 1u));
}

std::vector<float> PositQuantizer::representable_values() const {
  // Posit decode is exactly antisymmetric, so the negative entries are the
  // negations of positives_ — the values quantize_value emits for x < 0.
  std::vector<float> vals;
  vals.reserve(2 * positives_.size() + 1);
  for (auto it = positives_.rbegin(); it != positives_.rend(); ++it) {
    vals.push_back(-*it);
  }
  vals.push_back(0.0f);
  vals.insert(vals.end(), positives_.begin(), positives_.end());
  return vals;
}

}  // namespace af
