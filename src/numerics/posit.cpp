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
  const std::uint32_t half = 1u << (bits - 1);
  values_.resize(half);
  for (std::uint32_t c = 0; c < half; ++c) {
    const double v = fmt_.decode(static_cast<std::uint16_t>(c));
    // Wide-es posits reach past FP32 at both ends: saturate rather than
    // narrow to +Inf or flush a nonzero posit to 0.
    values_[c] = c == 0 ? 0.0f
                        : static_cast<float>(std::clamp(
                              v,
                              static_cast<double>(
                                  std::numeric_limits<float>::denorm_min()),
                              static_cast<double>(
                                  std::numeric_limits<float>::max())));
  }
  view_.kind = EncodeKind::kPosit;
  view_.bits = bits;
  view_.es = es;
  view_.values = values_.data();
  view_.top_code = static_cast<std::uint32_t>(
      std::lower_bound(values_.begin(), values_.end(), values_.back()) -
      values_.begin());
}

float PositQuantizer::decode(std::uint16_t code) const {
  AF_CHECK(code < (1u << bits()), "code wider than the format");
  if (code == 1u << (bits() - 1)) {
    return std::numeric_limits<float>::quiet_NaN();  // NaR
  }
  return posit_value_of(view_, 0.0f, code);
}

std::vector<float> PositQuantizer::representable_values() const {
  std::vector<float> positives;
  for (std::size_t c = 1; c < values_.size(); ++c) {
    if (positives.empty() || values_[c] != positives.back()) {
      positives.push_back(values_[c]);
    }
  }
  std::vector<float> vals;
  vals.reserve(2 * positives.size() + 1);
  for (auto it = positives.rbegin(); it != positives.rend(); ++it) {
    vals.push_back(-*it);
  }
  vals.push_back(0.0f);
  vals.insert(vals.end(), positives.begin(), positives.end());
  return vals;
}

}  // namespace af
