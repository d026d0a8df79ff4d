// Search-free round-to-nearest over a tabulated representable set.
//
// Every quantizer here is a monotone step function of its input: the real
// line splits into contiguous intervals, each mapping to one representable
// value (and, for codecs, one code). This module precomputes those interval
// boundaries so the per-element hot path is a table walk instead of a
// binary search or per-value float arithmetic:
//
//  * Floats are mapped to 32-bit keys that are monotone in numeric order
//    (sign-magnitude -> biased order: negate the bits of negatives, set the
//    top bit of non-negatives). -0.0f and +0.0f get *distinct adjacent*
//    keys, which lets formats whose scalar path emits a signed zero (the
//    level formats round tiny negatives to -0.0f) stay bit-identical.
//  * edge_keys_[j] is the smallest key that rounds to interval j. The
//    edges are found by bisecting the key range between adjacent
//    representable values against the format's own scalar quantizer — the
//    oracle — so every tie rule, zero rule, and NaN/Inf policy is inherited
//    exactly rather than reimplemented. ~32 oracle calls per edge, paid
//    once per (format, calibration).
//  * bucket_lo_[key >> 16] caches the first candidate interval per 64Ki-key
//    bucket; a lookup is one bucket load plus a short forward scan (edges
//    per bucket is almost always 0 or 1). No binary search, no branches
//    that depend on the value distribution.
//
// If the supplied table is inconsistent with the oracle (duplicate keys,
// non-monotone rounding), build() returns an empty LUT and callers fall
// back to the scalar path — degraded speed, never changed bits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/kernels/backend.hpp"

namespace af {

/// Tensors below this element count keep the scalar path: building a LUT
/// (oracle bisection + bucket fill) only pays for itself on bulk work.
/// Purely a performance threshold — both paths are bit-identical.
constexpr std::int64_t kNearestLutMinBuildElems = 1 << 13;

/// One interval of the rounding step function: the representable value and
/// (for code-emitting users) the code the scalar encoder picks for it.
struct NearestLutEntry {
  float value = 0.0f;
  std::uint16_t code = 0;
};

/// Monotone key order over float bit patterns: total, and consistent with
/// numeric < except that -0.0f orders immediately below +0.0f.
inline std::uint32_t float_key(float x) {
  std::uint32_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return (u & 0x80000000u) ? ~u : (u | 0x80000000u);
}

inline float float_from_key(std::uint32_t key) {
  const std::uint32_t u = (key & 0x80000000u) ? (key & 0x7fffffffu) : ~key;
  float x = 0.0f;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}

/// Precomputed boundary table for one calibrated format instance.
class NearestLut {
 public:
  NearestLut() = default;

  /// Builds from the format's interval table and its scalar rounding
  /// function. `entries` must hold every value `oracle` can return (with
  /// key-distinct signed zeros listed separately when the format emits
  /// them); `oracle(x)` is the exact scalar-path result for x and must be
  /// monotone non-decreasing in key order. Returns an empty LUT (callers
  /// fall back to scalar) when the inputs violate that contract.
  template <typename OracleFn>
  static NearestLut build(std::vector<NearestLutEntry> entries,
                          OracleFn&& oracle) {
    NearestLut lut;
    if (entries.empty() || entries.size() > 0xffffu) return lut;
    std::sort(entries.begin(), entries.end(),
              [](const NearestLutEntry& a, const NearestLutEntry& b) {
                return float_key(a.value) < float_key(b.value);
              });
    const std::size_t v = entries.size();
    std::vector<std::uint32_t> keys(v);
    for (std::size_t j = 0; j < v; ++j) keys[j] = float_key(entries[j].value);
    for (std::size_t j = 1; j < v; ++j) {
      if (keys[j] == keys[j - 1]) return NearestLut();  // duplicate interval
    }

    // Exact index of an oracle result, or -1 if it is not in the table.
    const auto index_for = [&](float value) -> std::ptrdiff_t {
      const std::uint32_t key = float_key(value);
      auto it = std::lower_bound(keys.begin(), keys.end(), key);
      if (it == keys.end() || *it != key) return -1;
      return it - keys.begin();
    };

    lut.edge_keys_.assign(v, 0u);
    for (std::size_t j = 1; j < v; ++j) {
      // The edge of interval j lies in [key(v[j-1]), key(v[j])]: v[j]
      // rounds to an index >= j, and everything below v[j-1] to one < j.
      // The lower endpoint itself must stay in the search range: an entry
      // can round *past* itself (quantize_value(-0.0f) is +0.0f for the
      // level formats), putting the edge exactly at key(v[j-1]).
      std::uint32_t lo = keys[j - 1];
      std::uint32_t hi = keys[j];
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2u;
        const std::ptrdiff_t idx = index_for(oracle(float_from_key(mid)));
        if (idx < 0) return NearestLut();  // oracle left the table
        if (static_cast<std::size_t>(idx) >= j) {
          hi = mid;
        } else {
          lo = mid + 1u;
        }
      }
      lut.edge_keys_[j] = lo;
    }

    {
      const std::ptrdiff_t idx =
          index_for(oracle(std::numeric_limits<float>::quiet_NaN()));
      if (idx < 0) return NearestLut();
      lut.nan_index_ = static_cast<std::uint32_t>(idx);
    }

    lut.bucket_lo_.assign(std::size_t{1} << 16, 0u);
    std::size_t j = 0;
    for (std::size_t b = 0; b < lut.bucket_lo_.size(); ++b) {
      const std::uint32_t base = static_cast<std::uint32_t>(b) << 16;
      while (j + 1 < v && lut.edge_keys_[j + 1] <= base) ++j;
      lut.bucket_lo_[b] = static_cast<std::uint32_t>(j);
    }

    lut.entries_ = std::move(entries);
    return lut;
  }

  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Interval index x rounds into (NaN -> the oracle's NaN interval,
  /// +/-Inf saturate to the extreme intervals, exactly like the oracle).
  std::size_t index_of(float x) const {
    std::uint32_t u = 0;
    std::memcpy(&u, &x, sizeof(u));
    if ((u & 0x7fffffffu) > 0x7f800000u) return nan_index_;  // NaN
    const std::uint32_t key = (u & 0x80000000u) ? ~u : (u | 0x80000000u);
    std::size_t j = bucket_lo_[key >> 16];
    const std::size_t v = entries_.size();
    while (j + 1 < v && edge_keys_[j + 1] <= key) ++j;
    return j;
  }

  float value_of(float x) const { return entries_[index_of(x)].value; }
  std::uint16_t code_of(float x) const { return entries_[index_of(x)].code; }

  /// Raw-array view of the search state for a kernel backend's batched
  /// boundary search. Valid while this LUT is alive and unmodified.
  NearestLutView view() const {
    return {edge_keys_.data(), bucket_lo_.data(), entries_.size(),
            nan_index_};
  }

  /// Batched interval resolve through `be`: idx[i] = index_of(x[i]).
  /// The search is integer-exact, so every backend returns the same
  /// indices — dispatching here changes speed, never bits.
  void indices_of(const float* x, std::uint32_t* idx, std::int64_t n,
                  const KernelBackend& be) const {
    be.nearest_indices(view(), x, idx, n);
  }

  /// Batched value_of: out[i] = value_of(x[i]).
  void values_of(const float* x, float* out, std::int64_t n,
                 const KernelBackend& be) const {
    constexpr std::int64_t kChunk = 512;
    std::uint32_t idx[kChunk];
    for (std::int64_t off = 0; off < n; off += kChunk) {
      const std::int64_t c = std::min(kChunk, n - off);
      be.nearest_indices(view(), x + off, idx, c);
      for (std::int64_t i = 0; i < c; ++i) {
        out[off + i] = entries_[idx[i]].value;
      }
    }
  }

  /// Batched code_of: out[i] = code_of(x[i]).
  void codes_of(const float* x, std::uint16_t* out, std::int64_t n,
                const KernelBackend& be) const {
    constexpr std::int64_t kChunk = 512;
    std::uint32_t idx[kChunk];
    for (std::int64_t off = 0; off < n; off += kChunk) {
      const std::int64_t c = std::min(kChunk, n - off);
      be.nearest_indices(view(), x + off, idx, c);
      for (std::int64_t i = 0; i < c; ++i) {
        out[off + i] = entries_[idx[i]].code;
      }
    }
  }

 private:
  std::vector<NearestLutEntry> entries_;    // key-sorted intervals
  std::vector<std::uint32_t> edge_keys_;    // [j] = first key of interval j
  std::vector<std::uint32_t> bucket_lo_;    // per (key >> 16) start index
  std::uint32_t nan_index_ = 0;
};

/// Round-to-nearest-value LUT from a quantizer-style scalar function.
/// `values` is the exact output set of `quantize` (see build()).
template <typename QuantizeFn>
NearestLut build_value_lut(const std::vector<float>& values,
                           QuantizeFn&& quantize) {
  std::vector<NearestLutEntry> entries;
  entries.reserve(values.size());
  for (float v : values) entries.push_back({v, 0});
  return NearestLut::build(std::move(entries), quantize);
}

/// Round-to-nearest-code LUT from a codec-style encode/decode pair: the
/// intervals are the key-distinct decode outputs (NaN codes skipped), each
/// carrying the canonical code the encoder emits for that value, and the
/// oracle is decode(encode(x)). code_of(x) then equals encode(x) for every
/// float, including the redundant-zero and saturation codes.
template <typename EncodeFn, typename DecodeFn>
NearestLut build_encode_lut(int bits, EncodeFn&& encode, DecodeFn&& decode) {
  std::vector<NearestLutEntry> entries;
  entries.reserve(std::size_t{1} << bits);
  for (std::uint32_t c = 0; c < (std::uint32_t{1} << bits); ++c) {
    const float v = decode(static_cast<std::uint16_t>(c));
    if (v != v) continue;  // NaN slot (posit NaR): never an encode target
    entries.push_back({v, encode(v)});
  }
  // Key-duplicate values (e.g. +0/-0 codes) all encode canonically, so
  // keeping one entry per key preserves the code map; build() rejects
  // duplicates, so dedup here.
  std::sort(entries.begin(), entries.end(),
            [](const NearestLutEntry& a, const NearestLutEntry& b) {
              return float_key(a.value) < float_key(b.value);
            });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const NearestLutEntry& a,
                               const NearestLutEntry& b) {
                              return float_key(a.value) == float_key(b.value);
                            }),
                entries.end());
  return NearestLut::build(
      std::move(entries),
      [&](float x) { return decode(encode(x)); });
}

/// Bulk encoder for any format with bits()/encode()/decode(). A format
/// with a non-null encode_view() (AdaptivFloat) encodes through the
/// backend's adaptivfloat_encode — integer field arithmetic, no table.
/// Otherwise a job of at least kNearestLutMinBuildElems values builds the
/// encode LUT once (bisected against fmt.encode itself); smaller jobs keep
/// the scalar encode, whose table build would dominate. Every path emits
/// fmt.encode's codes. `fmt` must outlive the encoder, unrecalibrated.
template <typename Format>
class BulkEncoder {
 public:
  BulkEncoder(const Format& fmt, std::int64_t numel) : fmt_(fmt) {
    if constexpr (requires { fmt.encode_view(); }) view_ = fmt.encode_view();
    if (view_ == nullptr && numel >= kNearestLutMinBuildElems) {
      lut_ = build_encode_lut(
          fmt.bits(), [&](float x) { return fmt.encode(x); },
          [&](std::uint16_t c) { return fmt.decode(c); });
    }
  }

  std::uint16_t operator()(float x) const {
    if (view_ != nullptr) return adaptivfloat_encode_bits(*view_, x);
    return lut_.empty() ? fmt_.encode(x) : lut_.code_of(x);
  }

  /// True when encode() runs a kernel backend entry (the AdaptivFloat
  /// encode or the LUT's batched boundary search), false on the scalar
  /// encode.
  bool batched() const { return view_ != nullptr || !lut_.empty(); }

  /// codes[i] = (*this)(x[i]) for i < n, through `be` when batched().
  /// Every backend returns the same codes.
  void encode(const float* x, std::uint16_t* codes, std::int64_t n,
              const KernelBackend& be) const {
    if (view_ != nullptr) {
      be.adaptivfloat_encode(*view_, x, codes, n);
    } else if (!lut_.empty()) {
      lut_.codes_of(x, codes, n, be);
    } else {
      for (std::int64_t i = 0; i < n; ++i) codes[i] = fmt_.encode(x[i]);
    }
  }

 private:
  const Format& fmt_;
  const AfEncodeView* view_ = nullptr;
  NearestLut lut_;
};

}  // namespace af
