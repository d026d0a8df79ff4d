// The packed-code layout and its table-driven decode.
//
// n-bit codes are packed back-to-back, LSB-first, into a byte stream.
// packed_code_at reads one code of that layout and store_packed_code writes
// one; pack_codes/unpack_codes, the KV cache and the LUT decoders below all
// go through this pair.
//
// An n-bit format has at most 2^n distinct codes, so decode is a table
// lookup: build the code -> FP32 table once per (format, calibration) and
// stream packed payloads through it instead of re-running the field
// arithmetic per element. The table entries are produced by the format's
// own decode(), so a LUT decode is bit-identical to the scalar path by
// construction — the fast path changes *when* decode runs, never *what* it
// returns.
//
// Header-only so every layer (core bitpack, resilience codecs, hw buffer
// fills, the fused GEMM) can use it without a link-time dependency cycle.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/util/check.hpp"

namespace af {

/// code -> FP32 value table for one n-bit format instance (2^n entries).
class DecodeLut {
 public:
  DecodeLut() = default;

  /// Builds the table by evaluating `decode(code)` for every code.
  template <typename DecodeFn>
  DecodeLut(int bits, DecodeFn&& decode) : bits_(bits) {
    AF_CHECK(bits >= 1 && bits <= 16, "DecodeLut width must be in [1,16]");
    table_.resize(std::size_t{1} << bits);
    for (std::size_t c = 0; c < table_.size(); ++c) {
      table_[c] = decode(static_cast<std::uint16_t>(c));
    }
  }

  int bits() const { return bits_; }
  bool empty() const { return table_.empty(); }
  std::size_t size() const { return table_.size(); }

  float operator[](std::uint16_t code) const {
    return table_[static_cast<std::size_t>(code)];
  }

  const float* data() const { return table_.data(); }

 private:
  int bits_ = 0;
  std::vector<float> table_;
};

/// Extracts the n-bit code starting at bit `bitpos` of an LSB-first packed
/// stream. Reads a 3-byte window when it fits ((bitpos & 7) + bits <= 23
/// for bits <= 16), falling back to byte-wise assembly at the payload tail
/// so it never reads past `nbytes`.
inline std::uint16_t packed_code_at(const std::uint8_t* bytes,
                                    std::size_t nbytes, std::size_t bitpos,
                                    int bits) {
  const std::size_t byte = bitpos >> 3;
  const unsigned shift = static_cast<unsigned>(bitpos & 7u);
  const std::uint32_t mask = (std::uint32_t{1} << bits) - 1u;
  std::uint32_t window = bytes[byte];
  if (byte + 1 < nbytes) window |= std::uint32_t{bytes[byte + 1]} << 8;
  if (byte + 2 < nbytes) window |= std::uint32_t{bytes[byte + 2]} << 16;
  return static_cast<std::uint16_t>((window >> shift) & mask);
}

/// Read-modify-write of one n-bit code at `bitpos` of an LSB-first packed
/// stream — the encode-side mirror of packed_code_at. Because every write
/// preserves the neighbouring bits, appending over stale codes left by a
/// reset() needs no re-zeroing pass.
inline void store_packed_code(std::uint8_t* bytes, std::size_t nbytes,
                              std::size_t bitpos, int bits,
                              std::uint16_t code) {
  const std::size_t byte = bitpos >> 3;
  const unsigned shift = static_cast<unsigned>(bitpos & 7u);
  const std::uint32_t mask = ((std::uint32_t{1} << bits) - 1u) << shift;
  std::uint32_t window = bytes[byte];
  if (byte + 1 < nbytes) window |= std::uint32_t{bytes[byte + 1]} << 8;
  if (byte + 2 < nbytes) window |= std::uint32_t{bytes[byte + 2]} << 16;
  window = (window & ~mask) | ((std::uint32_t{code} << shift) & mask);
  bytes[byte] = static_cast<std::uint8_t>(window & 0xffu);
  if (byte + 1 < nbytes) {
    bytes[byte + 1] = static_cast<std::uint8_t>((window >> 8) & 0xffu);
  }
  if (byte + 2 < nbytes) {
    bytes[byte + 2] = static_cast<std::uint8_t>((window >> 16) & 0xffu);
  }
}

/// Fused unpack+decode over a raw 2^bits-entry table: decodes `count`
/// consecutive codes starting at element `first` of the packed stream into
/// out[0..count). Stray high bits in the final partial byte are masked off
/// per code (the caller polices them if its policy is kReject). Pure
/// function of the inputs — safe to call from disjoint parallel_for chunks.
/// This is the scalar backend's unpack_decode primitive.
inline void unpack_decode_scalar(const std::uint8_t* bytes, std::size_t nbytes,
                                 int bits, std::int64_t first,
                                 std::int64_t count, const float* table,
                                 float* out) {
  std::size_t bitpos =
      static_cast<std::size_t>(first) * static_cast<std::size_t>(bits);
  for (std::int64_t i = 0; i < count; ++i, bitpos += bits) {
    out[i] = table[packed_code_at(bytes, nbytes, bitpos, bits)];
  }
}

/// GEMM tile fill: decodes the block W[j0:j1, k0:k1) of a row-major packed
/// weight with `ld` codes per row into out[(kk - k0) * ldo + (j - j0)] — a
/// k-major tile with row stride `ldo`. Each weight row's k-run is a
/// contiguous bit run decoded down one tile column. Identical values to
/// unpack_decode_scalar by construction. It is the scalar backend's
/// decode_tile (ldo = j1 - j0) and fills the AVX2 entry's ragged edges.
inline void decode_tile_scalar(const std::uint8_t* bytes, std::size_t nbytes,
                               int bits, std::int64_t ld, std::int64_t j0,
                               std::int64_t j1, std::int64_t k0,
                               std::int64_t k1, const float* table,
                               float* out, std::int64_t ldo) {
  for (std::int64_t j = j0; j < j1; ++j) {
    std::size_t bitpos = static_cast<std::size_t>(j * ld + k0) *
                         static_cast<std::size_t>(bits);
    float* col = out + (j - j0);
    for (std::int64_t kk = k0; kk < k1; ++kk, bitpos += bits) {
      col[(kk - k0) * ldo] = table[packed_code_at(bytes, nbytes, bitpos, bits)];
    }
  }
}

}  // namespace af
