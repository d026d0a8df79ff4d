// Dense bit-packing of AdaptivFloat-encoded tensors.
//
// "AdaptivFloat's superior bit compression ability paves the way to
// efficient bit packing into resource-constrained accelerators" (paper
// Section 5). This module provides the storage half of that claim: n-bit
// codes packed back-to-back into a byte stream (LSB-first within each
// byte), with exact round-trip decode. An 8-bit-quantized tensor occupies
// 25% of its FP32 footprint; a 4-bit one 12.5%.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/adaptivfloat.hpp"
#include "src/kernels/decode_lut.hpp"
#include "src/tensor/tensor.hpp"

namespace af {

/// Packs `count` codes of `bits` width each into ceil(count*bits/8) bytes.
/// Codes must fit in `bits` (checked). The unused high bits of the final
/// partial byte are always zero.
std::vector<std::uint8_t> pack_codes(const std::vector<std::uint16_t>& codes,
                                     int bits);

/// How unpack_codes treats stray high bits in the final partial byte —
/// bits pack_codes always leaves zero, so a nonzero one proves the payload
/// was corrupted or mis-sized.
enum class StrayBits {
  kReject,  ///< throw af::Error on any nonzero stray bit (default)
  kMask,    ///< ignore stray bits (resilience paths scrub payloads that
            ///< may legally carry flipped tail bits)
};

/// Inverse of pack_codes. When the payload is exactly ceil(count*bits/8)
/// bytes, stray high bits in the final byte are policed per `policy`;
/// oversized payloads (more bytes than the codes need) are accepted and
/// their trailing bytes are never inspected.
std::vector<std::uint16_t> unpack_codes(const std::vector<std::uint8_t>& bytes,
                                        int bits, std::size_t count,
                                        StrayBits policy = StrayBits::kReject);

/// Span form of unpack_codes — the zero-copy paths (mmap'd snapshot
/// sections) have bytes that live in a mapping, not a vector.
std::vector<std::uint16_t> unpack_codes(const std::uint8_t* bytes,
                                        std::size_t nbytes, int bits,
                                        std::size_t count,
                                        StrayBits policy = StrayBits::kReject);

/// A tensor stored as packed AdaptivFloat codes: the deployment format a
/// weight buffer would hold. Carries its shape and the format (including
/// the per-tensor exp_bias) needed to reconstruct values.
///
/// Storage is either owned (a private byte vector, the default) or a
/// zero-copy view over externally managed bytes — an mmap'd snapshot
/// section. A view shares ownership of its backing store through a
/// type-erased keepalive, so the mapping outlives every tensor cut from it.
class PackedAdaptivFloatTensor {
 public:
  /// Quantizes and packs with Algorithm 1 (bias from max-abs).
  static PackedAdaptivFloatTensor quantize_pack(const Tensor& w, int bits,
                                                int exp_bits);

  /// Zero-copy view over an external payload of exactly
  /// ceil(numel*bits/8) bytes (checked). `keepalive` shares ownership of
  /// whatever object keeps `data` mapped (may be null when the caller
  /// guarantees the span outlives the tensor).
  static PackedAdaptivFloatTensor view(const AdaptivFloatFormat& format,
                                       Shape shape, const std::uint8_t* data,
                                       std::size_t len,
                                       std::shared_ptr<const void> keepalive);

  PackedAdaptivFloatTensor(const PackedAdaptivFloatTensor& other);
  PackedAdaptivFloatTensor& operator=(const PackedAdaptivFloatTensor& other);
  PackedAdaptivFloatTensor(PackedAdaptivFloatTensor&& other) noexcept;
  PackedAdaptivFloatTensor& operator=(
      PackedAdaptivFloatTensor&& other) noexcept;
  ~PackedAdaptivFloatTensor() = default;

  /// Decodes every element back to an FP32 tensor (== the fake-quantized
  /// tensor Algorithm 1 produces).
  Tensor unpack() const;

  const AdaptivFloatFormat& format() const { return format_; }
  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return numel_of(shape_); }

  /// Packed payload size in bytes (excluding the format metadata).
  std::size_t payload_bytes() const { return size_; }

  /// Storage relative to FP32: bits / 32.
  double compression_ratio() const {
    return static_cast<double>(format_.bits()) / 32.0;
  }

  /// Random access to one element without unpacking the rest.
  float value_at(std::int64_t index) const;

  /// Payload bytes — owned buffer or external view, uniformly.
  const std::uint8_t* data() const { return data_; }

  /// True when the payload lives in externally managed storage (a mapped
  /// snapshot) rather than this tensor's own buffer.
  bool is_view() const { return data_ != bytes_.data(); }

  /// Owned storage only (views have no vector to hand out); prefer
  /// data()/payload_bytes(), which work for both.
  const std::vector<std::uint8_t>& bytes() const {
    AF_CHECK(!is_view(), "bytes() on a view-backed packed tensor");
    return bytes_;
  }

  /// Per-tensor code -> FP32 decode table (2^bits entries), built once at
  /// construction from the format's decode(). The tensor is immutable
  /// (payload and format are fixed by quantize_pack), so the table can
  /// never go stale; mutable payloads (ProtectedPackedTensor) rebuild
  /// values from the live bytes on every unpack instead.
  const DecodeLut& decode_lut() const { return *lut_; }

 private:
  PackedAdaptivFloatTensor(AdaptivFloatFormat format, Shape shape,
                           std::vector<std::uint8_t> bytes);
  PackedAdaptivFloatTensor(AdaptivFloatFormat format, Shape shape,
                           const std::uint8_t* data, std::size_t len,
                           std::shared_ptr<const void> keepalive);

  AdaptivFloatFormat format_;
  Shape shape_;
  std::vector<std::uint8_t> bytes_;     ///< owned storage; empty for views
  const std::uint8_t* data_ = nullptr;  ///< payload (owned or external)
  std::size_t size_ = 0;                ///< payload byte count
  std::shared_ptr<const void> keepalive_;  ///< view backing-store owner
  std::shared_ptr<const DecodeLut> lut_;  // shared by copies; immutable
};

}  // namespace af
