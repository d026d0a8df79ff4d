#include "src/core/bitpack.hpp"

#include "src/core/algorithm1.hpp"
#include "src/kernels/backend.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace af {
namespace {

/// The StrayBits::kReject policing of unpack_codes, shared by the fused
/// unpack path: bits beyond the last code in an exactly-sized payload must
/// be zero (pack_codes always leaves them zero).
void check_no_stray_bits(const std::uint8_t* bytes, std::size_t nbytes,
                         int bits, std::size_t count) {
  const std::size_t used_bits = count * static_cast<std::size_t>(bits);
  if (nbytes == (used_bits + 7) / 8 && (used_bits & 7) != 0) {
    const auto stray =
        static_cast<std::uint8_t>(bytes[nbytes - 1] >> (used_bits & 7));
    AF_CHECK(stray == 0,
             "stray high bits set in the final partial byte (corrupt or "
             "mis-sized payload); pass StrayBits::kMask to ignore them");
  }
}

}  // namespace

std::vector<std::uint8_t> pack_codes(const std::vector<std::uint16_t>& codes,
                                     int bits) {
  AF_CHECK(bits >= 1 && bits <= 16, "code width must be in [1,16]");
  const std::size_t total_bits = codes.size() * static_cast<std::size_t>(bits);
  std::vector<std::uint8_t> out((total_bits + 7) / 8, 0);
  std::size_t bitpos = 0;
  for (std::uint16_t code : codes) {
    AF_CHECK(code < (1u << bits), "code wider than declared width");
    store_packed_code(out.data(), out.size(), bitpos, bits, code);
    bitpos += static_cast<std::size_t>(bits);
  }
  return out;
}

std::vector<std::uint16_t> unpack_codes(const std::vector<std::uint8_t>& bytes,
                                        int bits, std::size_t count,
                                        StrayBits policy) {
  return unpack_codes(bytes.data(), bytes.size(), bits, count, policy);
}

std::vector<std::uint16_t> unpack_codes(const std::uint8_t* bytes,
                                        std::size_t nbytes, int bits,
                                        std::size_t count, StrayBits policy) {
  AF_CHECK(bits >= 1 && bits <= 16, "code width must be in [1,16]");
  const std::size_t used_bits = count * static_cast<std::size_t>(bits);
  AF_CHECK(nbytes * 8 >= used_bits,
           "packed payload too small for the requested element count");
  if (policy == StrayBits::kReject) {
    check_no_stray_bits(bytes, nbytes, bits, count);
  }
  std::vector<std::uint16_t> out(count, 0);
  std::size_t bitpos = 0;
  for (std::size_t i = 0; i < count; ++i, bitpos += bits) {
    out[i] = packed_code_at(bytes, nbytes, bitpos, bits);
  }
  return out;
}

PackedAdaptivFloatTensor::PackedAdaptivFloatTensor(
    AdaptivFloatFormat format, Shape shape, std::vector<std::uint8_t> bytes)
    : format_(format),
      shape_(std::move(shape)),
      bytes_(std::move(bytes)),
      data_(bytes_.data()),
      size_(bytes_.size()),
      lut_(std::make_shared<DecodeLut>(
          format_.bits(),
          [this](std::uint16_t code) { return format_.decode(code); })) {}

PackedAdaptivFloatTensor::PackedAdaptivFloatTensor(
    AdaptivFloatFormat format, Shape shape, const std::uint8_t* data,
    std::size_t len, std::shared_ptr<const void> keepalive)
    : format_(format),
      shape_(std::move(shape)),
      data_(data),
      size_(len),
      keepalive_(std::move(keepalive)),
      lut_(std::make_shared<DecodeLut>(
          format_.bits(),
          [this](std::uint16_t code) { return format_.decode(code); })) {}

// Copies must re-anchor data_ — an owned tensor's pointer targets its own
// vector, never the source's. Views share the external span and keepalive.
PackedAdaptivFloatTensor::PackedAdaptivFloatTensor(
    const PackedAdaptivFloatTensor& other)
    : format_(other.format_),
      shape_(other.shape_),
      bytes_(other.bytes_),
      data_(other.is_view() ? other.data_ : bytes_.data()),
      size_(other.size_),
      keepalive_(other.keepalive_),
      lut_(other.lut_) {}

PackedAdaptivFloatTensor& PackedAdaptivFloatTensor::operator=(
    const PackedAdaptivFloatTensor& other) {
  if (this == &other) return *this;
  format_ = other.format_;
  shape_ = other.shape_;
  bytes_ = other.bytes_;
  data_ = other.is_view() ? other.data_ : bytes_.data();
  size_ = other.size_;
  keepalive_ = other.keepalive_;
  lut_ = other.lut_;
  return *this;
}

// Moving a vector transfers its heap buffer verbatim, so data_ stays valid
// for owned tensors and external for views — it moves unchanged.
PackedAdaptivFloatTensor::PackedAdaptivFloatTensor(
    PackedAdaptivFloatTensor&& other) noexcept
    : format_(other.format_),
      shape_(std::move(other.shape_)),
      bytes_(std::move(other.bytes_)),
      data_(other.data_),
      size_(other.size_),
      keepalive_(std::move(other.keepalive_)),
      lut_(std::move(other.lut_)) {}

PackedAdaptivFloatTensor& PackedAdaptivFloatTensor::operator=(
    PackedAdaptivFloatTensor&& other) noexcept {
  if (this == &other) return *this;
  format_ = other.format_;
  shape_ = std::move(other.shape_);
  bytes_ = std::move(other.bytes_);
  data_ = other.data_;
  size_ = other.size_;
  keepalive_ = std::move(other.keepalive_);
  lut_ = std::move(other.lut_);
  return *this;
}

PackedAdaptivFloatTensor PackedAdaptivFloatTensor::quantize_pack(
    const Tensor& w, int bits, int exp_bits) {
  auto res = adaptivfloat_quantize(w, bits, exp_bits);
  return PackedAdaptivFloatTensor(res.format, w.shape(),
                                  pack_codes(res.codes, bits));
}

PackedAdaptivFloatTensor PackedAdaptivFloatTensor::view(
    const AdaptivFloatFormat& format, Shape shape, const std::uint8_t* data,
    std::size_t len, std::shared_ptr<const void> keepalive) {
  const std::size_t need =
      (static_cast<std::size_t>(numel_of(shape)) *
           static_cast<std::size_t>(format.bits()) + 7) / 8;
  AF_CHECK(len == need, "view payload size does not match shape and width");
  return PackedAdaptivFloatTensor(format, std::move(shape), data, len,
                                  std::move(keepalive));
}

Tensor PackedAdaptivFloatTensor::unpack() const {
  const auto count = static_cast<std::size_t>(numel());
  const int bits = format_.bits();
  check_no_stray_bits(data_, size_, bits, count);
  Tensor out(shape_);
  // Fused unpack+decode through the cached table; disjoint output chunks,
  // so bit-identical for any AF_THREADS value (and across backends — the
  // decode is a pure table map).
  const KernelBackend& be = active_backend();
  count_backend_dispatch(be);
  const float* table = lut_->data();
  constexpr std::int64_t kGrain = 1 << 12;
  parallel_for(0, numel(), kGrain, [&](std::int64_t b, std::int64_t e) {
    be.unpack_decode(data_, size_, bits, b, e - b, table, out.data() + b);
  });
  return out;
}

float PackedAdaptivFloatTensor::value_at(std::int64_t index) const {
  AF_CHECK(index >= 0 && index < numel(), "packed index out of range");
  const int bits = format_.bits();
  return (*lut_)[packed_code_at(
      data_, size_,
      static_cast<std::size_t>(index) * static_cast<std::size_t>(bits), bits)];
}

}  // namespace af
