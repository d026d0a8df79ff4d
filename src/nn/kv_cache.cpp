#include "src/nn/kv_cache.hpp"

#include <algorithm>
#include <cstring>

#include "src/kernels/decode_lut.hpp"
#include "src/util/fault.hpp"

namespace af {

namespace {

// Codes live byte-aliased inside float tensor storage so they ride the same
// arena planning as every other decode-session buffer.
std::uint8_t* region(Tensor& codes) {
  return reinterpret_cast<std::uint8_t*>(codes.data());
}

const std::uint8_t* region(const Tensor& codes) {
  return reinterpret_cast<const std::uint8_t*>(codes.data());
}

std::int64_t floats_for_bytes(std::size_t bytes) {
  return static_cast<std::int64_t>((bytes + sizeof(float) - 1) /
                                   sizeof(float));
}

// Bytes `n` codes of `bits` width occupy at the start of a region.
std::size_t code_bytes(std::int64_t n, int bits) {
  return static_cast<std::size_t>((n * bits + 7) / 8);
}

}  // namespace

void KvState::init(std::int64_t capacity, std::int64_t d,
                   KvQuantConfig quant) {
  if (capacity <= 0 || d <= 0) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState::init requires positive capacity/dim");
  }
  if ((quant.k_codec != nullptr) != (quant.v_codec != nullptr)) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState quantization needs both K and V codecs");
  }
  if (quant.enabled() && quant.v_codec->bits() != quant.k_codec->bits()) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState K/V codecs must share one code width");
  }
  cap_ = capacity;
  d_ = d;
  len_ = 0;
  quant_ = std::move(quant);
  bits_ = quant_.enabled() ? quant_.k_codec->bits() : 32;
  region_bytes_ = code_bytes(cap_ * d_, bits_);
  const std::int64_t code_floats = floats_for_bytes(region_bytes_);
  k_codes_ = Tensor({code_floats});
  v_codes_ = Tensor({code_floats});
  if (quant_.enabled()) {
    k_table_ = quant_.k_codec->decode_lut(false).data();
    v_table_ = quant_.v_codec->decode_lut(false).data();
  } else {
    k_table_ = v_table_ = nullptr;
  }
}

void KvState::write_row(const float* k_row, const float* v_row,
                        std::int64_t j, const KernelBackend& be) {
  std::uint8_t* kr = region(k_codes_);
  std::uint8_t* vr = region(v_codes_);
  if (!quant_.enabled()) {
    // An fp32 row is its own 32-bit code: the region holds the row verbatim.
    const std::size_t off = static_cast<std::size_t>(j * d_) * sizeof(float);
    std::memcpy(kr + off, k_row, static_cast<std::size_t>(d_) * sizeof(float));
    std::memcpy(vr + off, v_row, static_cast<std::size_t>(d_) * sizeof(float));
    return;
  }
  // A chunk of codes at a time through the backend's encode entry, then
  // packed.
  constexpr std::int64_t kChunk = 64;
  std::uint16_t kc[kChunk], vc[kChunk];
  for (std::int64_t c0 = 0; c0 < d_; c0 += kChunk) {
    const std::int64_t n = std::min(kChunk, d_ - c0);
    encode_span(*quant_.k_codec, k_row + c0, kc, n, be);
    encode_span(*quant_.v_codec, v_row + c0, vc, n, be);
    std::size_t bitpos = static_cast<std::size_t>(j * d_ + c0) *
                         static_cast<std::size_t>(bits_);
    for (std::int64_t col = 0; col < n; ++col, bitpos += bits_) {
      store_packed_code(kr, region_bytes_, bitpos, bits_, kc[col]);
      store_packed_code(vr, region_bytes_, bitpos, bits_, vc[col]);
    }
  }
}

void KvState::append(const Tensor& k_step, const Tensor& v_step,
                     const KernelBackend& be) {
  if (k_step.rank() != 2 || k_step.dim(0) != 1 || k_step.dim(1) != d_ ||
      v_step.rank() != 2 || v_step.dim(0) != 1 || v_step.dim(1) != d_) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState::append expects [1, D] K/V steps matching init");
  }
  append_row(k_step.data(), v_step.data(), be);
}

void KvState::append_row(const float* k_row, const float* v_row,
                         const KernelBackend& be) {
  if (!initialized()) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState::append before init");
  }
  if (len_ >= cap_) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState capacity exhausted: cache planned for " +
                         std::to_string(cap_) + " steps");
  }
  write_row(k_row, v_row, len_, be);
  ++len_;
}

void KvState::append_block(const Tensor& k, const Tensor& v,
                           const KernelBackend& be) {
  if (!initialized()) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState::append_block before init");
  }
  if (len_ != 0) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState::append_block requires an empty cache");
  }
  if (k.rank() != 2 || k.dim(1) != d_ || v.rank() != 2 ||
      v.shape() != k.shape()) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState::append_block expects [t, D] K/V projections");
  }
  const std::int64_t t = k.dim(0);
  if (t <= 0 || t > cap_) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState::append_block length exceeds planned capacity");
  }
  for (std::int64_t j = 0; j < t; ++j) {
    write_row(k.data() + j * d_, v.data() + j * d_, j, be);
  }
  len_ = t;
}

KvState::Operands KvState::operands() const {
  if (!initialized()) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState::operands before init");
  }
  return {{region(k_codes_), region_bytes_, bits_, k_table_, d_, 0},
          {region(v_codes_), region_bytes_, bits_, v_table_, d_, 0}};
}

void KvState::read_row(std::int64_t j, float* k_out, float* v_out) const {
  if (j < 0 || j >= len_) {
    throw FaultError("kv_cache", FaultKind::kMalformedInput,
                     "KvState::read_row step out of range");
  }
  const Operands ops = operands();
  const auto read = [&](const AttendOperand& o, float* out) {
    const auto row_bytes = static_cast<std::size_t>(d_) * sizeof(float);
    if (bits_ == 32) {
      std::memcpy(out, o.bytes + static_cast<std::size_t>(j) * row_bytes,
                  row_bytes);
    } else {
      unpack_decode_scalar(o.bytes, o.nbytes, bits_, j * d_, d_, o.table, out);
    }
  };
  read(ops.k, k_out);
  read(ops.v, v_out);
}

std::size_t KvState::payload_bytes() const {
  if (!initialized()) return 0;
  // Bytes actually occupied by cached codes, rounded up to whole bytes.
  return 2 * code_bytes(len_ * d_, bits_);
}

std::size_t KvState::bytes_per_step() const {
  if (!initialized()) return 0;
  return 2 * code_bytes(d_, bits_);
}

}  // namespace af
