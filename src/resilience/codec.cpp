#include "src/resilience/codec.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/kernels/backend.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace af {

namespace {
constexpr std::int64_t kCodecGrain = 1 << 12;
}  // namespace

FormatCodec::FormatCodec(std::unique_ptr<Quantizer> q, float max_abs)
    : q_(std::move(q)), range_(q_->value_range()) {
  // By monotonicity of round-to-nearest, no |w| <= max_abs encodes to a
  // magnitude above |decode(encode(max_abs))|.
  if (max_abs > 0.0f) {
    range_ = std::min(std::fabs(decode(encode(max_abs))), range_);
  }
  raw_lut_ = DecodeLut(bits(), [this](std::uint16_t c) { return decode(c); });
  hardened_lut_ = DecodeLut(
      bits(), [this](std::uint16_t c) { return decode_hardened(c); });
}

float FormatCodec::decode_hardened(std::uint16_t code) const {
  const float v = decode(code);
  if (std::isnan(v)) return 0.0f;
  return std::clamp(v, -range_, range_);
}

std::vector<std::uint16_t> FormatCodec::encode_tensor(const Tensor& t) const {
  std::vector<std::uint16_t> codes(static_cast<std::size_t>(t.numel()));
  // Every backend emits the same codes.
  const KernelBackend& be = active_backend();
  if (encode_view() != nullptr) count_backend_dispatch(be);
  parallel_for(0, t.numel(), kCodecGrain,
               [&](std::int64_t lo, std::int64_t hi) {
                 encode_span(*q_, t.data() + lo,
                             codes.data() + static_cast<std::size_t>(lo),
                             hi - lo, be);
               });
  return codes;
}

Tensor FormatCodec::decode_tensor(const std::vector<std::uint16_t>& codes,
                                  const Shape& shape, bool hardened) const {
  AF_CHECK(static_cast<std::int64_t>(codes.size()) == numel_of(shape),
           "code count does not match the target shape");
  Tensor out(shape);
  const DecodeLut& lut = decode_lut(hardened);
  const std::uint16_t mask =
      static_cast<std::uint16_t>((1u << bits()) - 1u);
  const std::int64_t n = out.numel();
  parallel_for(0, n, kCodecGrain, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      // All producers (encode_tensor, unpack_codes) emit codes < 2^bits;
      // the mask only guards the table bound for hand-built vectors.
      out[i] = lut[static_cast<std::uint16_t>(
          codes[static_cast<std::size_t>(i)] & mask)];
    }
  });
  return out;
}

std::unique_ptr<FormatCodec> make_codec(FormatKind kind, int bits,
                                        float max_abs, QuantizerOptions opts) {
  AF_CHECK(bits >= 2 && bits <= 16, "codec width must be in [2,16]");
  AF_CHECK(!(max_abs < 0.0f) && std::isfinite(max_abs),
           "max_abs must be finite and non-negative");
  std::unique_ptr<Quantizer> q = make_quantizer(kind, bits, opts);
  q->calibrate_max_abs(max_abs);
  return std::make_unique<FormatCodec>(std::move(q), max_abs);
}

}  // namespace af
