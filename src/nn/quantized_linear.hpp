// Deployment-form linear layer: weights stored as packed AdaptivFloat
// codes, decoded on the fly during inference.
//
// This is the software mirror of what the HFINT accelerator's weight
// buffers hold — the fake-quantization used during evaluation (carrying
// quantized values in FP32) and this packed execution path must agree
// bit-for-bit, which the tests assert.
#pragma once

#include <memory>

#include "src/core/bitpack.hpp"
#include "src/nn/linear.hpp"
#include "src/resilience/abft.hpp"

namespace af {

/// Inference-only linear layer over packed AdaptivFloat weights.
class QuantizedLinear final : public Module {
 public:
  /// Quantizes the given trained layer's weights with Algorithm 1. The bias
  /// stays FP32 (biases are accumulated at full precision in the PE too).
  QuantizedLinear(Linear& source, int bits, int exp_bits);

  /// Deployment-boot form: adopts already-packed [out, in] weights — in
  /// particular a zero-copy view over an mmap'd snapshot, whose bytes the
  /// fused GEMM then reads straight out of the page cache — plus an FP32
  /// bias ([out], or empty for none). No quantization happens here; the
  /// codes are served as stored.
  QuantizedLinear(PackedAdaptivFloatTensor weight, Tensor bias);

  /// x: [m, in] -> [m, out]. The product is always the fused packed GEMM
  /// on ctx.kernel_backend(), whose weight panels are decoded by table into
  /// cache-resident tiles inside the kernel, so the full FP32 weight matrix
  /// is never materialized (bit-identical to matmul(x, unpack(), false,
  /// true) under the scalar backend, for every AF_THREADS value). A
  /// checksummed (ABFT) request runs the same product through
  /// abft_checked_product, predicting its sums from the decoded weights
  /// and the cached weight-side sums, so a clean protected forward has the
  /// bits of the unprotected one on every backend. A guard request wraps
  /// the compute. Inference-only: the layer has no adjoint, so
  /// ctx.training caches nothing.
  Tensor forward(const Tensor& x, ExecutionContext& ctx) override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  const PackedAdaptivFloatTensor& packed_weight() const { return weight_; }

  /// The packed weights decoded to [out, in] FP32 — the values the ABFT
  /// route predicts its checksums from; the product itself never reads it.
  /// Decoded once and cached: the packed payload is immutable, so repeated
  /// forwards reuse the same tensor, and the ABFT weight-side sums are
  /// built once from it beside it. Lazy-init of both is not thread-safe
  /// against concurrent first calls on the same layer (the pre-existing
  /// constraint of every lazily-calibrated path here); it is never invoked
  /// from inside a parallel body.
  const Tensor& decoded_weight() const;
  const Tensor& bias() const { return bias_; }

  /// How many times the cache actually decoded (test seam: the second
  /// protected forward must not re-decode).
  int decode_count() const { return decode_count_; }

  /// Storage for the weights in bytes (vs 4 bytes/element FP32).
  std::size_t weight_bytes() const { return weight_.payload_bytes(); }

 private:
  std::int64_t in_;
  std::int64_t out_;
  PackedAdaptivFloatTensor weight_;
  Tensor bias_;
  /// abft_weight_sums(decoded_weight(), /*trans_b=*/true), built lazily
  /// under the same constraints as the decode cache.
  const AbftWeightSums& weight_sums() const;

  mutable Tensor decoded_;  // empty until decoded_weight() first runs
  mutable bool decoded_valid_ = false;
  mutable int decode_count_ = 0;
  mutable AbftWeightSums weight_sums_;  // empty until weight_sums() runs
  mutable bool weight_sums_valid_ = false;
};

}  // namespace af
