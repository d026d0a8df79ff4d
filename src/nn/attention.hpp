// Scaled dot-product multi-head attention (Vaswani et al., 2017).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "src/nn/kv_cache.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/module.hpp"

namespace af {

/// Multi-head attention over batched sequences.
///
/// Inputs are rank-3 [B, T, D]; projections run on the flattened [B*T, D]
/// matrix and the attention itself loops over (batch, head) pairs.
/// Supports causal masking (self-attention in the decoder) and key padding
/// via per-batch valid lengths (cross-attention onto padded encodings).
///
/// The forward is factored into project / append / attend phases so that
/// incremental decoding (one stream's new timestep against a KvState of
/// cached projections) and the monolithic [B, T, D] paths run the exact
/// same per-row attend core — row i of a monolithic causal forward is
/// bit-identical to the i-th decode_self_step over an fp32 KvState
/// (DESIGN.md §15).
class MultiHeadAttention final : public Module {
 public:
  MultiHeadAttention(std::int64_t d_model, std::int64_t num_heads, Pcg32& rng,
                     const std::string& name = "mha");

  /// Monolithic forward through the ctx-dispatched projections.
  /// q_in: [B, Tq, D]; kv_in: [B, Tk, D]. When `causal`, requires Tq == Tk
  /// and masks j > i. `kv_lengths` (optional, size B) masks keys at
  /// positions >= length. Shape defects throw FaultError(kMalformedInput) —
  /// a malformed serving request fails its ticket, never the process.
  /// Under ctx.training the projections and per-head softmax weights are
  /// cached for backward; inference reuses one score row and keeps nothing.
  Tensor forward(const Tensor& q_in, const Tensor& kv_in, bool causal,
                 const std::vector<std::int64_t>* kv_lengths,
                 ExecutionContext& ctx);

  // ----- incremental decoding -----------------------------------------------

  /// Causal self-attention step: projects x [1, D] (one new timestep),
  /// appends the K/V projections to `kv`, and attends the new query over
  /// all cached steps. Returns [1, D]. The newest key is the query's own
  /// position, so the cached prefix is exactly the causally visible
  /// window — no mask needed.
  Tensor decode_self_step(const Tensor& x, KvState& kv, ExecutionContext& ctx);

  /// Cross-attention prefill: projects the encoder output enc [1, Tk, D]
  /// once and block-fills `kv` (the encoder side never changes during
  /// decoding, so its projections are computed exactly once per sequence).
  void prefill_cross(const Tensor& enc, KvState& kv, ExecutionContext& ctx);

  /// Cross-attention step: projects the query x [1, D] and attends over the
  /// prefilled encoder-side cache, masking keys at positions >= `kv_valid`
  /// (the source's unpadded length). Returns [1, D].
  Tensor decode_cross_step(const Tensor& x, const KvState& kv,
                           std::int64_t kv_valid, ExecutionContext& ctx);

  // ----- KV range recording --------------------------------------------------

  /// When enabled, the monolithic forward tracks the running max-abs of the
  /// projected K and V activations — the calibration statistic a quantized
  /// KV cache recalibrates its per-layer exp_bias from. Enabling resets the
  /// recorded ranges.
  void set_kv_range_recording(bool on) {
    record_kv_ranges_ = on;
    if (on) k_range_seen_ = v_range_seen_ = 0.0f;
  }
  float k_range_seen() const { return k_range_seen_; }
  float v_range_seen() const { return v_range_seen_; }

  /// dy: [B, Tq, D] -> (dq_in, dkv_in). For self-attention the caller adds
  /// the two input gradients.
  std::pair<Tensor, Tensor> backward(const Tensor& dy);

  std::vector<Parameter*> parameters() override;
  void clear_cache() override {
    cache_.clear();
    wq_.clear_cache();
    wk_.clear_cache();
    wv_.clear_cache();
    wo_.clear_cache();
  }
  std::int64_t cache_depth() const override {
    return static_cast<std::int64_t>(cache_.size()) + wq_.cache_depth() +
           wk_.cache_depth() + wv_.cache_depth() + wo_.cache_depth();
  }

  std::int64_t d_model() const { return d_model_; }
  std::int64_t num_heads() const { return heads_; }

 private:
  struct Cache {
    Tensor q, k, v;                // projected, flattened [B*T, D]
    std::vector<Tensor> attn;      // per (b, h): [Tq, Tk] softmax weights
    std::int64_t b = 0, tq = 0, tk = 0;
  };

  void check_inputs(const Tensor& q_in, const Tensor& kv_in, bool causal,
                    const std::vector<std::int64_t>* kv_lengths) const;

  /// Shared tail of both decode steps: attends the projected query
  /// q [1, D] over `kv`'s cached rows, masking keys at positions >=
  /// `valid`, then applies wo_.
  Tensor attend_cached(const Tensor& q, const KvState& kv, std::int64_t valid,
                       ExecutionContext& ctx);

  std::int64_t d_model_;
  std::int64_t heads_;
  std::int64_t d_head_;
  Linear wq_, wk_, wv_, wo_;
  std::vector<Cache> cache_;

  bool record_kv_ranges_ = false;
  float k_range_seen_ = 0.0f;
  float v_range_seen_ = 0.0f;
};

}  // namespace af
