// Scaled dot-product multi-head attention (Vaswani et al., 2017).
#pragma once

#include <optional>
#include <span>
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
/// incremental decoding (each stream's new timestep against its KvState of
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
  //
  // A decode step takes S streams at once: row r of x [S, D] is stream r's
  // new timestep, and kv[r] is stream r's own cache. The projections run
  // once over the S rows (every row of a gemm_dot_rows product has the
  // same bits at any S), and each row attends its own history, so row r's
  // result does not depend on which streams share its step. A solo step
  // is S = 1.

  /// Causal self-attention step: projects x [S, D], appends row r's K/V
  /// projections to kv[r], and attends row r's query over all of kv[r]'s
  /// cached steps. Returns [S, D]. The newest key is the query's own
  /// position, so the cached prefix is exactly the causally visible
  /// window — no mask needed. Every state is checked (initialized, width
  /// D, room for one more step) before anything is appended.
  Tensor decode_self_step(const Tensor& x, std::span<KvState* const> kv,
                          ExecutionContext& ctx);

  /// Cross-attention prefill: projects the encoder output enc [1, Tk, D]
  /// once and block-fills `kv` (the encoder side never changes during
  /// decoding, so its projections are computed exactly once per sequence).
  void prefill_cross(const Tensor& enc, KvState& kv, ExecutionContext& ctx);

  /// Cross-attention step: projects the queries x [S, D] and attends row r
  /// over the prefilled encoder-side cache kv[r], masking keys at
  /// positions >= kv_valid[r] (its source's unpadded length). Returns
  /// [S, D].
  Tensor decode_cross_step(const Tensor& x, std::span<const KvState* const> kv,
                           std::span<const std::int64_t> kv_valid,
                           ExecutionContext& ctx);

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

  /// Throws FaultError(kMalformedInput) unless x is [kv_rows, D].
  void check_step_rows(const Tensor& x, std::size_t kv_rows,
                       const char* what) const;

  /// Shared tail of both decode steps: attends row r of the projected
  /// queries q [S, D] over kv[r]'s cached rows, masking keys at positions
  /// >= valid[r] (every cached row when `valid` is null), then applies
  /// wo_ once over the S rows.
  Tensor attend_cached(const Tensor& q, const KvState* const* kv,
                       const std::int64_t* valid, ExecutionContext& ctx);

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
