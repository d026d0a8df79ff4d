// Encoder-decoder Transformer for machine translation (Vaswani et al.,
// 2017) — the wide-weight-distribution model of the paper's evaluation.
//
// Pre-LayerNorm blocks (norm before attention/FFN, residual around both),
// sinusoidal positional encodings, GELU feed-forward. Scaled down from the
// paper's 93M-parameter WMT model to a size trainable in seconds on the
// synthetic translation task while keeping every architectural ingredient
// that matters for quantization behaviour (LayerNorm, attention, deep
// residual stacks).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/data/metrics.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/attention.hpp"
#include "src/nn/embedding.hpp"
#include "src/nn/layernorm.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/quant.hpp"
#include "src/runtime/decode.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/tensor/arena.hpp"

namespace af {

class TransformerDecoder;

struct TransformerConfig {
  std::int64_t src_vocab = 24;
  std::int64_t tgt_vocab = 24;
  std::int64_t d_model = 64;
  std::int64_t num_heads = 4;
  std::int64_t d_ffn = 128;
  std::int64_t enc_layers = 2;
  std::int64_t dec_layers = 2;
  std::int64_t max_len = 48;
};

/// How a TransformerDecoder stores its KV cache.
struct KvCacheFormat {
  bool quantized = false;  ///< false = fp32 rows (bit-identical path)
  FormatKind kind = FormatKind::kAdaptivFloat;
  int bits = 8;
};

class TransformerMT {
 public:
  TransformerMT(const TransformerConfig& cfg, std::uint64_t seed);

  /// Teacher-forced training forward: every layer runs through one
  /// training context and caches for backward. src and tgt_in are batches
  /// of equal-length token sequences (src rows may be padded with pad_id at
  /// the tail). Returns logits [B * T_tgt, tgt_vocab].
  Tensor forward(const std::vector<TokenSeq>& src,
                 const std::vector<TokenSeq>& tgt_in, std::int64_t pad_id);

  /// Adjoint of forward; accumulates parameter gradients.
  void backward(const Tensor& dlogits);

  /// Greedy autoregressive decode of one source sequence.
  TokenSeq greedy_decode(const TokenSeq& src, std::int64_t pad_id,
                         std::int64_t bos, std::int64_t eos,
                         std::int64_t max_steps);

  std::vector<Parameter*> parameters();
  void zero_grad();
  void clear_caches();

  ActQuant& act_quant() { return act_quant_; }
  const TransformerConfig& config() const { return cfg_; }

  /// Calibration-time max-abs of each decoder layer's projected K/V
  /// activations — what a quantized KV cache recalibrates its per-layer
  /// exp_bias from. Recorded while `set_kv_range_recording(true)` is in
  /// effect over teacher-forced forwards (calibrate_transformer_kv).
  struct KvRanges {
    float self_k = 0.0f, self_v = 0.0f;
    float cross_k = 0.0f, cross_v = 0.0f;
  };
  void set_kv_range_recording(bool on);
  KvRanges dec_kv_ranges(std::int64_t layer) const;

  /// The codecs of a quantized KV cache in format `fmt`, one K/V pair per
  /// decoder layer, each bracketed by its layer's calibrated range and with
  /// its decode table built. Built on the first request per format and
  /// shared read-only by every decoder of this model after it; any
  /// set_kv_range_recording() call drops them, so a recalibrated model
  /// builds fresh ones. Thread-safe. An uncalibrated layer is a typed
  /// kMalformedInput error.
  struct KvCodecs {
    std::vector<KvQuantConfig> self, cross;
  };
  std::shared_ptr<const KvCodecs> kv_codecs(const KvCacheFormat& fmt);

 private:
  friend class TransformerDecoder;
  struct EncoderBlock {
    EncoderBlock(const TransformerConfig& cfg, Pcg32& rng, int index);
    // x: [B, T, D]; lengths: valid source lengths per batch row.
    Tensor forward(const Tensor& x, const std::vector<std::int64_t>& lengths,
                   ExecutionContext& ctx);
    Tensor backward(const Tensor& dy);
    std::vector<Module*> modules();

    LayerNorm ln1, ln2;
    MultiHeadAttention attn;
    Linear fc1, fc2;
    GELU gelu;
  };

  struct DecoderBlock {
    DecoderBlock(const TransformerConfig& cfg, Pcg32& rng, int index);
    // x: [B, Tt, D]; enc: [B, Ts, D].
    Tensor forward(const Tensor& x, const Tensor& enc,
                   const std::vector<std::int64_t>& src_lengths,
                   ExecutionContext& ctx);
    // Returns (dx, d_enc).
    std::pair<Tensor, Tensor> backward(const Tensor& dy);
    std::vector<Module*> modules();

    LayerNorm ln1, ln2, ln3;
    MultiHeadAttention self_attn, cross_attn;
    Linear fc1, fc2;
    GELU gelu;
  };

  // Embedding + scaled sinusoidal position, flattened ids -> [B*T, D].
  Tensor embed(Embedding& emb, const std::vector<TokenSeq>& batch,
               ExecutionContext& ctx);

  // Encoder pass (embed -> blocks -> final LN, with its act_quant sites):
  // [B, Ts, D]. Shared by the teacher-forced forward and decode prefill.
  Tensor encode(const std::vector<TokenSeq>& src,
                const std::vector<std::int64_t>& lengths,
                ExecutionContext& ctx);

  std::vector<Module*> all_modules();

  TransformerConfig cfg_;
  Embedding src_emb_;
  Embedding tgt_emb_;
  std::vector<EncoderBlock> enc_blocks_;
  std::vector<DecoderBlock> dec_blocks_;
  LayerNorm enc_final_;
  LayerNorm dec_final_;
  Linear out_proj_;
  Tensor pos_table_;  // [max_len, D] sinusoidal encodings
  ActQuant act_quant_;

  // kv_codecs() memo, one entry per (kind, bits). A copied model starts
  // with an empty one: its ranges may diverge from the original's.
  struct KvCodecCache {
    KvCodecCache() = default;
    KvCodecCache(const KvCodecCache&) {}
    KvCodecCache& operator=(const KvCodecCache&) {
      std::lock_guard<std::mutex> lock(mu);
      entries.clear();
      return *this;
    }
    std::mutex mu;
    std::vector<std::pair<KvCacheFormat, std::shared_ptr<const KvCodecs>>>
        entries;
  };
  KvCodecCache kv_codec_cache_;

  // Saved between forward and backward.
  struct StepCtx {
    std::int64_t b = 0, ts = 0, tt = 0;
    std::vector<std::int64_t> src_lengths;
  };
  std::vector<StepCtx> ctx_;
};

/// Incremental decoder over a TransformerMT: the model's context entry
/// points run one timestep at a time against per-layer KvStates
/// (self-attention caches appended per step, cross-attention caches
/// prefilled once per sequence).
///
/// Two arenas back it. The KV arena is filled once, at construction, with
/// every KvState planned to max_steps capacity, and is never reset, so
/// cached keys/values keep their bytes for the decoder's lifetime. The
/// step arena is the cyclic scratch: reset before every prefill and every
/// solo step, consolidated once the first sequence has revealed its peak.
/// From the second sequence on a step makes no heap allocation.
///
/// With fp32 KV the emitted logits are bit-identical to full-recompute
/// decoding (teacher-forced forward over the growing prefix) whenever the
/// ActQuant mode is kOff or kApply over calibrated sites — see DESIGN.md
/// §15 for the contract. With `kv.quantized`, K/V rows are stored as
/// packed codes through per-layer codecs whose exp_bias is recalibrated
/// from the ranges recorded by calibrate_transformer_kv; constructing a
/// quantized decoder from an uncalibrated model is a typed error.
class TransformerDecoder {
 public:
  struct Options {
    std::int64_t max_steps = 0;  ///< KV plan; 0 = model max_len
    KvCacheFormat kv;
    ExecutionContext ctx;  ///< every forward's policy; training forced off
  };

  /// Plans the KV storage. A max_steps outside 1..max_len, or quantized KV
  /// over an uncalibrated model, throws FaultError(kMalformedInput).
  TransformerDecoder(TransformerMT& model, Options opts);
  /// Default options: fp32 KV planned to the model's max_len.
  explicit TransformerDecoder(TransformerMT& model);

  /// Starts decoding `src`: runs the encoder and the cross-attention
  /// prefill, resets the self-attention caches and the position. If it
  /// throws, the decoder is left unbegun: step() throws until a later
  /// begin() succeeds.
  void begin(const TokenSeq& src, std::int64_t pad_id);

  /// Feeds the last emitted token (`last_tokens` holds exactly one) and
  /// returns the next-token logits [1, tgt_vocab]. The reference stays
  /// valid (and is overwritten) across steps. This is step_batch over
  /// this decoder alone, in its own step arena.
  const Tensor& step(const std::vector<std::int64_t>& last_tokens);

  /// Throws FaultError(kMalformedInput) unless this decoder can take a
  /// step from `token` now: begun, inside its max_steps plan, and the
  /// token inside the target vocabulary. A batch checks every member with
  /// it before anything is appended.
  void check_step(std::int64_t token) const;

  /// Whether `peer` can share a stacked step with this decoder: built on
  /// the same model with the same execution context (the projections of
  /// the S rows run once, under one context). KV format and plan may
  /// differ: each row attends over its own caches.
  bool stacks_with(const TransformerDecoder& peer) const;

  /// One step of every decoder in `decs` (pairwise stacks_with) from
  /// ids[r], as one stacked forward: embedding, positional add, every
  /// projection, LayerNorm and FFN, and out_proj run once over [S, D]
  /// rows; each row appends to and attends over its own caches. Returns
  /// logits [S, tgt_vocab], row r equal bit for bit to what decs[r]'s
  /// solo step() returns; they live in `scratch` (reset first) until its
  /// next reset. Throws, before anything runs, if any member fails
  /// check_step().
  static Tensor step_batch(std::span<TransformerDecoder* const> decs,
                           const std::vector<std::int64_t>& ids,
                           Arena& scratch);

  /// Steps taken in this sequence: the next step's positional row.
  std::int64_t position() const { return pos_; }
  std::int64_t max_steps() const { return opts_.max_steps; }
  /// Sequences begun successfully.
  std::int64_t sequences() const { return sequences_; }
  /// Owned-buffer heap allocations during the most recent step.
  std::int64_t last_step_heap_allocs() const { return last_step_allocs_; }
  /// Current KV payload across all layers.
  std::size_t kv_bytes() const;
  /// KV payload growth per decoded step (self caches; cross is prefilled).
  std::size_t kv_bytes_per_step() const;

 private:
  // The stacked step's forward: step_batch's body.
  static Tensor forward_rows(std::span<TransformerDecoder* const> decs,
                             const std::vector<std::int64_t>& ids,
                             ExecutionContext& ctx);
  // Throws unless no module holds an adjoint cache (inference stays clean).
  void check_no_caches() const;

  TransformerMT& model_;
  Options opts_;
  std::shared_ptr<const TransformerMT::KvCodecs> kv_codecs_;  // null: fp32
  // Declared before the KvStates, so their storage outlives them.
  Arena kv_arena_;    // persistent KV storage; never reset
  Arena step_arena_;  // solo-step and prefill scratch; reset every cycle
  std::vector<KvState> self_kv_, cross_kv_;
  std::vector<TokenSeq> src_batch_;  // the one source, as encode() takes it
  std::vector<std::int64_t> src_lengths_;
  // The model's modules, listed once: the cache check walks them after
  // every step, and rebuilding the list there would allocate.
  std::vector<Module*> modules_;
  Tensor output_;  // the solo step's logits, copied out of the step arena
  bool begun_ = false;
  std::int64_t pos_ = 0;
  std::int64_t sequences_ = 0;
  std::int64_t last_step_allocs_ = 0;
};

/// Serving-facing adapter: a TransformerDecoder behind the runtime
/// StreamDecoder interface (greedy argmax per step).
class TransformerStreamDecoder final : public StreamDecoder {
 public:
  TransformerStreamDecoder(TransformerMT& model,
                           TransformerDecoder::Options opts,
                           std::int64_t pad_id, std::int64_t bos,
                           std::int64_t eos);

  void open(const std::vector<std::int64_t>& src) override;
  std::int64_t step(std::int64_t last_token) override;
  /// Slots whose decoders are TransformerStreamDecoders that stack with
  /// this one's run as one TransformerDecoder::step_batch; any other slot
  /// steps on its own. A slot failing check_step() gets its error and
  /// stays out of the stacked forward.
  void step_batch(std::span<DecodeStepSlot> slots, Arena& scratch) override;
  std::int64_t bos_token() const override { return bos_; }
  std::int64_t eos_token() const override { return eos_; }
  std::size_t cache_bytes() const override { return dec_.kv_bytes(); }

 private:
  TransformerDecoder dec_;
  std::int64_t pad_id_, bos_, eos_;
};

}  // namespace af
