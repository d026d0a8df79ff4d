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
#include <vector>

#include "src/data/metrics.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/attention.hpp"
#include "src/nn/embedding.hpp"
#include "src/nn/layernorm.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/quant.hpp"
#include "src/runtime/decode.hpp"

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

/// Incremental decoder over a TransformerMT: a DecodeSession whose hooks
/// run the model's context entry points one timestep at a time against
/// per-layer KvStates (self-attention caches appended per step,
/// cross-attention caches prefilled once per sequence).
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
    ExecutionContext ctx;
  };

  TransformerDecoder(TransformerMT& model, Options opts);
  /// Default options: fp32 KV planned to the model's max_len.
  explicit TransformerDecoder(TransformerMT& model);

  /// Starts decoding `src`: runs the encoder and the cross-attention
  /// prefill, resets the self-attention caches.
  void begin(const TokenSeq& src, std::int64_t pad_id);

  /// Feeds the last emitted token (`last_tokens` holds exactly one) and
  /// returns the next-token logits [1, tgt_vocab]. The reference stays
  /// valid (and is overwritten) across steps.
  const Tensor& step(const std::vector<std::int64_t>& last_tokens);

  std::int64_t position() const { return pos_; }
  /// Current KV payload across all layers.
  std::size_t kv_bytes() const;
  /// KV payload growth per decoded step (self caches; cross is prefilled).
  std::size_t kv_bytes_per_step() const;

  DecodeSession& session() { return *session_; }
  const DecodeSession& session() const { return *session_; }

 private:
  void setup(ExecutionContext& ctx);
  void prefill(ExecutionContext& ctx);
  Tensor decode_step(const std::vector<std::int64_t>& ids,
                     ExecutionContext& ctx);
  Tensor embed_step(const std::vector<std::int64_t>& ids,
                    ExecutionContext& ctx);

  TransformerMT& model_;
  Options opts_;
  std::shared_ptr<const TransformerMT::KvCodecs> kv_codecs_;  // null: fp32
  std::vector<KvState> self_kv_, cross_kv_;
  std::vector<TokenSeq> src_batch_;  // the one source, as encode() takes it
  std::vector<std::int64_t> src_lengths_;
  // The model's modules, listed once: the session's cache probe walks them
  // after every step, and rebuilding the list there would allocate.
  std::vector<Module*> modules_;
  std::int64_t pos_ = 0;
  std::unique_ptr<DecodeSession> session_;  // last: its ctor runs setup()
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
  std::int64_t bos_token() const override { return bos_; }
  std::int64_t eos_token() const override { return eos_; }
  std::size_t cache_bytes() const override { return dec_.kv_bytes(); }

 private:
  TransformerDecoder dec_;
  std::int64_t pad_id_, bos_, eos_;
};

}  // namespace af
