// Attention-based LSTM sequence-to-sequence model (Chorowski et al., 2015
// flavour) — the speech-to-text model of the paper's evaluation.
//
// Multi-layer LSTM encoder over continuous feature frames; single-layer
// LSTM decoder with Luong-style dot-product attention over the encoder
// outputs; teacher forcing for training, greedy decoding for WER.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "src/data/metrics.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/embedding.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/lstm.hpp"
#include "src/nn/quant.hpp"

namespace af {

struct Seq2SeqConfig {
  std::int64_t feature_dim = 16;
  std::int64_t hidden = 64;
  std::int64_t enc_layers = 2;
  std::int64_t vocab = 16;
  std::int64_t max_decode_len = 24;
};

class Seq2SeqAttn {
 public:
  Seq2SeqAttn(const Seq2SeqConfig& cfg, std::uint64_t seed);

  /// Teacher-forced forward: frames [Ts, B, F], tgt_in [B][Tt] token ids.
  /// Returns logits [B * Tt, vocab] (time-major within each batch row:
  /// row = b * Tt + t). Caches for backward only under ectx.training.
  Tensor forward(const Tensor& frames, const std::vector<TokenSeq>& tgt_in,
                 ExecutionContext& ectx);

  /// Adjoint of the training-context forward (full BPTT through decoder,
  /// attention and encoder).
  void backward(const Tensor& dlogits);

  /// Greedy decode of a single utterance [Ts, 1, F] through an inference
  /// context (no cache pushes).
  TokenSeq greedy_decode(const Tensor& frames, std::int64_t bos,
                         std::int64_t eos, ExecutionContext& ectx);

  /// Cached forward records across the whole model (sessions assert 0).
  std::int64_t cache_depth() const;

  std::vector<Parameter*> parameters();
  void zero_grad();
  void clear_caches();

  ActQuant& act_quant() { return act_quant_; }
  const Seq2SeqConfig& config() const { return cfg_; }

 private:
  // Dot-product attention for one decoder step.
  struct AttnCache {
    Tensor weights;  // [B, Ts]
  };
  // context [B, H] from decoder hidden h [B, H] and encoder outputs
  // [Ts, B, H]; pushes the softmax weights for backward under training.
  Tensor attend(const Tensor& h, const Tensor& enc,
                const ExecutionContext& ectx);
  // returns (dh, and accumulates into denc).
  Tensor attend_backward(const Tensor& dctx, const Tensor& h,
                         const Tensor& enc, Tensor& denc);

  struct StepCtx {
    Tensor enc_out;            // [Ts, B, H]
    std::vector<Tensor> dec_h;  // decoder hidden per step [B, H]
    std::int64_t b = 0, ts = 0, tt = 0;
  };

  Seq2SeqConfig cfg_;
  Lstm encoder_;
  Embedding tgt_emb_;
  LstmCell decoder_;
  Linear attn_combine_;  // [2H -> H] with tanh
  Tanh combine_act_;
  Linear out_proj_;      // [H -> vocab]
  ActQuant act_quant_;

  std::vector<AttnCache> attn_cache_;
  std::vector<StepCtx> ctx_;
};

}  // namespace af
