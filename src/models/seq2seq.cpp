#include "src/models/seq2seq.hpp"

#include <algorithm>
#include <cmath>

#include "src/runtime/execution_context.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"

namespace af {
namespace {

// Forward-path input validation is reachable from a serving request, so a
// mismatch is a typed, catchable rejection — the ticket fails, the server
// does not (same contract as the Linear/attention forwards). Backward and
// training-only checks stay AF_CHECK.
void check_forward_inputs(const Tensor& frames,
                          const std::vector<TokenSeq>& tgt_in,
                          std::int64_t feature_dim) {
  if (frames.rank() != 3 || frames.dim(2) != feature_dim) {
    throw FaultError("seq2seq", FaultKind::kMalformedInput,
                     "frames must be [Ts, B, F=" +
                         std::to_string(feature_dim) + "], got " +
                         shape_str(frames.shape()));
  }
  const std::int64_t b = frames.dim(1);
  if (static_cast<std::int64_t>(tgt_in.size()) != b || tgt_in.empty()) {
    throw FaultError("seq2seq", FaultKind::kMalformedInput,
                     "target batch size mismatch (frames B=" +
                         std::to_string(b) + ", targets " +
                         std::to_string(tgt_in.size()) + ")");
  }
  const std::size_t tt = tgt_in[0].size();
  for (const auto& seq : tgt_in) {
    if (seq.size() != tt) {
      throw FaultError("seq2seq", FaultKind::kMalformedInput,
                       "ragged target batch");
    }
  }
}

}  // namespace

Seq2SeqAttn::Seq2SeqAttn(const Seq2SeqConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      encoder_([&] {
        Pcg32 r(seed, 11);
        return Lstm(cfg.feature_dim, cfg.hidden, cfg.enc_layers, r, "enc");
      }()),
      tgt_emb_([&] {
        Pcg32 r(seed, 12);
        // Unscaled embeddings, as in the Transformer: the output side of
        // sequence models is where the wider weights live (paper Table 1).
        return Embedding(cfg.vocab, cfg.hidden, r, "dec_emb", 0.5f);
      }()),
      decoder_([&] {
        Pcg32 r(seed, 13);
        return LstmCell(cfg.hidden, cfg.hidden, r, "dec");
      }()),
      attn_combine_([&] {
        Pcg32 r(seed, 14);
        return Linear(2 * cfg.hidden, cfg.hidden, r, true, "attn_combine");
      }()),
      out_proj_([&] {
        Pcg32 r(seed, 15);
        return Linear(cfg.hidden, cfg.vocab, r, true, "out_proj");
      }()) {}

Tensor Seq2SeqAttn::attend(const Tensor& h, const Tensor& enc,
                           const ExecutionContext& ectx) {
  const std::int64_t b = h.dim(0), hidden = h.dim(1), ts = enc.dim(0);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hidden));
  Tensor scores({b, ts});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    const float* hrow = h.data() + bi * hidden;
    for (std::int64_t s = 0; s < ts; ++s) {
      const float* erow = enc.data() + (s * b + bi) * hidden;
      double dot = 0;
      for (std::int64_t j = 0; j < hidden; ++j) dot += double(hrow[j]) * erow[j];
      scores[bi * ts + s] = static_cast<float>(dot) * inv_sqrt;
    }
  }
  Tensor weights = softmax_rows(scores);
  Tensor ctx({b, hidden});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    float* crow = ctx.data() + bi * hidden;
    for (std::int64_t s = 0; s < ts; ++s) {
      const float w = weights[bi * ts + s];
      const float* erow = enc.data() + (s * b + bi) * hidden;
      for (std::int64_t j = 0; j < hidden; ++j) crow[j] += w * erow[j];
    }
  }
  if (ectx.training) attn_cache_.push_back({std::move(weights)});
  return ctx;
}

Tensor Seq2SeqAttn::attend_backward(const Tensor& dctx, const Tensor& h,
                                    const Tensor& enc, Tensor& denc) {
  AF_CHECK(!attn_cache_.empty(), "attention backward without forward");
  Tensor weights = std::move(attn_cache_.back().weights);
  attn_cache_.pop_back();
  const std::int64_t b = h.dim(0), hidden = h.dim(1), ts = enc.dim(0);
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hidden));

  // Through the weighted sum: dweights and the direct encoder path.
  Tensor dweights({b, ts});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    const float* dcrow = dctx.data() + bi * hidden;
    for (std::int64_t s = 0; s < ts; ++s) {
      const float* erow = enc.data() + (s * b + bi) * hidden;
      float* derow = denc.data() + (s * b + bi) * hidden;
      const float w = weights[bi * ts + s];
      double dot = 0;
      for (std::int64_t j = 0; j < hidden; ++j) {
        dot += double(dcrow[j]) * erow[j];
        derow[j] += w * dcrow[j];
      }
      dweights[bi * ts + s] = static_cast<float>(dot);
    }
  }
  // Through the softmax and the scaled dot-product scores.
  Tensor dscores = softmax_rows_backward(weights, dweights);
  Tensor dh({b, hidden});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    const float* hrow = h.data() + bi * hidden;
    float* dhrow = dh.data() + bi * hidden;
    for (std::int64_t s = 0; s < ts; ++s) {
      const float ds = dscores[bi * ts + s] * inv_sqrt;
      const float* erow = enc.data() + (s * b + bi) * hidden;
      float* derow = denc.data() + (s * b + bi) * hidden;
      for (std::int64_t j = 0; j < hidden; ++j) {
        dhrow[j] += ds * erow[j];
        derow[j] += ds * hrow[j];
      }
    }
  }
  return dh;
}

Tensor Seq2SeqAttn::forward(const Tensor& frames,
                            const std::vector<TokenSeq>& tgt_in,
                            ExecutionContext& ectx) {
  check_forward_inputs(frames, tgt_in, cfg_.feature_dim);
  StepCtx ctx;
  ctx.ts = frames.dim(0);
  ctx.b = frames.dim(1);
  ctx.tt = static_cast<std::int64_t>(tgt_in[0].size());

  ctx.enc_out =
      act_quant_.process("enc.out", encoder_.forward(frames, ectx));

  Tensor logits({ctx.b * ctx.tt, cfg_.vocab});
  LstmState state = decoder_.initial_state(ctx.b);
  for (std::int64_t t = 0; t < ctx.tt; ++t) {
    std::vector<std::int64_t> ids(static_cast<std::size_t>(ctx.b));
    for (std::int64_t bi = 0; bi < ctx.b; ++bi) {
      const auto& seq = tgt_in[static_cast<std::size_t>(bi)];
      ids[static_cast<std::size_t>(bi)] = seq[static_cast<std::size_t>(t)];
    }
    Tensor x = tgt_emb_.forward(ids, ectx);
    state = decoder_.forward(x, state, ectx);
    if (ectx.training) ctx.dec_h.push_back(state.h);
    Tensor context = attend(state.h, ctx.enc_out, ectx);
    Tensor comb = act_quant_.process(
        "dec.comb",
        combine_act_.forward(
            attn_combine_.forward(concat_cols(state.h, context), ectx),
            ectx));
    Tensor step_logits = out_proj_.forward(comb, ectx);
    for (std::int64_t bi = 0; bi < ctx.b; ++bi) {
      std::copy_n(step_logits.data() + bi * cfg_.vocab, cfg_.vocab,
                  logits.data() + (bi * ctx.tt + t) * cfg_.vocab);
    }
  }
  if (ectx.training) ctx_.push_back(std::move(ctx));
  return logits;
}

void Seq2SeqAttn::backward(const Tensor& dlogits) {
  AF_CHECK(!ctx_.empty(), "Seq2SeqAttn backward without forward");
  StepCtx ctx = std::move(ctx_.back());
  ctx_.pop_back();
  AF_CHECK(dlogits.dim(0) == ctx.b * ctx.tt && dlogits.dim(1) == cfg_.vocab,
           "dlogits shape mismatch");

  Tensor denc({ctx.ts, ctx.b, cfg_.hidden});
  Tensor dstate_h({ctx.b, cfg_.hidden});
  Tensor dstate_c({ctx.b, cfg_.hidden});
  for (std::int64_t t = ctx.tt - 1; t >= 0; --t) {
    Tensor dstep({ctx.b, cfg_.vocab});
    for (std::int64_t bi = 0; bi < ctx.b; ++bi) {
      std::copy_n(dlogits.data() + (bi * ctx.tt + t) * cfg_.vocab, cfg_.vocab,
                  dstep.data() + bi * cfg_.vocab);
    }
    Tensor dcomb = attn_combine_.backward(
        combine_act_.backward(out_proj_.backward(dstep)));
    Tensor dh_direct, dctx_t;
    split_cols(dcomb, cfg_.hidden, dh_direct, dctx_t);
    const Tensor& h_t = ctx.dec_h[static_cast<std::size_t>(t)];
    Tensor dh_attn = attend_backward(dctx_t, h_t, ctx.enc_out, denc);
    add_inplace(dh_direct, dh_attn);
    add_inplace(dh_direct, dstate_h);
    auto [dx, dprev] = decoder_.backward(dh_direct, dstate_c);
    dstate_h = std::move(dprev.h);
    dstate_c = std::move(dprev.c);
    tgt_emb_.backward(dx);
  }
  // The decoder starts from a constant zero state, so the remaining
  // recurrent gradient terminates here; the encoder sees only the
  // attention-path gradient.
  encoder_.backward(denc);
}

TokenSeq Seq2SeqAttn::greedy_decode(const Tensor& frames, std::int64_t bos,
                                    std::int64_t eos, ExecutionContext& ectx) {
  AF_CHECK(!ectx.training, "greedy_decode is inference-only");
  AF_CHECK(frames.rank() == 3 && frames.dim(1) == 1,
           "greedy_decode expects a single utterance [Ts, 1, F]");
  Tensor enc = act_quant_.process("enc.out", encoder_.forward(frames, ectx));
  LstmState state = decoder_.initial_state(1);
  TokenSeq out;
  std::int64_t prev = bos;
  for (std::int64_t step = 0; step < cfg_.max_decode_len; ++step) {
    Tensor x = tgt_emb_.forward({prev}, ectx);
    state = decoder_.forward(x, state, ectx);
    Tensor context = attend(state.h, enc, ectx);
    Tensor comb = act_quant_.process(
        "dec.comb",
        combine_act_.forward(
            attn_combine_.forward(concat_cols(state.h, context), ectx),
            ectx));
    Tensor step_logits = out_proj_.forward(comb, ectx);
    const std::int64_t next = argmax_rows(step_logits)[0];
    if (next == eos) break;
    out.push_back(next);
    prev = next;
  }
  return out;
}

std::int64_t Seq2SeqAttn::cache_depth() const {
  return encoder_.cache_depth() + tgt_emb_.cache_depth() +
         decoder_.cache_depth() + attn_combine_.cache_depth() +
         combine_act_.cache_depth() + out_proj_.cache_depth() +
         static_cast<std::int64_t>(attn_cache_.size()) +
         static_cast<std::int64_t>(ctx_.size());
}

std::vector<Parameter*> Seq2SeqAttn::parameters() {
  return collect_parameters({&encoder_, &tgt_emb_, &decoder_, &attn_combine_,
                             &combine_act_, &out_proj_});
}

void Seq2SeqAttn::zero_grad() {
  for (Module* m : std::vector<Module*>{&encoder_, &tgt_emb_, &decoder_,
                                        &attn_combine_, &combine_act_,
                                        &out_proj_}) {
    m->zero_grad();
  }
}

void Seq2SeqAttn::clear_caches() {
  for (Module* m : std::vector<Module*>{&encoder_, &tgt_emb_, &decoder_,
                                        &attn_combine_, &combine_act_,
                                        &out_proj_}) {
    m->clear_cache();
  }
  attn_cache_.clear();
  ctx_.clear();
}

}  // namespace af
