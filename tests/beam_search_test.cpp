#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/models/beam_search.hpp"
#include "src/models/trainer.hpp"
#include "src/util/check.hpp"

namespace af {
namespace {

TransformerConfig small_tf() {
  TransformerConfig cfg;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ffn = 64;
  cfg.enc_layers = 1;
  cfg.dec_layers = 1;
  return cfg;
}

TEST(BeamSearch, BeamOneMatchesGreedyTransformer) {
  TransformerBundle b(31, small_tf());
  train_transformer(b, 250, 16, 2e-3f, 32);  // partially trained: imperfect
  Pcg32 rng(1);
  for (int i = 0; i < 5; ++i) {
    auto pair = b.task.sample(rng);
    const auto greedy = b.model.greedy_decode(
        pair.source, TranslationTask::kPad, TranslationTask::kBos,
        TranslationTask::kEos,
        static_cast<std::int64_t>(pair.source.size()) + 4);
    BeamConfig cfg;
    cfg.beam_size = 1;
    cfg.max_steps = static_cast<std::int64_t>(pair.source.size()) + 4;
    // Note: beam-1 with length normalization can stop earlier than greedy
    // (it may prefer a completed shorter hypothesis); with alpha = 0 the
    // scores are raw log-probs and the argmax path is identical.
    cfg.length_alpha = 0.0f;
    const auto beam = transformer_beam_decode(
        b.model, pair.source, TranslationTask::kPad, TranslationTask::kBos,
        TranslationTask::kEos, cfg);
    EXPECT_EQ(beam, greedy) << "sentence " << i;
  }
}

TEST(BeamSearch, WiderBeamNeverHurtsModelScore) {
  // The defining property of beam search: the (unnormalized) model log-prob
  // of the returned hypothesis is monotone in beam width. We check the
  // corpus BLEU instead, which on the deterministic toy task is a faithful
  // proxy: beam-4 must not be significantly worse than greedy.
  TransformerBundle b(33, small_tf());
  train_transformer(b, 400, 16, 2e-3f, 34);
  Pcg32 rng(2);
  std::vector<TokenSeq> refs, greedy_hyps, beam_hyps;
  for (int i = 0; i < 20; ++i) {
    auto pair = b.task.sample(rng);
    refs.push_back(pair.target);
    greedy_hyps.push_back(b.model.greedy_decode(
        pair.source, TranslationTask::kPad, TranslationTask::kBos,
        TranslationTask::kEos,
        static_cast<std::int64_t>(pair.source.size()) + 4));
    BeamConfig cfg;
    cfg.beam_size = 4;
    cfg.max_steps = static_cast<std::int64_t>(pair.source.size()) + 4;
    beam_hyps.push_back(transformer_beam_decode(
        b.model, pair.source, TranslationTask::kPad, TranslationTask::kBos,
        TranslationTask::kEos, cfg));
  }
  const double greedy_bleu = bleu_score(refs, greedy_hyps);
  const double beam_bleu = bleu_score(refs, beam_hyps);
  EXPECT_GE(beam_bleu, greedy_bleu - 3.0);
}

TEST(BeamSearch, Seq2SeqBeamDecodesSanely) {
  Seq2SeqConfig cfg;
  cfg.hidden = 32;
  cfg.feature_dim = 12;
  cfg.enc_layers = 1;
  Seq2SeqBundle b(35, cfg);
  train_seq2seq(b, 800, 16, 2e-3f, 36);
  Pcg32 rng(3);
  std::vector<TokenSeq> refs, greedy_hyps, beam_hyps;
  for (int i = 0; i < 10; ++i) {
    Utterance utt = b.task.sample(rng);
    refs.push_back(utt.transcript);
    Tensor frames =
        utt.frames.reshaped({utt.frames.dim(0), 1, b.cfg.feature_dim});
    ExecutionContext ectx;
    greedy_hyps.push_back(b.model.greedy_decode(frames, SpeechTask::kBos,
                                                SpeechTask::kEos, ectx));
    BeamConfig bc;
    bc.beam_size = 3;
    bc.max_steps = b.cfg.max_decode_len;
    beam_hyps.push_back(seq2seq_beam_decode(b.model, frames, SpeechTask::kBos,
                                            SpeechTask::kEos, bc));
  }
  // Beam decoding tracks greedy on a trained model (usually beats it).
  const double greedy_wer = word_error_rate(refs, greedy_hyps);
  const double beam_wer = word_error_rate(refs, beam_hyps);
  EXPECT_LE(beam_wer, greedy_wer + 10.0);
  EXPECT_LT(beam_wer, 60.0);
}

// ----- incremental-vs-full-recompute equality --------------------------------
//
// transformer_beam_decode now runs on a KV-cached TransformerDecoder. The
// reference below is the seed implementation it replaced: one teacher-forced
// forward over every live hypothesis prefix per step. The two must emit the
// same tokens — the scores feeding the identical expansion logic are
// bit-identical, so the searches walk the same tree.

struct RefHyp {
  TokenSeq tokens;  // includes the leading BOS
  double logprob = 0.0;
};

double ref_length_norm(std::size_t generated, float alpha) {
  return std::pow((5.0 + static_cast<double>(generated)) / 6.0,
                  static_cast<double>(alpha));
}

std::vector<double> ref_log_softmax(const float* row, std::int64_t v) {
  float mx = row[0];
  for (std::int64_t j = 1; j < v; ++j) mx = std::max(mx, row[j]);
  double denom = 0.0;
  for (std::int64_t j = 0; j < v; ++j) {
    denom += std::exp(double(row[j]) - mx);
  }
  const double log_denom = std::log(denom);
  std::vector<double> out(static_cast<std::size_t>(v));
  for (std::int64_t j = 0; j < v; ++j) {
    out[static_cast<std::size_t>(j)] = double(row[j]) - mx - log_denom;
  }
  return out;
}

void ref_expand(std::vector<RefHyp>& live,
                const std::vector<std::vector<double>>& scores,
                std::int64_t eos, int beam_size, float alpha,
                std::vector<std::pair<double, TokenSeq>>& completed) {
  struct Cand {
    double logprob;
    std::size_t parent;
    std::int64_t token;
  };
  std::vector<Cand> cands;
  for (std::size_t h = 0; h < live.size(); ++h) {
    for (std::size_t t = 0; t < scores[h].size(); ++t) {
      cands.push_back({live[h].logprob + scores[h][t], h,
                       static_cast<std::int64_t>(t)});
    }
  }
  std::partial_sort(
      cands.begin(),
      cands.begin() + std::min<std::size_t>(
                          cands.size(), static_cast<std::size_t>(2 * beam_size)),
      cands.end(),
      [](const Cand& a, const Cand& b) { return a.logprob > b.logprob; });
  std::vector<RefHyp> next;
  for (const Cand& c : cands) {
    if (static_cast<int>(next.size()) >= beam_size) break;
    RefHyp h = live[c.parent];
    h.logprob = c.logprob;
    if (c.token == eos) {
      completed.emplace_back(
          c.logprob / ref_length_norm(h.tokens.size(), alpha), h.tokens);
      continue;
    }
    h.tokens.push_back(c.token);
    next.push_back(std::move(h));
  }
  live = std::move(next);
}

TokenSeq full_recompute_beam(TransformerMT& model, const TokenSeq& src,
                             std::int64_t pad, std::int64_t bos,
                             std::int64_t eos, const BeamConfig& cfg) {
  const std::int64_t vocab = model.config().tgt_vocab;
  std::vector<RefHyp> live = {{{bos}, 0.0}};
  std::vector<std::pair<double, TokenSeq>> completed;
  for (std::int64_t step = 0; step < cfg.max_steps && !live.empty(); ++step) {
    std::vector<TokenSeq> srcs(live.size(), src);
    std::vector<TokenSeq> tgts;
    tgts.reserve(live.size());
    for (const auto& h : live) tgts.push_back(h.tokens);
    Tensor logits = model.forward(srcs, tgts, pad);
    model.clear_caches();
    const std::int64_t t_len = static_cast<std::int64_t>(tgts[0].size());
    std::vector<std::vector<double>> scores(live.size());
    for (std::size_t h = 0; h < live.size(); ++h) {
      const float* row = logits.data() +
                         (static_cast<std::int64_t>(h) * t_len + (t_len - 1)) *
                             vocab;
      scores[h] = ref_log_softmax(row, vocab);
    }
    ref_expand(live, scores, eos, cfg.beam_size, cfg.length_alpha, completed);
    if (static_cast<std::int64_t>(live.empty() ? 0 : live[0].tokens.size()) >=
        model.config().max_len) {
      break;
    }
  }
  const TokenSeq* best = nullptr;
  double best_score = -1e300;
  for (const auto& [score, tokens] : completed) {
    if (score > best_score) {
      best_score = score;
      best = &tokens;
    }
  }
  for (const auto& h : live) {
    const double score =
        h.logprob / ref_length_norm(h.tokens.size() - 1, cfg.length_alpha);
    if (score > best_score) {
      best_score = score;
      best = &h.tokens;
    }
  }
  AF_CHECK(best != nullptr, "reference beam produced no hypothesis");
  return TokenSeq(best->begin() + 1, best->end());
}

TEST(BeamSearch, IncrementalMatchesFullRecompute) {
  TransformerConfig tf = small_tf();
  tf.dec_layers = 2;  // exercise per-layer cache reordering
  TransformerBundle b(41, tf);
  train_transformer(b, 250, 16, 2e-3f, 42);  // imperfect: beams stay wide
  Pcg32 rng(43);
  for (int i = 0; i < 5; ++i) {
    auto pair = b.task.sample(rng);
    BeamConfig cfg;
    cfg.beam_size = 3;
    cfg.max_steps = static_cast<std::int64_t>(pair.source.size()) + 4;
    const auto full = full_recompute_beam(
        b.model, pair.source, TranslationTask::kPad, TranslationTask::kBos,
        TranslationTask::kEos, cfg);
    const auto inc = transformer_beam_decode(
        b.model, pair.source, TranslationTask::kPad, TranslationTask::kBos,
        TranslationTask::kEos, cfg);
    EXPECT_EQ(full, inc) << "sentence " << i;
  }
}

TEST(BeamSearch, InvalidBeamSizeThrows) {
  TransformerBundle b(37, small_tf());
  BeamConfig cfg;
  cfg.beam_size = 0;
  EXPECT_THROW(transformer_beam_decode(b.model, {3, 4, 5}, 0, 1, 2, cfg),
               Error);
}

TEST(BeamSearch, DeterministicAcrossCalls) {
  TransformerBundle b(38, small_tf());
  BeamConfig cfg;
  cfg.beam_size = 4;
  cfg.max_steps = 8;
  const auto a =
      transformer_beam_decode(b.model, {3, 4, 5, 6}, 0, 1, 2, cfg);
  const auto c =
      transformer_beam_decode(b.model, {3, 4, 5, 6}, 0, 1, 2, cfg);
  EXPECT_EQ(a, c);
}

}  // namespace
}  // namespace af
