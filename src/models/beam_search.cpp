#include "src/models/beam_search.hpp"

#include <algorithm>
#include <cmath>

#include "src/runtime/execution_context.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"

namespace af {
namespace {

struct Hypothesis {
  TokenSeq tokens;     // includes the leading BOS
  double logprob = 0.0;
};

double length_norm(std::size_t generated, float alpha) {
  return std::pow((5.0 + static_cast<double>(generated)) / 6.0,
                  static_cast<double>(alpha));
}

/// log softmax of one logits row, evaluated at every vocabulary entry.
std::vector<double> log_softmax_row(const float* row, std::int64_t v) {
  float mx = row[0];
  for (std::int64_t j = 1; j < v; ++j) mx = std::max(mx, row[j]);
  double denom = 0.0;
  for (std::int64_t j = 0; j < v; ++j) denom += std::exp(double(row[j]) - mx);
  const double log_denom = std::log(denom);
  std::vector<double> out(static_cast<std::size_t>(v));
  for (std::int64_t j = 0; j < v; ++j) {
    out[static_cast<std::size_t>(j)] = double(row[j]) - mx - log_denom;
  }
  return out;
}

/// Final selection: best completed hypothesis by normalized score, falling
/// back to the best live one. Strips the leading BOS.
TokenSeq best_of(const std::vector<std::pair<double, TokenSeq>>& completed,
                 const std::vector<Hypothesis>& live, float alpha) {
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
        h.logprob / length_norm(h.tokens.size() - 1, alpha);
    if (score > best_score) {
      best_score = score;
      best = &h.tokens;
    }
  }
  AF_CHECK(best != nullptr, "beam search produced no hypothesis");
  return TokenSeq(best->begin() + 1, best->end());
}

/// Shared beam expansion: scores [live][V] log-probabilities, grows each
/// hypothesis, splits finished ones off into `completed`.
std::vector<std::size_t> expand_beam(
    std::vector<Hypothesis>& live,
    const std::vector<std::vector<double>>& scores, std::int64_t eos,
    int beam_size, float alpha,
    std::vector<std::pair<double, TokenSeq>>& completed) {
  struct Candidate {
    double logprob;
    std::size_t parent;
    std::int64_t token;
  };
  std::vector<Candidate> candidates;
  for (std::size_t h = 0; h < live.size(); ++h) {
    for (std::size_t t = 0; t < scores[h].size(); ++t) {
      candidates.push_back({live[h].logprob + scores[h][t], h,
                            static_cast<std::int64_t>(t)});
    }
  }
  std::partial_sort(candidates.begin(),
                    candidates.begin() +
                        std::min<std::size_t>(candidates.size(),
                                              static_cast<std::size_t>(
                                                  2 * beam_size)),
                    candidates.end(),
                    [](const Candidate& a, const Candidate& b) {
                      return a.logprob > b.logprob;
                    });

  std::vector<Hypothesis> next;
  std::vector<std::size_t> parents;
  for (const Candidate& c : candidates) {
    if (static_cast<int>(next.size()) >= beam_size) break;
    Hypothesis h = live[c.parent];
    h.logprob = c.logprob;
    if (c.token == eos) {
      completed.emplace_back(
          c.logprob / length_norm(h.tokens.size() - 1 + 1, alpha), h.tokens);
      continue;
    }
    h.tokens.push_back(c.token);
    next.push_back(std::move(h));
    parents.push_back(c.parent);
  }
  live = std::move(next);
  return parents;
}

}  // namespace

TokenSeq transformer_beam_decode(TransformerMT& model, const TokenSeq& src,
                                 std::int64_t pad, std::int64_t bos,
                                 std::int64_t eos, const BeamConfig& cfg) {
  AF_CHECK(cfg.beam_size >= 1, "beam size must be positive");
  const std::int64_t vocab = model.config().tgt_vocab;
  std::vector<Hypothesis> live = {{{bos}, 0.0}};
  std::vector<std::pair<double, TokenSeq>> completed;

  // One incremental decoder with beam_size lanes for the whole search.
  // Fewer live hypotheses than lanes just leaves the trailing lanes
  // decoding garbage that no score ever reads — attention and every other
  // layer are lane-independent, so the live rows are bit-identical to a
  // live-only batch (the old full-recompute loop batched exactly those).
  TransformerDecoder::Options opts;
  opts.batch = cfg.beam_size;
  TransformerDecoder dec(model, opts);
  dec.begin(src, pad);

  std::vector<std::int64_t> last(static_cast<std::size_t>(cfg.beam_size),
                                 bos);
  for (std::int64_t step = 0; step < cfg.max_steps && !live.empty(); ++step) {
    // All live hypotheses share a length: lane h carries hypothesis h.
    for (std::size_t h = 0; h < live.size(); ++h) {
      last[h] = live[h].tokens.back();
    }
    const Tensor& logits = dec.step(last);  // [beam_size, V]

    std::vector<std::vector<double>> scores(live.size());
    for (std::size_t h = 0; h < live.size(); ++h) {
      scores[h] = log_softmax_row(
          logits.data() + static_cast<std::int64_t>(h) * vocab, vocab);
    }
    const std::vector<std::size_t> parents = expand_beam(
        live, scores, eos, cfg.beam_size, cfg.length_alpha, completed);
    if (live.empty() ||
        static_cast<std::int64_t>(live[0].tokens.size()) >=
            model.config().max_len) {
      break;
    }
    // Lane r continues parent[r]'s cached history.
    dec.reorder(parents);
  }
  return best_of(completed, live, cfg.length_alpha);
}

TokenSeq seq2seq_beam_decode(Seq2SeqAttn& model, const Tensor& frames,
                             std::int64_t bos, std::int64_t eos,
                             const BeamConfig& cfg) {
  AF_CHECK(cfg.beam_size >= 1, "beam size must be positive");
  AF_CHECK(frames.rank() == 3 && frames.dim(1) == 1,
           "beam decode expects one utterance [Ts, 1, F]");
  const std::int64_t vocab = model.config().vocab;

  ExecutionContext ectx;
  std::vector<Hypothesis> live = {{{bos}, 0.0}};
  std::vector<std::pair<double, TokenSeq>> completed;
  for (std::int64_t step = 0; step < cfg.max_steps && !live.empty(); ++step) {
    // Re-run the decoder over each hypothesis prefix (O(T^2) but trivial at
    // toy scale); an inference context pushes no caches.
    std::vector<std::vector<double>> scores(live.size());
    for (std::size_t h = 0; h < live.size(); ++h) {
      std::vector<TokenSeq> tgt_in = {live[h].tokens};
      Tensor logits = model.forward(frames, tgt_in, ectx);
      const std::int64_t t_len =
          static_cast<std::int64_t>(live[h].tokens.size());
      scores[h] = log_softmax_row(
          logits.data() + (t_len - 1) * vocab, vocab);
    }
    expand_beam(live, scores, eos, cfg.beam_size, cfg.length_alpha,
                completed);
  }
  return best_of(completed, live, cfg.length_alpha);
}

}  // namespace af
