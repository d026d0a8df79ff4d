#include "src/models/trainer.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "src/nn/loss.hpp"
#include "src/nn/optimizer.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/tensor/arena.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"

namespace af {
namespace {

// Fixed seeds so every evaluation call sees the same held-out data.
constexpr std::uint64_t kEvalSeed = 0xE7A1;

/// Runs fn with weights optionally replaced by their quantization.
template <typename Fn>
auto with_optional_weight_quant(std::vector<Parameter*> params, Quantizer* q,
                                Fn&& fn) {
  if (q == nullptr) return fn();
  WeightQuantScope scope(std::move(params), *q);
  return fn();
}

}  // namespace

std::vector<Tensor> snapshot_parameters(
    const std::vector<Parameter*>& params) {
  std::vector<Tensor> snap;
  snap.reserve(params.size());
  for (const Parameter* p : params) snap.push_back(p->value);
  return snap;
}

void restore_parameters(const std::vector<Parameter*>& params,
                        const std::vector<Tensor>& snapshot) {
  AF_CHECK(params.size() == snapshot.size(), "snapshot size mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    AF_CHECK(params[i]->value.shape() == snapshot[i].shape(),
             "snapshot shape mismatch for " + params[i]->name);
    params[i]->value = snapshot[i];
  }
}

WeightStats weight_stats(const std::vector<Parameter*>& params) {
  WeightStats s;
  for (const Parameter* p : params) {
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      const float v = p->value[i];
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
    }
    s.count += p->value.numel();
  }
  return s;
}

// ----- Transformer -----------------------------------------------------------

TransformerBundle::TransformerBundle(std::uint64_t seed,
                                     TransformerConfig config)
    : cfg(config),
      task(config.src_vocab, /*min_len=*/5, /*max_len=*/9, seed),
      model(config, seed) {}

float train_transformer(TransformerBundle& b, int steps, int batch, float lr,
                        std::uint64_t seed, Quantizer* weight_q) {
  Pcg32 rng(seed, 0x7111);
  Adam opt(b.model.parameters(), lr);
  double recent = 0.0;
  int recent_n = 0;
  // Post-LN Transformers need a short learning-rate warmup for stability.
  const int warmup = std::min(100, steps / 4 + 1);
  for (int step = 0; step < steps; ++step) {
    opt.set_lr(lr * std::min(1.0f, static_cast<float>(step + 1) /
                                       static_cast<float>(warmup)));
    auto pairs = b.task.sample_batch(batch, rng);
    std::vector<TokenSeq> src, tgt_in;
    std::vector<std::int64_t> tgt_out;
    for (const auto& p : pairs) {
      src.push_back(p.source);
      TokenSeq in = {TranslationTask::kBos};
      in.insert(in.end(), p.target.begin(), p.target.end());
      tgt_in.push_back(std::move(in));
      tgt_out.insert(tgt_out.end(), p.target.begin(), p.target.end());
      tgt_out.push_back(TranslationTask::kEos);
    }
    b.model.zero_grad();
    float loss;
    {
      std::optional<WeightQuantScope> scope;
      if (weight_q) scope.emplace(b.model.parameters(), *weight_q);
      Tensor logits = b.model.forward(src, tgt_in, TranslationTask::kPad);
      auto res = softmax_cross_entropy(logits, tgt_out, TranslationTask::kPad);
      loss = res.loss;
      b.model.backward(res.dlogits);
    }
    clip_grad_norm(b.model.parameters(), 1.0f);
    opt.step();
    if (step >= steps - 20) {
      recent += loss;
      ++recent_n;
    }
  }
  return recent_n ? static_cast<float>(recent / recent_n) : 0.0f;
}

double eval_transformer_bleu(TransformerBundle& b, int num_sentences,
                             Quantizer* weight_q) {
  Pcg32 rng(kEvalSeed, 0x7112);
  std::vector<TokenSeq> refs, hyps;
  return with_optional_weight_quant(b.model.parameters(), weight_q, [&] {
    for (int i = 0; i < num_sentences; ++i) {
      auto pair = b.task.sample(rng);
      refs.push_back(pair.target);
      hyps.push_back(b.model.greedy_decode(
          pair.source, TranslationTask::kPad, TranslationTask::kBos,
          TranslationTask::kEos,
          static_cast<std::int64_t>(pair.source.size()) + 4));
    }
    return bleu_score(refs, hyps);
  });
}

void calibrate_transformer_activations(TransformerBundle& b, int batches,
                                       std::uint64_t seed,
                                       Quantizer* weight_q) {
  Pcg32 rng(seed, 0x7113);
  const ActQuantMode prev = b.model.act_quant().mode();
  b.model.act_quant().reset_stats();
  b.model.act_quant().set_mode(ActQuantMode::kCalibrate);
  with_optional_weight_quant(b.model.parameters(), weight_q, [&] {
    for (int i = 0; i < batches; ++i) {
      auto pairs = b.task.sample_batch(8, rng);
      std::vector<TokenSeq> src, tgt_in;
      for (const auto& p : pairs) {
        src.push_back(p.source);
        TokenSeq in = {TranslationTask::kBos};
        in.insert(in.end(), p.target.begin(), p.target.end());
        tgt_in.push_back(std::move(in));
      }
      b.model.forward(src, tgt_in, TranslationTask::kPad);
      b.model.clear_caches();
    }
  });
  b.model.act_quant().set_mode(prev);
}

void calibrate_transformer_kv(TransformerBundle& b, int batches,
                              std::uint64_t seed, Quantizer* weight_q) {
  // Same protocol as activation calibration — offline teacher-forced
  // batches — but the recorded statistic is the per-decoder-layer max-abs
  // of the projected K/V activations, captured inside the attention
  // modules themselves.
  Pcg32 rng(seed, 0x7114);
  b.model.set_kv_range_recording(true);
  with_optional_weight_quant(b.model.parameters(), weight_q, [&] {
    for (int i = 0; i < batches; ++i) {
      auto pairs = b.task.sample_batch(8, rng);
      std::vector<TokenSeq> src, tgt_in;
      for (const auto& p : pairs) {
        src.push_back(p.source);
        TokenSeq in = {TranslationTask::kBos};
        in.insert(in.end(), p.target.begin(), p.target.end());
        tgt_in.push_back(std::move(in));
      }
      b.model.forward(src, tgt_in, TranslationTask::kPad);
      b.model.clear_caches();
    }
  });
  b.model.set_kv_range_recording(false);
}

// ----- Seq2Seq ---------------------------------------------------------------

Seq2SeqBundle::Seq2SeqBundle(std::uint64_t seed, Seq2SeqConfig config)
    : cfg(config),
      task(config.vocab, config.feature_dim, /*min_len=*/4, /*max_len=*/8,
           /*frames_per_token=*/2, /*noise=*/0.15f, seed),
      model(config, seed) {}

float train_seq2seq(Seq2SeqBundle& b, int steps, int batch, float lr,
                    std::uint64_t seed, Quantizer* weight_q) {
  Pcg32 rng(seed, 0x7211);
  Adam opt(b.model.parameters(), lr);
  double recent = 0.0;
  int recent_n = 0;
  for (int step = 0; step < steps; ++step) {
    auto data = b.task.sample_batch(batch, rng);
    std::vector<TokenSeq> tgt_in;
    std::vector<std::int64_t> tgt_out;
    for (const auto& transcript : data.transcripts) {
      TokenSeq in = {SpeechTask::kBos};
      in.insert(in.end(), transcript.begin(), transcript.end());
      tgt_in.push_back(std::move(in));
      tgt_out.insert(tgt_out.end(), transcript.begin(), transcript.end());
      tgt_out.push_back(SpeechTask::kEos);
    }
    b.model.zero_grad();
    float loss;
    {
      std::optional<WeightQuantScope> scope;
      if (weight_q) scope.emplace(b.model.parameters(), *weight_q);
      ExecutionContext train{.training = true};
      Tensor logits = b.model.forward(data.frames, tgt_in, train);
      auto res = softmax_cross_entropy(logits, tgt_out, SpeechTask::kPad);
      loss = res.loss;
      b.model.backward(res.dlogits);
    }
    clip_grad_norm(b.model.parameters(), 1.0f);
    opt.step();
    if (step >= steps - 20) {
      recent += loss;
      ++recent_n;
    }
  }
  return recent_n ? static_cast<float>(recent / recent_n) : 0.0f;
}

double eval_seq2seq_wer(Seq2SeqBundle& b, int num_utterances,
                        Quantizer* weight_q) {
  Pcg32 rng(kEvalSeed, 0x7212);
  std::vector<TokenSeq> refs, hyps;
  return with_optional_weight_quant(b.model.parameters(), weight_q, [&] {
    // Context-driven decode: no cache pushes (so no clear_caches), and the
    // per-utterance working tensors recycle through one arena.
    ExecutionContext ectx;
    Arena arena;
    for (int i = 0; i < num_utterances; ++i) {
      Utterance utt = b.task.sample(rng);
      refs.push_back(utt.transcript);
      const std::int64_t t = utt.frames.dim(0);
      Tensor frames = utt.frames.reshaped({t, 1, b.cfg.feature_dim});
      arena.reset();
      ArenaScope scope(&arena);
      hyps.push_back(b.model.greedy_decode(frames, SpeechTask::kBos,
                                           SpeechTask::kEos, ectx));
    }
    return word_error_rate(refs, hyps);
  });
}

void calibrate_seq2seq_activations(Seq2SeqBundle& b, int batches,
                                   std::uint64_t seed, Quantizer* weight_q) {
  Pcg32 rng(seed, 0x7213);
  const ActQuantMode prev = b.model.act_quant().mode();
  b.model.act_quant().reset_stats();
  b.model.act_quant().set_mode(ActQuantMode::kCalibrate);
  with_optional_weight_quant(b.model.parameters(), weight_q, [&] {
    ExecutionContext ectx;
    for (int i = 0; i < batches; ++i) {
      auto data = b.task.sample_batch(8, rng);
      std::vector<TokenSeq> tgt_in;
      for (const auto& transcript : data.transcripts) {
        TokenSeq in = {SpeechTask::kBos};
        in.insert(in.end(), transcript.begin(), transcript.end());
        tgt_in.push_back(std::move(in));
      }
      b.model.forward(data.frames, tgt_in, ectx);
    }
  });
  b.model.act_quant().set_mode(prev);
}

// ----- ResNet ----------------------------------------------------------------

ResNetBundle::ResNetBundle(std::uint64_t seed, ResNetConfig config)
    : cfg(config),
      task(config.num_classes, config.in_channels, config.image_size,
           /*noise=*/0.3f, seed),
      model(config, seed) {}

float train_resnet(ResNetBundle& b, int steps, int batch, float lr,
                   std::uint64_t seed, Quantizer* weight_q) {
  Pcg32 rng(seed, 0x7311);
  Adam opt(b.model.parameters(), lr);
  // Standard CNN recipe: decoupled weight decay on the conv/linear weights
  // (batch norm makes the function scale-invariant, so decay shrinks the
  // weights without hurting accuracy — the "weight normalization side
  // effect" behind the narrow CNN distributions of paper Figure 1).
  std::vector<Parameter*> decayed;
  for (Parameter* p : b.model.parameters()) {
    if (p->name.find(".weight") != std::string::npos ||
        p->name.find("stem") == 0 || p->name.find("fc.") == 0) {
      if (p->name.find("bn") == std::string::npos) decayed.push_back(p);
    }
  }
  opt.set_weight_decay(0.25f, decayed);
  double recent = 0.0;
  int recent_n = 0;
  for (int step = 0; step < steps; ++step) {
    auto data = b.task.sample_batch(batch, rng);
    b.model.zero_grad();
    float loss;
    {
      std::optional<WeightQuantScope> scope;
      if (weight_q) scope.emplace(b.model.parameters(), *weight_q);
      ExecutionContext train{.training = true};
      Tensor logits = b.model.forward(data.images, train);
      auto res = softmax_cross_entropy(logits, data.labels);
      loss = res.loss;
      b.model.backward(res.dlogits);
    }
    clip_grad_norm(b.model.parameters(), 5.0f);
    opt.step();
    if (step >= steps - 20) {
      recent += loss;
      ++recent_n;
    }
  }
  return recent_n ? static_cast<float>(recent / recent_n) : 0.0f;
}

double eval_resnet_top1(ResNetBundle& b, int num_images, Quantizer* weight_q) {
  Pcg32 rng(kEvalSeed, 0x7312);
  return with_optional_weight_quant(b.model.parameters(), weight_q, [&] {
    std::vector<std::int64_t> labels, preds;
    const std::int64_t batch = 32;
    std::int64_t remaining = num_images;
    // Context-driven inference: the forward pushes no caches, and every
    // batch's activations recycle through one arena (the task sampling
    // stays on the heap — it happens outside the scope).
    ExecutionContext ectx;
    Arena arena;
    while (remaining > 0) {
      const std::int64_t n = std::min(batch, remaining);
      auto data = b.task.sample_batch(n, rng);
      arena.reset();
      std::vector<std::int64_t> p;
      {
        ArenaScope scope(&arena);
        p = argmax_rows(b.model.forward(data.images, ectx));
      }
      labels.insert(labels.end(), data.labels.begin(), data.labels.end());
      preds.insert(preds.end(), p.begin(), p.end());
      remaining -= n;
    }
    return top1_accuracy(labels, preds);
  });
}

void calibrate_resnet_activations(ResNetBundle& b, int batches,
                                  std::uint64_t seed, Quantizer* weight_q) {
  Pcg32 rng(seed, 0x7313);
  const ActQuantMode prev = b.model.act_quant().mode();
  b.model.act_quant().reset_stats();
  b.model.act_quant().set_mode(ActQuantMode::kCalibrate);
  with_optional_weight_quant(b.model.parameters(), weight_q, [&] {
    ExecutionContext ectx;
    for (int i = 0; i < batches; ++i) {
      auto data = b.task.sample_batch(16, rng);
      b.model.forward(data.images, ectx);
    }
  });
  b.model.act_quant().set_mode(prev);
}

}  // namespace af
