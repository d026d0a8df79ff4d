// Integration tests: the three evaluation models learn their synthetic
// tasks and their forward/backward plumbing stays balanced. Model sizes are
// reduced to keep the suite fast; learning thresholds are intentionally
// loose (the benches train the full configurations).
#include <gtest/gtest.h>

#include <cmath>

#include "src/models/trainer.hpp"
#include "src/nn/loss.hpp"
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

Seq2SeqConfig small_s2s() {
  Seq2SeqConfig cfg;
  cfg.hidden = 32;
  cfg.feature_dim = 12;
  cfg.enc_layers = 1;
  return cfg;
}

ResNetConfig small_rn() {
  ResNetConfig cfg;
  cfg.base_width = 4;
  cfg.blocks_per_stage = 1;
  return cfg;
}

TEST(TransformerMT, ForwardShapesAndCacheBalance) {
  TransformerBundle b(1, small_tf());
  std::vector<TokenSeq> src = {{3, 4, 5, 6}, {7, 8, 9, 10}};
  std::vector<TokenSeq> tgt = {{1, 3, 4}, {1, 5, 6}};
  Tensor logits = b.model.forward(src, tgt, 0);
  EXPECT_EQ(logits.shape(), (Shape{2 * 3, b.cfg.tgt_vocab}));
  b.model.backward(Tensor(logits.shape()));
  // A second forward/backward works — caches were fully consumed.
  Tensor logits2 = b.model.forward(src, tgt, 0);
  b.model.backward(Tensor(logits2.shape()));
}

TEST(TransformerMT, BackwardWithoutForwardThrows) {
  TransformerBundle b(1, small_tf());
  EXPECT_THROW(b.model.backward(Tensor({2, 24})), Error);
}

TEST(TransformerMT, RaggedBatchThrows) {
  TransformerBundle b(1, small_tf());
  std::vector<TokenSeq> src = {{3, 4}, {5, 6, 7}};
  std::vector<TokenSeq> tgt = {{1, 3}, {1, 4}};
  EXPECT_THROW(b.model.forward(src, tgt, 0), Error);
}

TEST(TransformerMT, LearnsTheToyTranslationTask) {
  TransformerBundle b(2, small_tf());
  const double before = eval_transformer_bleu(b, 20);
  const float loss = train_transformer(b, 800, 16, 2e-3f, 11);
  const double after = eval_transformer_bleu(b, 20);
  EXPECT_LT(loss, 1.5f);
  EXPECT_GT(after, before + 15.0);
  EXPECT_GT(after, 35.0);
}

TEST(TransformerMT, GreedyDecodeDeterministic) {
  TransformerBundle b(3, small_tf());
  TokenSeq src = {3, 4, 5, 6, 7};
  auto a = b.model.greedy_decode(src, 0, 1, 2, 8);
  auto c = b.model.greedy_decode(src, 0, 1, 2, 8);
  EXPECT_EQ(a, c);
}

TEST(Seq2SeqAttn, ForwardShapesAndCacheBalance) {
  ExecutionContext train{.training = true};
  Seq2SeqBundle b(4, small_s2s());
  Pcg32 rng(1);
  Tensor frames = Tensor::randn({8, 2, 12}, rng);
  std::vector<TokenSeq> tgt = {{1, 3, 4, 5}, {1, 6, 7, 8}};
  Tensor logits = b.model.forward(frames, tgt, train);
  EXPECT_EQ(logits.shape(), (Shape{2 * 4, b.cfg.vocab}));
  b.model.backward(Tensor(logits.shape()));
  Tensor logits2 = b.model.forward(frames, tgt, train);
  b.model.backward(Tensor(logits2.shape()));
}

TEST(Seq2SeqAttn, GradientsFlowToAllParameters) {
  ExecutionContext train{.training = true};
  Seq2SeqBundle b(5, small_s2s());
  Pcg32 rng(2);
  Tensor frames = Tensor::randn({6, 2, 12}, rng);
  std::vector<TokenSeq> tgt = {{1, 3, 4}, {1, 5, 6}};
  b.model.zero_grad();
  Tensor logits = b.model.forward(frames, tgt, train);
  auto res = softmax_cross_entropy(
      logits, {3, 4, 2, 5, 6, 2});
  b.model.backward(res.dlogits);
  int live = 0, total = 0;
  for (Parameter* p : b.model.parameters()) {
    ++total;
    float g = p->grad.max_abs();
    live += (g > 0.0f);
  }
  // Everything except possibly rarely-touched embedding rows should move.
  EXPECT_GE(live, total - 1);
}

TEST(Seq2SeqAttn, LearnsTheToySpeechTask) {
  Seq2SeqBundle b(6, small_s2s());
  const double before = eval_seq2seq_wer(b, 20);
  train_seq2seq(b, 800, 16, 2e-3f, 12);
  const double after = eval_seq2seq_wer(b, 20);
  EXPECT_LT(after, before * 0.7);
  EXPECT_LT(after, 55.0);
}

TEST(ResNet, ForwardShapesAndPredict) {
  ExecutionContext train{.training = true};
  ResNetBundle b(7, small_rn());
  Pcg32 rng(3);
  Tensor x = Tensor::randn({4, 3, 16, 16}, rng);
  Tensor logits = b.model.forward(x, train);
  EXPECT_EQ(logits.shape(), (Shape{4, 10}));
  b.model.backward(Tensor(logits.shape()));
  auto preds = b.model.predict(x);
  EXPECT_EQ(preds.size(), 4u);
}

TEST(ResNet, LearnsTheToyVisionTask) {
  ResNetBundle b(8, small_rn());
  train_resnet(b, 250, 32, 2e-3f, 13);
  const double acc = eval_resnet_top1(b, 200);
  EXPECT_GT(acc, 70.0);
}

TEST(WeightStatsHelper, CountsAndRange) {
  TransformerBundle b(9, small_tf());
  auto stats = weight_stats(b.model.parameters());
  EXPECT_GT(stats.count, 10000);
  EXPECT_LT(stats.min, 0.0f);
  EXPECT_GT(stats.max, 0.0f);
}

TEST(Figure1, WeightRangeOrderingAcrossModels) {
  // The premise of paper Figure 1: after training, the LayerNorm sequence
  // model spans a wider weight range than the BatchNorm CNN.
  TransformerBundle tb(10);
  train_transformer(tb, 500, 16, 2e-3f, 14);
  ResNetBundle rb(10);
  train_resnet(rb, 250, 32, 2e-3f, 14);
  auto ts = weight_stats(tb.model.parameters());
  auto rs = weight_stats(rb.model.parameters());
  EXPECT_GT(ts.max - ts.min, rs.max - rs.min);
}

}  // namespace
}  // namespace af
