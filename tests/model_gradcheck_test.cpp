// End-to-end gradient checks: finite differences through the FULL model +
// loss composition (Transformer with both attentions and residuals, the
// seq2seq with BPTT through the decoder/attention, the ResNet with
// BatchNorm in training mode). Catches wiring errors no per-layer check
// can see (wrong residual routing, missed gradient paths, stale caches).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "src/models/trainer.hpp"
#include "src/nn/loss.hpp"
#include "src/util/check.hpp"

namespace af {
namespace {

// Checks d(loss)/d(theta[i]) for a few spread-out components of a few
// parameters against central differences.
void check_model_grads(const std::vector<Parameter*>& params,
                       const std::function<float()>& loss_with_backward,
                       const std::function<float()>& loss_only,
                       int params_stride, float eps, float tol) {
  for (Parameter* p : params) {
    (void)p;
  }
  // Analytic pass.
  for (Parameter* p : params) p->zero_grad();
  loss_with_backward();
  for (std::size_t k = 0; k < params.size(); k += params_stride) {
    Parameter* p = params[k];
    const std::int64_t stride = std::max<std::int64_t>(1, p->value.numel() / 3);
    for (std::int64_t i = 0; i < p->value.numel(); i += stride) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const float lp = loss_only();
      p->value[i] = saved - eps;
      const float lm = loss_only();
      p->value[i] = saved;
      const double fd = (double(lp) - lm) / (2.0 * eps);
      const double scale =
          std::max({1.0, std::fabs(fd), std::fabs(double(p->grad[i]))});
      EXPECT_NEAR(p->grad[i], fd, tol * scale)
          << p->name << "[" << i << "]";
    }
  }
}

TEST(ModelGradCheck, TransformerEndToEnd) {
  TransformerConfig cfg;
  cfg.d_model = 16;
  cfg.num_heads = 2;
  cfg.d_ffn = 24;
  cfg.enc_layers = 1;
  cfg.dec_layers = 1;
  TransformerMT model(cfg, 5);
  std::vector<TokenSeq> src = {{3, 4, 5, 6}, {7, 8, 9, 3}};
  std::vector<TokenSeq> tgt_in = {{1, 4, 5}, {1, 6, 7}};
  std::vector<std::int64_t> tgt_out = {4, 5, 2, 6, 7, 2};

  auto loss_only = [&] {
    Tensor logits = model.forward(src, tgt_in, 0);
    const float l = softmax_cross_entropy(logits, tgt_out).loss;
    model.clear_caches();
    return l;
  };
  auto loss_bwd = [&] {
    Tensor logits = model.forward(src, tgt_in, 0);
    auto res = softmax_cross_entropy(logits, tgt_out);
    model.backward(res.dlogits);
    return res.loss;
  };
  check_model_grads(model.parameters(), loss_bwd, loss_only,
                    /*params_stride=*/4, 3e-3f, 5e-2f);
}

TEST(ModelGradCheck, Seq2SeqEndToEnd) {
  ExecutionContext train{.training = true};
  Seq2SeqConfig cfg;
  cfg.feature_dim = 8;
  cfg.hidden = 12;
  cfg.enc_layers = 2;
  cfg.vocab = 10;
  Seq2SeqAttn model(cfg, 6);
  Pcg32 rng(7);
  Tensor frames = Tensor::randn({6, 2, 8}, rng);
  std::vector<TokenSeq> tgt_in = {{1, 3, 4}, {1, 5, 6}};
  std::vector<std::int64_t> tgt_out = {3, 4, 2, 5, 6, 2};

  auto loss_only = [&] {
    Tensor logits = model.forward(frames, tgt_in, train);
    const float l = softmax_cross_entropy(logits, tgt_out).loss;
    model.clear_caches();
    return l;
  };
  auto loss_bwd = [&] {
    Tensor logits = model.forward(frames, tgt_in, train);
    auto res = softmax_cross_entropy(logits, tgt_out);
    model.backward(res.dlogits);
    return res.loss;
  };
  check_model_grads(model.parameters(), loss_bwd, loss_only,
                    /*params_stride=*/3, 3e-3f, 5e-2f);
}

TEST(ModelGradCheck, ResNetEndToEnd) {
  ExecutionContext train{.training = true};
  ResNetConfig cfg;
  cfg.base_width = 4;
  cfg.blocks_per_stage = 1;
  cfg.image_size = 8;
  ResNetClassifier model(cfg, 8);
  Pcg32 rng(9);
  Tensor x = Tensor::randn({3, 3, 8, 8}, rng);
  std::vector<std::int64_t> labels = {1, 7, 3};

  auto loss_only = [&] {
    Tensor logits = model.forward(x, train);
    const float l = softmax_cross_entropy(logits, labels).loss;
    model.clear_caches();
    return l;
  };
  auto loss_bwd = [&] {
    Tensor logits = model.forward(x, train);
    auto res = softmax_cross_entropy(logits, labels);
    model.backward(res.dlogits);
    return res.loss;
  };
  // BatchNorm batch statistics are recomputed per forward, so finite
  // differences see the same function the adjoint differentiates.
  check_model_grads(model.parameters(), loss_bwd, loss_only,
                    /*params_stride=*/3, 3e-3f, 8e-2f);
}

}  // namespace
}  // namespace af
