#include <gtest/gtest.h>

#include <cmath>

#include "src/nn/linear.hpp"
#include "src/nn/loss.hpp"
#include "src/tensor/ops.hpp"
#include "src/nn/optimizer.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"
#include "tests/grad_check.hpp"

namespace af {
namespace {

TEST(CrossEntropy, UniformLogitsGiveLogV) {
  Tensor logits({2, 4});
  auto res = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(res.loss, std::log(4.0f), 1e-5f);
  EXPECT_EQ(res.count, 2);
}

TEST(CrossEntropy, ConfidentCorrectIsNearZero) {
  Tensor logits({1, 3}, {20.0f, 0.0f, 0.0f});
  auto res = softmax_cross_entropy(logits, {0});
  EXPECT_LT(res.loss, 1e-3f);
}

TEST(CrossEntropy, GradientIsSoftmaxMinusOneHot) {
  Tensor logits({1, 3}, {1.0f, 2.0f, 3.0f});
  auto res = softmax_cross_entropy(logits, {1});
  // dlogits = p - y.
  float denom = std::exp(1.0f) + std::exp(2.0f) + std::exp(3.0f);
  EXPECT_NEAR(res.dlogits[0], std::exp(1.0f) / denom, 1e-5f);
  EXPECT_NEAR(res.dlogits[1], std::exp(2.0f) / denom - 1.0f, 1e-5f);
  EXPECT_NEAR(res.dlogits[2], std::exp(3.0f) / denom, 1e-5f);
}

TEST(CrossEntropy, GradCheck) {
  Pcg32 rng(1);
  Tensor logits = Tensor::randn({4, 5}, rng);
  std::vector<std::int64_t> targets = {0, 2, 4, 1};
  auto res = softmax_cross_entropy(logits, targets, -1, 0.1f);
  expect_grad_matches(logits, res.dlogits, [&] {
    return softmax_cross_entropy(logits, targets, -1, 0.1f).loss;
  }, 1e-3f);
}

TEST(CrossEntropy, IgnoreIndexSkipsRows) {
  Tensor logits({3, 2}, {5, 0, 0, 5, 1, 1});
  auto res = softmax_cross_entropy(logits, {0, -1, 1}, /*ignore_index=*/-1);
  EXPECT_EQ(res.count, 2);
  // Ignored row contributes zero gradient.
  EXPECT_EQ(res.dlogits.at({1, 0}), 0.0f);
  EXPECT_EQ(res.dlogits.at({1, 1}), 0.0f);
}

TEST(CrossEntropy, AllIgnoredIsZeroLoss) {
  Tensor logits({2, 2});
  auto res = softmax_cross_entropy(logits, {-1, -1}, -1);
  EXPECT_EQ(res.loss, 0.0f);
  EXPECT_EQ(res.count, 0);
}

TEST(CrossEntropy, LabelSmoothingRaisesConfidentLoss) {
  Tensor logits({1, 4}, {10, 0, 0, 0});
  const float plain = softmax_cross_entropy(logits, {0}).loss;
  const float smooth = softmax_cross_entropy(logits, {0}, -1, 0.2f).loss;
  EXPECT_GT(smooth, plain);
}

TEST(CrossEntropy, InvalidTargetThrows) {
  Tensor logits({1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), Error);
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  Parameter p("p", Tensor({4}, {3, 4, 0, 0}));
  p.grad = Tensor({4}, {3, 4, 0, 0});  // norm 5
  const float before = clip_grad_norm({&p}, 1.0f);
  EXPECT_FLOAT_EQ(before, 5.0f);
  EXPECT_NEAR(p.grad[0], 0.6f, 1e-5f);
  EXPECT_NEAR(p.grad[1], 0.8f, 1e-5f);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  Parameter p("p", Tensor({2}, {1, 1}));
  p.grad = Tensor({2}, {0.1f, 0.1f});
  clip_grad_norm({&p}, 10.0f);
  EXPECT_FLOAT_EQ(p.grad[0], 0.1f);
}

TEST(Sgd, MovesAgainstGradient) {
  Parameter p("p", Tensor({1}, {1.0f}));
  p.grad[0] = 2.0f;
  Sgd opt({&p}, 0.1f);
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 0.8f);
}

TEST(Sgd, MomentumAccumulates) {
  Parameter p("p", Tensor({1}, {0.0f}));
  Sgd opt({&p}, 0.1f, 0.9f);
  p.grad[0] = 1.0f;
  opt.step();  // v=1, p=-0.1
  p.grad[0] = 1.0f;
  opt.step();  // v=1.9, p=-0.29
  EXPECT_NEAR(p.value[0], -0.29f, 1e-6f);
}

TEST(Adam, FirstStepIsLrSized) {
  Parameter p("p", Tensor({1}, {1.0f}));
  p.grad[0] = 0.001f;
  Adam opt({&p}, 0.01f);
  opt.step();
  // Bias correction makes the very first update ~lr * sign(g).
  EXPECT_NEAR(p.value[0], 1.0f - 0.01f, 1e-4f);
}

TEST(Adam, ConvergesOnQuadratic) {
  // minimize (x - 3)^2.
  Parameter p("p", Tensor({1}, {-5.0f}));
  Adam opt({&p}, 0.1f);
  for (int i = 0; i < 500; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2f);
}

TEST(Training, LinearRegressionEndToEnd) {
  // y = 2x + 1 learned by a 1-layer model with SGD: the whole
  // forward/backward/step loop working together.
  Pcg32 rng(2);
  Linear lin(1, 1, rng);
  Sgd opt(lin.parameters(), 0.05f);
  ExecutionContext train{.training = true};
  for (int it = 0; it < 400; ++it) {
    Tensor x = Tensor::rand_uniform({8, 1}, rng, -1.0f, 1.0f);
    Tensor target({8, 1});
    for (int i = 0; i < 8; ++i) target[i] = 2.0f * x[i] + 1.0f;
    lin.zero_grad();
    Tensor y = lin.forward(x, train);
    Tensor diff = sub(y, target);
    lin.backward(scale(diff, 2.0f / 8.0f));
    opt.step();
  }
  EXPECT_NEAR(lin.weight().value[0], 2.0f, 0.05f);
  EXPECT_NEAR(lin.bias().value[0], 1.0f, 0.05f);
}

}  // namespace
}  // namespace af
