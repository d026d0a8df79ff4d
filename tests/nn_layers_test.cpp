#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/embedding.hpp"
#include "src/nn/layernorm.hpp"
#include "src/nn/linear.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"
#include "src/util/rng.hpp"
#include "tests/grad_check.hpp"

namespace af {
namespace {

TEST(Linear, ForwardKnownValues) {
  ExecutionContext eval;
  Pcg32 rng(1);
  Linear lin(2, 2, rng);
  lin.weight().value = Tensor({2, 2}, {1, 2, 3, 4});
  lin.bias().value = Tensor({2}, {10, 20});
  Tensor x({1, 2}, {1, 1});
  Tensor y = lin.forward(x, eval);
  EXPECT_FLOAT_EQ(y[0], 13.0f);  // 1*1+2*1+10
  EXPECT_FLOAT_EQ(y[1], 27.0f);  // 3*1+4*1+20
}

TEST(Linear, GradCheckInputAndParams) {
  ExecutionContext train{.training = true};
  Pcg32 rng(2);
  Linear lin(4, 3, rng);
  Tensor x = Tensor::randn({5, 4}, rng);
  Tensor dy = Tensor::randn({5, 3}, rng);
  auto loss_of = [&] {
    Tensor y = lin.forward(x, train);
    double l = dot_all(y, dy);
    lin.backward(dy);  // keep cache stack balanced
    return l;
  };
  lin.zero_grad();
  lin.forward(x, train);
  Tensor dx = lin.backward(dy);
  expect_grad_matches(x, dx, loss_of);
  // Re-zero before each parameter check: loss_of() evaluations accumulate.
  lin.zero_grad();
  lin.forward(x, train);
  lin.backward(dy);
  expect_grad_matches(lin.weight().value, lin.weight().grad, loss_of);
  lin.zero_grad();
  lin.forward(x, train);
  lin.backward(dy);
  expect_grad_matches(lin.bias().value, lin.bias().grad, loss_of);
}

TEST(Linear, BackwardWithoutForwardThrows) {
  Pcg32 rng(3);
  Linear lin(2, 2, rng);
  EXPECT_THROW(lin.backward(Tensor({1, 2})), Error);
}

TEST(Linear, StackCachePairsInReverseOrder) {
  ExecutionContext train{.training = true};
  Pcg32 rng(4);
  Linear lin(2, 2, rng);
  Tensor x1 = Tensor::randn({1, 2}, rng);
  Tensor x2 = Tensor::randn({3, 2}, rng);
  lin.forward(x1, train);
  lin.forward(x2, train);
  // Reverse order: the second backward must match x2's batch size.
  Tensor dx2 = lin.backward(Tensor::randn({3, 2}, rng));
  EXPECT_EQ(dx2.dim(0), 3);
  Tensor dx1 = lin.backward(Tensor::randn({1, 2}, rng));
  EXPECT_EQ(dx1.dim(0), 1);
}

TEST(Linear, NoBiasVariant) {
  ExecutionContext eval;
  Pcg32 rng(5);
  Linear lin(3, 2, rng, /*has_bias=*/false);
  EXPECT_EQ(lin.parameters().size(), 1u);
  Tensor x({1, 3});
  Tensor y = lin.forward(x, eval);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
}

template <typename Act>
void check_activation_grad(float lo, float hi) {
  ExecutionContext train{.training = true};
  Pcg32 rng(6);
  Act act;
  Tensor x = Tensor::rand_uniform({4, 5}, rng, lo, hi);
  Tensor dy = Tensor::randn({4, 5}, rng);
  Tensor y = act.forward(x, train);
  Tensor dx = act.backward(dy);
  expect_grad_matches(x, dx, [&] {
    Tensor yy = act.forward(x, train);
    double l = dot_all(yy, dy);
    act.backward(dy);
    return l;
  }, 1e-3f);
}

TEST(Activations, ReluForward) {
  ExecutionContext train{.training = true};
  ReLU relu;
  Tensor x({4}, {-1, 0, 2, -3});
  Tensor y = relu.forward(x, train);
  EXPECT_TRUE(y.equals(Tensor({4}, {0, 0, 2, 0})));
  relu.backward(Tensor({4}, {1, 1, 1, 1}));
}

TEST(Activations, ReluGradCheckAwayFromKink) { check_activation_grad<ReLU>(0.5f, 2.0f); }
TEST(Activations, GeluGradCheck) { check_activation_grad<GELU>(-2.0f, 2.0f); }
TEST(Activations, TanhGradCheck) { check_activation_grad<Tanh>(-2.0f, 2.0f); }
TEST(Activations, SigmoidGradCheck) { check_activation_grad<Sigmoid>(-3.0f, 3.0f); }

TEST(Activations, GeluKnownValues) {
  ExecutionContext train{.training = true};
  GELU g;
  Tensor x({3}, {0.0f, 1.0f, -1.0f});
  Tensor y = g.forward(x, train);
  EXPECT_NEAR(y[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y[1], 0.8412f, 1e-3f);
  EXPECT_NEAR(y[2], -0.1588f, 1e-3f);
  g.backward(Tensor({3}, {1, 1, 1}));
}

TEST(Activations, BulkForwardMatchesElementwiseF) {
  // forward maps the whole tensor in one call; every output must carry the
  // bits of the per-element f, across signs, ±0, ±Inf, NaN, denormals and
  // the saturating tails, on every kernel backend (GELU and Tanh run their
  // tanh through the context's tanh_map). ReLU maps NaN and -0 to +0. A
  // training forward still pushes one cache entry per call, an inference
  // forward none.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> xs = {0.0f, -0.0f, inf, -inf, nan, -nan,
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::max(), 1e-30f,
                           -20.0f, 20.0f, 100.0f, -100.0f};
  Pcg32 rng(11);
  while (xs.size() < 1031) xs.push_back(4.0f * rng.normal());
  const auto n = static_cast<std::int64_t>(xs.size());
  const Tensor x({n}, xs);
  ReLU relu;
  GELU gelu;
  Tanh tanh_act;
  Sigmoid sigmoid;
  std::vector<const KernelBackend*> backends = {&scalar_backend()};
  if (const KernelBackend* avx2 = avx2_backend()) backends.push_back(avx2);
  for (Activation* act :
       std::initializer_list<Activation*>{&relu, &gelu, &tanh_act, &sigmoid}) {
    for (const KernelBackend* be : backends) {
      ExecutionContext infer{.backend = be};
      const Tensor y = act->forward(x, infer);
      EXPECT_EQ(act->cache_depth(), 0);
      for (std::int64_t i = 0; i < n; ++i) {
        const float want = act->f(x[i]);
        EXPECT_EQ(std::memcmp(y.data() + i, &want, sizeof(float)), 0)
            << be->name << " x=" << x[i] << " got " << y[i] << " want "
            << want;
      }
    }
    ExecutionContext infer;
    const Tensor y = act->forward(x, infer);
    ExecutionContext train{.training = true};
    const Tensor yt = act->forward(x, train);
    EXPECT_EQ(act->cache_depth(), 1);
    EXPECT_EQ(std::memcmp(yt.data(), y.data(),
                          static_cast<std::size_t>(n) * sizeof(float)),
              0);
    act->forward(x, train);
    EXPECT_EQ(act->cache_depth(), 2);
    act->clear_cache();
  }
  ExecutionContext infer;
  const Tensor y = relu.forward(x, infer);
  for (const std::int64_t i : {1, 4, 5}) {  // -0, NaN, -NaN
    EXPECT_EQ(std::signbit(y[i]), false) << "x=" << x[i];
    EXPECT_EQ(y[i], 0.0f) << "x=" << x[i];
  }
}

TEST(Activations, SigmoidStableAtExtremes) {
  EXPECT_NEAR(sigmoid_value(100.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(sigmoid_value(-100.0f), 0.0f, 1e-6f);
  EXPECT_FLOAT_EQ(sigmoid_value(0.0f), 0.5f);
}

TEST(LayerNorm, NormalizesRows) {
  ExecutionContext train{.training = true};
  LayerNorm ln(4);
  Tensor x({2, 4}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = ln.forward(x, train);
  // Row 0: mean 2.5, zero-mean unit-var output.
  float mean = 0, var = 0;
  for (int j = 0; j < 4; ++j) mean += y.at({0, j});
  EXPECT_NEAR(mean / 4, 0.0f, 1e-5f);
  for (int j = 0; j < 4; ++j) var += y.at({0, j}) * y.at({0, j});
  EXPECT_NEAR(var / 4, 1.0f, 1e-2f);
  // Constant row maps to ~0 (epsilon regularized).
  EXPECT_NEAR(y.at({1, 0}), 0.0f, 1e-3f);
  ln.backward(Tensor({2, 4}));
}

TEST(LayerNorm, GradCheckInputGammaBeta) {
  ExecutionContext train{.training = true};
  Pcg32 rng(7);
  LayerNorm ln(6);
  // Perturb gamma/beta away from the identity initialization.
  ln.parameters()[0]->value = Tensor::rand_uniform({6}, rng, 0.5f, 1.5f);
  ln.parameters()[1]->value = Tensor::randn({6}, rng, 0.2f);
  Tensor x = Tensor::randn({3, 6}, rng);
  Tensor dy = Tensor::randn({3, 6}, rng);
  ln.zero_grad();
  ln.forward(x, train);
  Tensor dx = ln.backward(dy);
  auto loss = [&] {
    Tensor yy = ln.forward(x, train);
    double l = dot_all(yy, dy);
    ln.backward(dy);
    return l;
  };
  expect_grad_matches(x, dx, loss, 1e-3f);
  ln.zero_grad();
  ln.forward(x, train);
  ln.backward(dy);
  expect_grad_matches(ln.parameters()[0]->value, ln.parameters()[0]->grad,
                      loss, 1e-3f);
  ln.zero_grad();
  ln.forward(x, train);
  ln.backward(dy);
  expect_grad_matches(ln.parameters()[1]->value, ln.parameters()[1]->grad,
                      loss, 1e-3f);
}

TEST(BatchNorm2d, TrainingNormalizesPerChannel) {
  ExecutionContext train{.training = true};
  Pcg32 rng(8);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn({4, 2, 3, 3}, rng, 3.0f);
  Tensor y = bn.forward(x, train);
  for (int ch = 0; ch < 2; ++ch) {
    double mean = 0, var = 0;
    for (int n = 0; n < 4; ++n) {
      for (int j = 0; j < 9; ++j) {
        mean += y[((n * 2 + ch) * 9) + j];
      }
    }
    mean /= 36;
    for (int n = 0; n < 4; ++n) {
      for (int j = 0; j < 9; ++j) {
        const double d = y[((n * 2 + ch) * 9) + j] - mean;
        var += d * d;
      }
    }
    var /= 36;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
  bn.backward(Tensor({4, 2, 3, 3}));
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  ExecutionContext train{.training = true};
  ExecutionContext eval;
  Pcg32 rng(9);
  BatchNorm2d bn(1);
  // Feed several training batches so running stats converge near (5, 4).
  for (int it = 0; it < 200; ++it) {
    Tensor x = Tensor::randn({8, 1, 2, 2}, rng, 2.0f);
    for (std::int64_t i = 0; i < x.numel(); ++i) x[i] += 5.0f;
    bn.forward(x, train);
    bn.backward(Tensor({8, 1, 2, 2}));
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.0f, 0.3f);
  EXPECT_NEAR(bn.running_var()[0], 4.0f, 0.6f);
  // Eval mode: a constant input at the running mean maps near beta (0).
  Tensor x = Tensor::full({1, 1, 2, 2}, 5.0f);
  Tensor y = bn.forward(x, eval);
  EXPECT_NEAR(y[0], 0.0f, 0.2f);
}

TEST(BatchNorm2d, GradCheckInput) {
  ExecutionContext train{.training = true};
  Pcg32 rng(10);
  BatchNorm2d bn(2);
  Tensor x = Tensor::randn({3, 2, 2, 2}, rng);
  Tensor dy = Tensor::randn({3, 2, 2, 2}, rng);
  // Freeze running-stat updates' effect by re-running forward in loss_of —
  // batch statistics are recomputed each call so the check is consistent.
  bn.forward(x, train);
  Tensor dx = bn.backward(dy);
  expect_grad_matches(x, dx, [&] {
    Tensor yy = bn.forward(x, train);
    double l = dot_all(yy, dy);
    bn.backward(dy);
    return l;
  }, 1e-3f, 3e-2f);
}

TEST(Conv2d, ForwardMatchesDirectConvolution) {
  ExecutionContext train{.training = true};
  Pcg32 rng(11);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  Tensor y = conv.forward(x, train);
  ASSERT_EQ(y.shape(), (Shape{2, 3, 5, 5}));
  // Direct (naive) convolution reference at a few positions.
  const Tensor& w = conv.parameters()[0]->value;
  const Tensor& b = conv.parameters()[1]->value;
  for (auto [n, f, oy, ox] : {std::array<std::int64_t, 4>{0, 0, 0, 0},
                              {1, 2, 4, 4},
                              {0, 1, 2, 3}}) {
    double acc = b[f];
    for (std::int64_t c = 0; c < 2; ++c) {
      for (std::int64_t ky = 0; ky < 3; ++ky) {
        for (std::int64_t kx = 0; kx < 3; ++kx) {
          const std::int64_t sy = oy + ky - 1, sx = ox + kx - 1;
          if (sy < 0 || sy >= 5 || sx < 0 || sx >= 5) continue;
          acc += double(w.at({f, c, ky, kx})) * x.at({n, c, sy, sx});
        }
      }
    }
    EXPECT_NEAR(y.at({n, f, oy, ox}), acc, 1e-4) << n << f << oy << ox;
  }
  conv.backward(Tensor(y.shape()));
}

TEST(Conv2d, GradCheckInputAndWeight) {
  ExecutionContext train{.training = true};
  Pcg32 rng(12);
  Conv2d conv(1, 2, 3, 2, 1, rng);
  Tensor x = Tensor::randn({1, 1, 4, 4}, rng);
  Tensor y = conv.forward(x, train);
  Tensor dy = Tensor::randn(y.shape(), rng);
  conv.zero_grad();
  conv.backward(dy);  // rebalance: cache now empty
  auto loss = [&] {
    Tensor yy = conv.forward(x, train);
    double l = dot_all(yy, dy);
    conv.backward(dy);
    return l;
  };
  conv.zero_grad();
  conv.forward(x, train);
  Tensor dx = conv.backward(dy);
  expect_grad_matches(x, dx, loss, 1e-3f);
  conv.zero_grad();
  conv.forward(x, train);
  conv.backward(dy);
  expect_grad_matches(conv.parameters()[0]->value, conv.parameters()[0]->grad,
                      loss, 1e-3f);
}

TEST(Embedding, LookupAndScatterGrad) {
  ExecutionContext train{.training = true};
  Pcg32 rng(13);
  Embedding emb(10, 4, rng);
  std::vector<std::int64_t> ids = {3, 7, 3};
  Tensor y = emb.forward(ids, train);
  ASSERT_EQ(y.shape(), (Shape{3, 4}));
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(y.at({0, j}), emb.table().value.at({3, j}));
    EXPECT_EQ(y.at({2, j}), emb.table().value.at({3, j}));
  }
  Tensor dy({3, 4});
  dy.fill(1.0f);
  emb.zero_grad();
  emb.backward(dy);
  // Row 3 was used twice; row 7 once; others untouched.
  EXPECT_FLOAT_EQ(emb.table().grad.at({3, 0}), 2.0f);
  EXPECT_FLOAT_EQ(emb.table().grad.at({7, 0}), 1.0f);
  EXPECT_FLOAT_EQ(emb.table().grad.at({0, 0}), 0.0f);
}

TEST(Embedding, OutOfVocabThrows) {
  ExecutionContext eval;
  Pcg32 rng(14);
  Embedding emb(5, 2, rng);
  EXPECT_THROW(emb.forward({5}, eval), FaultError);
  EXPECT_THROW(emb.forward({-1}, eval), FaultError);
}

TEST(Module, CollectAndCount) {
  Pcg32 rng(15);
  Linear a(2, 3, rng), b(3, 1, rng);
  auto params = collect_parameters({&a, &b});
  EXPECT_EQ(params.size(), 4u);
  EXPECT_EQ(a.num_parameters(), 2 * 3 + 3);
}

}  // namespace
}  // namespace af
