#include "src/nn/activations.hpp"

#include <cmath>

#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"

namespace af {

namespace {

// The loop behind every final activation's map: A is final, so a.f is a
// direct call the compiler inlines (and, for ReLU, vectorizes).
template <class A>
void map_each(const A& a, const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = a.f(x[i]);
}

}  // namespace

Tensor Activation::forward(const Tensor& x, ExecutionContext& ctx) {
  Tensor y(x.shape());
  map(x.data(), y.data(), x.numel(), ctx.kernel_backend());
  if (ctx.training) cache_.push_back({x, y});
  return y;
}

Tensor Activation::backward(const Tensor& dy) {
  AF_CHECK(!cache_.empty(), "Activation backward without matching forward");
  Cache c = std::move(cache_.back());
  cache_.pop_back();
  AF_CHECK(dy.shape() == c.x.shape(), "Activation backward shape mismatch");
  Tensor dx(dy.shape());
  for (std::int64_t i = 0; i < dy.numel(); ++i) {
    dx[i] = dy[i] * df(c.x[i], c.y[i]);
  }
  return dx;
}

float ReLU::f(float x) const { return x > 0.0f ? x : 0.0f; }
float ReLU::df(float x, float) const { return x > 0.0f ? 1.0f : 0.0f; }

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;
}  // namespace

float GELU::f(float x) const {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  return 0.5f * x * (1.0f + tanh_f32(u));
}

float GELU::df(float x, float) const {
  const float u = kGeluC * (x + kGeluA * x * x * x);
  const float t = tanh_f32(u);
  const float du = kGeluC * (1.0f + 3.0f * kGeluA * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
}

float Tanh::f(float x) const { return tanh_f32(x); }
float Tanh::df(float, float y) const { return 1.0f - y * y; }

float Sigmoid::f(float x) const { return sigmoid_value(x); }
float Sigmoid::df(float, float y) const { return y * (1.0f - y); }

float sigmoid_value(float x) {
  // Split by sign for numerical stability at large |x|.
  if (x >= 0.0f) {
    const float e = std::exp(-x);
    return 1.0f / (1.0f + e);
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

float tanh_value(float x) { return tanh_f32(x); }

void ReLU::map(const float* x, float* y, std::int64_t n,
               const KernelBackend&) const {
  map_each(*this, x, y, n);
}
// f's operations in f's order, the tanh of the whole tensor in one
// tanh_map between them: u into y, tanh in place, then the GELU finish.
void GELU::map(const float* x, float* y, std::int64_t n,
               const KernelBackend& be) const {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] = kGeluC * (x[i] + kGeluA * x[i] * x[i] * x[i]);
  }
  be.tanh_map(y, y, n);
  for (std::int64_t i = 0; i < n; ++i) y[i] = 0.5f * x[i] * (1.0f + y[i]);
}
void Tanh::map(const float* x, float* y, std::int64_t n,
               const KernelBackend& be) const {
  be.tanh_map(x, y, n);
}
void Sigmoid::map(const float* x, float* y, std::int64_t n,
                  const KernelBackend&) const {
  map_each(*this, x, y, n);
}

}  // namespace af
