// Elementwise activation layers with exact adjoints.
#pragma once

#include <vector>

#include "src/kernels/backend.hpp"
#include "src/nn/module.hpp"

namespace af {

/// Shared shape-preserving elementwise layer with stack caching.
class Activation : public Module {
 public:
  /// Elementwise f(x); caches (x, y) for backward under ctx.training.
  Tensor forward(const Tensor& x, ExecutionContext& ctx) override;
  Tensor backward(const Tensor& dy);
  void clear_cache() override { cache_.clear(); }
  std::int64_t cache_depth() const override {
    return static_cast<std::int64_t>(cache_.size());
  }

  /// f of one element: forward's output equals it bit for bit.
  virtual float f(float x) const = 0;

 protected:
  /// y[i] = f(x[i]) for i < n, x and y not overlapping. ReLU and Sigmoid
  /// run their own f in a plain loop, where the call is direct and
  /// inlines; GELU and Tanh run their tanh through `be`'s tanh_map, which
  /// every backend computes with tanh_f32's bits. Either way forward costs
  /// one virtual call per tensor rather than one per element.
  virtual void map(const float* x, float* y, std::int64_t n,
                   const KernelBackend& be) const = 0;
  /// df/dx given the input x and the already-computed output y.
  virtual float df(float x, float y) const = 0;

 private:
  struct Cache {
    Tensor x;
    Tensor y;
  };
  std::vector<Cache> cache_;
};

/// max(0, x), written x > 0 ? x : 0, so NaN and -0 both map to +0.
class ReLU final : public Activation {
 public:
  float f(float x) const override;

 protected:
  void map(const float* x, float* y, std::int64_t n,
           const KernelBackend& be) const override;
  float df(float x, float y) const override;
};

/// Gaussian error linear unit, tanh approximation (as used in Transformer
/// FFNs): 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
class GELU final : public Activation {
 public:
  float f(float x) const override;

 protected:
  void map(const float* x, float* y, std::int64_t n,
           const KernelBackend& be) const override;
  float df(float x, float y) const override;
};

class Tanh final : public Activation {
 public:
  float f(float x) const override;

 protected:
  void map(const float* x, float* y, std::int64_t n,
           const KernelBackend& be) const override;
  float df(float x, float y) const override;
};

class Sigmoid final : public Activation {
 public:
  float f(float x) const override;

 protected:
  void map(const float* x, float* y, std::int64_t n,
           const KernelBackend& be) const override;
  float df(float x, float y) const override;
};

// Scalar versions used by the LSTM cell (which fuses its gate math);
// tanh_value is tanh_f32.
float sigmoid_value(float x);
float tanh_value(float x);

}  // namespace af
