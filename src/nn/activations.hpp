// Elementwise activation layers with exact adjoints.
#pragma once

#include <vector>

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

 protected:
  virtual float f(float x) const = 0;
  /// df/dx given the input x and the already-computed output y.
  virtual float df(float x, float y) const = 0;

 private:
  struct Cache {
    Tensor x;
    Tensor y;
  };
  std::vector<Cache> cache_;
};

/// max(0, x).
class ReLU final : public Activation {
 protected:
  float f(float x) const override;
  float df(float x, float y) const override;
};

/// Gaussian error linear unit, tanh approximation (as used in Transformer
/// FFNs): 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
class GELU final : public Activation {
 protected:
  float f(float x) const override;
  float df(float x, float y) const override;
};

class Tanh final : public Activation {
 protected:
  float f(float x) const override;
  float df(float x, float y) const override;
};

class Sigmoid final : public Activation {
 protected:
  float f(float x) const override;
  float df(float x, float y) const override;
};

// Scalar versions used by the LSTM cell (which fuses its gate math).
float sigmoid_value(float x);
float tanh_value(float x);

}  // namespace af
