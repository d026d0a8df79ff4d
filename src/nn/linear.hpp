// Fully-connected layer: y = x W^T + b.
#pragma once

#include <vector>

#include "src/nn/module.hpp"

namespace af {

/// Affine layer. Weight is stored [out, in] (PyTorch convention) so the
/// per-output-row layout matches how accelerator weight buffers are packed.
class Linear final : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Pcg32& rng,
         bool has_bias = true, const std::string& name = "linear");

  /// x: [m, in] -> [m, out], with the context's resilience dispatch
  /// (guard / checksummed GEMM). Caches x for backward under ctx.training.
  Tensor forward(const Tensor& x, ExecutionContext& ctx) override;

  /// dy: [m, out] -> dx [m, in]; accumulates into weight/bias grads.
  Tensor backward(const Tensor& dy);

  std::vector<Parameter*> parameters() override;
  void clear_cache() override { cached_x_.clear(); }
  std::int64_t cache_depth() const override {
    return static_cast<std::int64_t>(cached_x_.size());
  }

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  bool has_bias_;
  Parameter weight_;  // [out, in]
  Parameter bias_;    // [out]
  std::vector<Tensor> cached_x_;
};

}  // namespace af
