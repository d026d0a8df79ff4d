// Layer normalization (Ba et al., 2016) over the last axis.
//
// The paper singles out layer normalization as the reason sequence models
// carry wide weight distributions (no weight-reparameterization side effect,
// unlike batch norm) — it is therefore load-bearing for reproducing the
// Transformer column of the evaluation.
#pragma once

#include <vector>

#include "src/nn/module.hpp"

namespace af {

/// y = gamma * (x - mean) / sqrt(var + eps) + beta, per row of [m, dim].
class LayerNorm final : public Module {
 public:
  explicit LayerNorm(std::int64_t dim, const std::string& name = "ln",
                     float eps = 1e-5f);

  /// x: [m, dim]. Only under ctx.training are the normalized input and
  /// the per-row 1/std kept for backward.
  Tensor forward(const Tensor& x, ExecutionContext& ctx) override;
  Tensor backward(const Tensor& dy);

  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  void clear_cache() override { cache_.clear(); }
  std::int64_t cache_depth() const override {
    return static_cast<std::int64_t>(cache_.size());
  }

 private:
  struct Cache {
    Tensor xhat;     // normalized input
    Tensor inv_std;  // [m] 1/sqrt(var+eps)
  };

  std::int64_t dim_;
  float eps_;
  Parameter gamma_;
  Parameter beta_;
  std::vector<Cache> cache_;
};

}  // namespace af
