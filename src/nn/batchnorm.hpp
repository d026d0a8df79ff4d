// 2-D batch normalization (Ioffe & Szegedy, 2015) over [N, C, H, W].
//
// Batch norm's implicit weight-normalization effect is why CNN weight
// distributions stay narrow (paper Figure 1) — the ResNet surrogate must use
// it for the cross-model comparison to be faithful.
#pragma once

#include <vector>

#include "src/nn/module.hpp"

namespace af {

/// Per-channel normalization with learned scale/shift and running statistics
/// for inference.
class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, const std::string& name = "bn",
                       float eps = 1e-5f, float momentum = 0.1f);

  /// x: [N, C, H, W]. Under ctx.training uses batch statistics, updates
  /// the running estimates and caches for backward; in inference uses the
  /// running estimates and caches nothing.
  Tensor forward(const Tensor& x, ExecutionContext& ctx) override;

  /// Backward of the training-mode forward.
  Tensor backward(const Tensor& dy);

  std::vector<Parameter*> parameters() override { return {&gamma_, &beta_}; }
  void clear_cache() override { cache_.clear(); }
  std::int64_t cache_depth() const override {
    return static_cast<std::int64_t>(cache_.size());
  }

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  struct Cache {
    Tensor xhat;     // [N,C,H,W]
    Tensor inv_std;  // [C]
  };

  std::int64_t channels_;
  float eps_;
  float momentum_;
  Parameter gamma_;
  Parameter beta_;
  Tensor running_mean_;
  Tensor running_var_;
  std::vector<Cache> cache_;
};

}  // namespace af
