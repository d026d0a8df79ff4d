// 2-D convolution lowered to matrix multiplication (im2col).
#pragma once

#include <vector>

#include "src/nn/module.hpp"
#include "src/tensor/ops.hpp"

namespace af {

/// Convolution over [N, C, H, W] with square kernels, uniform stride and
/// zero padding. Weight layout: [out_channels, in_channels, k, k].
class Conv2d final : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad,
         Pcg32& rng, bool has_bias = true, const std::string& name = "conv");

  /// x: [N, C, H, W] -> [N, F, OH, OW]. Checksums the per-sample GEMMs
  /// when the context asks for ABFT and wraps the whole batch in the
  /// installed guard when asked. Only under ctx.training are the im2col
  /// patch matrices kept for backward.
  Tensor forward(const Tensor& x, ExecutionContext& ctx) override;

  /// dy: [N, F, OH, OW] -> dx; accumulates weight/bias grads.
  Tensor backward(const Tensor& dy);

  std::vector<Parameter*> parameters() override;
  void clear_cache() override { cache_.clear(); }
  std::int64_t cache_depth() const override {
    return static_cast<std::int64_t>(cache_.size());
  }

  const Conv2dSpec& spec() const { return spec_; }
  std::int64_t out_channels() const { return out_channels_; }
  Parameter& weight() { return weight_; }

 private:
  struct Cache {
    std::vector<Tensor> cols;  // one patch matrix per sample
    std::int64_t in_h = 0, in_w = 0;
  };

  Conv2dSpec spec_;
  std::int64_t out_channels_;
  bool has_bias_;
  Parameter weight_;       // [F, C, k, k]
  Parameter bias_;         // [F]
  std::vector<Cache> cache_;
};

}  // namespace af
