#include "src/nn/layernorm.hpp"

#include <cmath>

#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"

namespace af {

LayerNorm::LayerNorm(std::int64_t dim, const std::string& name, float eps)
    : dim_(dim),
      eps_(eps),
      gamma_(name + ".gamma", Tensor::ones({dim})),
      beta_(name + ".beta", Tensor({dim})) {}

Tensor LayerNorm::forward(const Tensor& x, ExecutionContext& ctx) {
  AF_CHECK(x.rank() == 2 && x.dim(1) == dim_, "LayerNorm expects [m, dim]");
  const std::int64_t m = x.dim(0), n = dim_;
  Tensor y(x.shape());
  Cache* c = nullptr;
  if (ctx.training) {
    cache_.push_back({Tensor(x.shape()), Tensor({m})});
    c = &cache_.back();
  }
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x.data() + i * n;
    double mean = 0;
    for (std::int64_t j = 0; j < n; ++j) mean += row[j];
    mean /= static_cast<double>(n);
    double var = 0;
    for (std::int64_t j = 0; j < n; ++j) {
      const double d = row[j] - mean;
      var += d * d;
    }
    var /= static_cast<double>(n);
    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
    float* xhat = nullptr;
    if (c != nullptr) {
      c->inv_std[i] = inv_std;
      xhat = c->xhat.data() + i * n;
    }
    float* yr = y.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float xh = (row[j] - static_cast<float>(mean)) * inv_std;
      if (xhat != nullptr) xhat[j] = xh;
      yr[j] = gamma_.value[j] * xh + beta_.value[j];
    }
  }
  return y;
}

Tensor LayerNorm::backward(const Tensor& dy) {
  AF_CHECK(!cache_.empty(), "LayerNorm backward without matching forward");
  Cache c = std::move(cache_.back());
  cache_.pop_back();
  AF_CHECK(dy.shape() == c.xhat.shape(), "LayerNorm backward shape mismatch");
  const std::int64_t m = dy.dim(0), n = dim_;
  Tensor dx(dy.shape());
  for (std::int64_t i = 0; i < m; ++i) {
    const float* dyr = dy.data() + i * n;
    const float* xh = c.xhat.data() + i * n;
    float* dxr = dx.data() + i * n;
    // dxhat = dy * gamma; dx = inv_std * (dxhat - mean(dxhat)
    //                                     - xhat * mean(dxhat * xhat)).
    double mean_dxh = 0, mean_dxh_xh = 0;
    for (std::int64_t j = 0; j < n; ++j) {
      const double dxh = double(dyr[j]) * gamma_.value[j];
      mean_dxh += dxh;
      mean_dxh_xh += dxh * xh[j];
      gamma_.grad[j] += dyr[j] * xh[j];
      beta_.grad[j] += dyr[j];
    }
    mean_dxh /= static_cast<double>(n);
    mean_dxh_xh /= static_cast<double>(n);
    for (std::int64_t j = 0; j < n; ++j) {
      const double dxh = double(dyr[j]) * gamma_.value[j];
      dxr[j] = static_cast<float>(
          c.inv_std[i] * (dxh - mean_dxh - double(xh[j]) * mean_dxh_xh));
    }
  }
  return dx;
}

}  // namespace af
