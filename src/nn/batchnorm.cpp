#include "src/nn/batchnorm.hpp"

#include <cmath>

#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"

namespace af {

BatchNorm2d::BatchNorm2d(std::int64_t channels, const std::string& name,
                         float eps, float momentum)
    : channels_(channels),
      eps_(eps),
      momentum_(momentum),
      gamma_(name + ".gamma", Tensor::ones({channels})),
      beta_(name + ".beta", Tensor({channels})),
      running_mean_({channels}),
      running_var_(Tensor::ones({channels})) {}

Tensor BatchNorm2d::forward(const Tensor& x, ExecutionContext& ctx) {
  AF_CHECK(x.rank() == 4 && x.dim(1) == channels_,
           "BatchNorm2d expects [N, C, H, W]");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t plane = h * w;
  const std::int64_t count = n * plane;
  Tensor y(x.shape());

  if (!ctx.training) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float inv_std =
          1.0f / std::sqrt(running_var_[ch] + eps_);
      const float g = gamma_.value[ch] * inv_std;
      const float b = beta_.value[ch] - g * running_mean_[ch];
      for (std::int64_t i = 0; i < n; ++i) {
        const float* src = x.data() + (i * c + ch) * plane;
        float* dst = y.data() + (i * c + ch) * plane;
        for (std::int64_t j = 0; j < plane; ++j) dst[j] = g * src[j] + b;
      }
    }
    return y;
  }

  Cache cache{Tensor(x.shape()), Tensor({c})};
  for (std::int64_t ch = 0; ch < c; ++ch) {
    double mean = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = x.data() + (i * c + ch) * plane;
      for (std::int64_t j = 0; j < plane; ++j) mean += src[j];
    }
    mean /= static_cast<double>(count);
    double var = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = x.data() + (i * c + ch) * plane;
      for (std::int64_t j = 0; j < plane; ++j) {
        const double d = src[j] - mean;
        var += d * d;
      }
    }
    var /= static_cast<double>(count);

    const float inv_std = static_cast<float>(1.0 / std::sqrt(var + eps_));
    cache.inv_std[ch] = inv_std;
    running_mean_[ch] = (1.0f - momentum_) * running_mean_[ch] +
                        momentum_ * static_cast<float>(mean);
    running_var_[ch] = (1.0f - momentum_) * running_var_[ch] +
                       momentum_ * static_cast<float>(var);

    for (std::int64_t i = 0; i < n; ++i) {
      const float* src = x.data() + (i * c + ch) * plane;
      float* xh = cache.xhat.data() + (i * c + ch) * plane;
      float* dst = y.data() + (i * c + ch) * plane;
      for (std::int64_t j = 0; j < plane; ++j) {
        xh[j] = (src[j] - static_cast<float>(mean)) * inv_std;
        dst[j] = gamma_.value[ch] * xh[j] + beta_.value[ch];
      }
    }
  }
  cache_.push_back(std::move(cache));
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& dy) {
  AF_CHECK(!cache_.empty(), "BatchNorm2d backward without matching forward");
  Cache c = std::move(cache_.back());
  cache_.pop_back();
  AF_CHECK(dy.shape() == c.xhat.shape(), "BatchNorm2d backward shape mismatch");
  const std::int64_t n = dy.dim(0), ch_n = dy.dim(1);
  const std::int64_t plane = dy.dim(2) * dy.dim(3);
  const std::int64_t count = n * plane;
  Tensor dx(dy.shape());

  for (std::int64_t ch = 0; ch < ch_n; ++ch) {
    double sum_dy = 0, sum_dy_xh = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* dyr = dy.data() + (i * ch_n + ch) * plane;
      const float* xh = c.xhat.data() + (i * ch_n + ch) * plane;
      for (std::int64_t j = 0; j < plane; ++j) {
        sum_dy += dyr[j];
        sum_dy_xh += double(dyr[j]) * xh[j];
      }
    }
    gamma_.grad[ch] += static_cast<float>(sum_dy_xh);
    beta_.grad[ch] += static_cast<float>(sum_dy);

    const double mean_dy = sum_dy / count;
    const double mean_dy_xh = sum_dy_xh / count;
    const float g_inv_std = gamma_.value[ch] * c.inv_std[ch];
    for (std::int64_t i = 0; i < n; ++i) {
      const float* dyr = dy.data() + (i * ch_n + ch) * plane;
      const float* xh = c.xhat.data() + (i * ch_n + ch) * plane;
      float* dxr = dx.data() + (i * ch_n + ch) * plane;
      for (std::int64_t j = 0; j < plane; ++j) {
        dxr[j] = static_cast<float>(
            g_inv_std * (dyr[j] - mean_dy - double(xh[j]) * mean_dy_xh));
      }
    }
  }
  return dx;
}

}  // namespace af
