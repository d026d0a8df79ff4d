#include "src/nn/conv2d.hpp"

#include <algorithm>
#include <mutex>

#include "src/resilience/abft.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace af {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Pcg32& rng, bool has_bias, const std::string& name)
    : spec_{in_channels, kernel, kernel, stride, pad},
      out_channels_(out_channels),
      has_bias_(has_bias),
      weight_(name + ".weight",
              he_normal({out_channels, in_channels, kernel, kernel},
                        in_channels * kernel * kernel, rng)),
      bias_(name + ".bias", Tensor({out_channels})) {}

Tensor Conv2d::forward(const Tensor& x, ExecutionContext& ctx) {
  AF_CHECK(x.rank() == 4 && x.dim(1) == spec_.in_channels,
           "Conv2d expects [N, C, H, W]");
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = spec_.out_h(h), ow = spec_.out_w(w);
  const std::int64_t patch = c * spec_.kernel_h * spec_.kernel_w;
  const Tensor wflat = weight_.value.reshaped({out_channels_, patch});

  Cache cache;
  if (ctx.training) {
    cache.in_h = h;
    cache.in_w = w;
    cache.cols.resize(static_cast<std::size_t>(n));
  }
  auto compute = [&]() -> Tensor {
    Tensor y({n, out_channels_, oh, ow});
    AbftReport abft_total;
    std::mutex abft_mu;
    // Images are independent: each chunk lowers and multiplies its own
    // batch entries, writing disjoint [i] slices of y and cache.cols —
    // bit-identical for any thread count. The nested matmul runs serially
    // inside the worker; the ABFT merge is pure counter addition, so the
    // lock order cannot perturb results.
    parallel_for(0, n, 1, [&](std::int64_t i0, std::int64_t i1) {
      AbftReport abft_local;
      for (std::int64_t i = i0; i < i1; ++i) {
        Tensor img({c, h, w});
        std::copy_n(x.data() + i * c * h * w, c * h * w, img.data());
        Tensor cols = im2col(img, spec_);
        Tensor yi;
        if (ctx.wants_abft()) {
          yi = abft_matmul(wflat, cols, /*trans_b=*/false,
                           ctx.abft_config(weight_.name), &abft_local,
                           ctx.mac_hook);
        } else {
          yi = matmul(wflat, cols);  // [F, oh*ow]
        }
        if (has_bias_) {
          for (std::int64_t f = 0; f < out_channels_; ++f) {
            float* row = yi.data() + f * oh * ow;
            for (std::int64_t j = 0; j < oh * ow; ++j)
              row[j] += bias_.value[f];
          }
        }
        std::copy_n(yi.data(), out_channels_ * oh * ow,
                    y.data() + i * out_channels_ * oh * ow);
        if (ctx.training) {
          cache.cols[static_cast<std::size_t>(i)] = std::move(cols);
        }
      }
      if (ctx.wants_abft()) {
        std::lock_guard<std::mutex> lock(abft_mu);
        abft_total.merge(abft_local);
      }
    });
    if (ctx.wants_abft() && ctx.report != nullptr) {
      ctx.report->abft.merge(abft_total);
    }
    return y;
  };
  Tensor y = ctx.wants_guard()
                 ? ctx.active_guard().run(compute, {n, out_channels_, oh, ow},
                                          ctx.report)
                 : compute();
  if (ctx.training) cache_.push_back(std::move(cache));
  return y;
}

Tensor Conv2d::backward(const Tensor& dy) {
  AF_CHECK(!cache_.empty(), "Conv2d backward without matching forward");
  Cache cache = std::move(cache_.back());
  cache_.pop_back();
  const std::int64_t n = dy.dim(0);
  AF_CHECK(dy.rank() == 4 && dy.dim(1) == out_channels_ &&
               n == static_cast<std::int64_t>(cache.cols.size()),
           "Conv2d backward shape mismatch");
  const std::int64_t oh = dy.dim(2), ow = dy.dim(3);
  const std::int64_t c = spec_.in_channels;
  const std::int64_t patch = c * spec_.kernel_h * spec_.kernel_w;
  const Tensor wflat = weight_.value.reshaped({out_channels_, patch});
  Tensor dwflat = weight_.grad.reshaped({out_channels_, patch});

  Tensor dx({n, c, cache.in_h, cache.in_w});
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor dyi({out_channels_, oh * ow});
    std::copy_n(dy.data() + i * out_channels_ * oh * ow,
                out_channels_ * oh * ow, dyi.data());
    // dW += dy_i cols^T; db += row sums; dcols = W^T dy_i.
    matmul_acc(dwflat, dyi, cache.cols[static_cast<std::size_t>(i)], false,
               /*trans_b=*/true);
    if (has_bias_) {
      for (std::int64_t f = 0; f < out_channels_; ++f) {
        const float* row = dyi.data() + f * oh * ow;
        for (std::int64_t j = 0; j < oh * ow; ++j) bias_.grad[f] += row[j];
      }
    }
    Tensor dcols = matmul(wflat, dyi, /*trans_a=*/true);
    Tensor dimg = col2im(dcols, spec_, cache.in_h, cache.in_w);
    std::copy_n(dimg.data(), c * cache.in_h * cache.in_w,
                dx.data() + i * c * cache.in_h * cache.in_w);
  }
  // The reshaped grad is a copy; fold it back into the parameter grad.
  weight_.grad = dwflat.reshaped(weight_.value.shape());
  return dx;
}

std::vector<Parameter*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace af
