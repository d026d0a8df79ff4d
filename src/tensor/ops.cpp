#include "src/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/kernels/backend.hpp"
#include "src/tensor/gemm_kernel.hpp"
#include "src/util/parallel.hpp"

namespace af {
namespace {

using detail::kMatmulKBlock;
using detail::kMatmulRowGrain;

// Fixed parallel grains. These are part of the determinism contract: chunk
// boundaries depend only on (range, grain), so the constants may be tuned
// but must never be derived from the thread count. (The GEMM grains live in
// gemm_kernel.hpp beside the chain contract they define.)
constexpr std::int64_t kElemGrain = 1 << 13;  // elements per chunk
constexpr std::int64_t kRowGrain = 16;        // matrix rows per chunk

void check_rank2(const Tensor& t, const char* name) {
  AF_CHECK(t.rank() == 2,
           std::string(name) + " must be rank-2, got " + shape_str(t.shape()));
}

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  AF_CHECK(a.shape() == b.shape(), std::string(op) + ": shape mismatch " +
                                       shape_str(a.shape()) + " vs " +
                                       shape_str(b.shape()));
}

}  // namespace

void matmul_acc(Tensor& c, const Tensor& a, const Tensor& b, bool trans_a,
                bool trans_b, const KernelBackend* backend) {
  check_rank2(a, "matmul a");
  check_rank2(b, "matmul b");
  check_rank2(c, "matmul c");
  AF_CHECK(!(trans_a && trans_b), "matmul: trans_a with trans_b unsupported");
  const std::int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::int64_t k = trans_a ? a.dim(0) : a.dim(1);
  const std::int64_t kb = trans_b ? b.dim(1) : b.dim(0);
  const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
  AF_CHECK(k == kb, "matmul inner dimensions disagree: " +
                        shape_str(a.shape()) + " x " + shape_str(b.shape()));
  AF_CHECK(c.dim(0) == m && c.dim(1) == n, "matmul output shape mismatch");

  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  const std::int64_t lda = a.dim(1);
  const std::int64_t ldb = b.dim(1);

  // x*W^T: one dot product per output over the contiguous A and B rows, on
  // the backend in force (every backend computes the same bits), in row
  // chunks that own disjoint rows of C.
  if (trans_b) {
    const KernelBackend& be =
        backend != nullptr ? *backend : active_backend();
    count_backend_dispatch(be);
    parallel_for(0, m, kMatmulRowGrain, [&](std::int64_t i0, std::int64_t i1) {
      be.gemm_dot_rows(pc + i0 * n, pa + i0 * k, pb, i1 - i0, n, k);
    });
    return;
  }

  // Cache-blocked i-k-j kernel, parallel over row panels of C. Each chunk
  // owns a disjoint panel of output rows, and for a fixed row the k index
  // still advances in ascending order across the k-blocks, so every c[i][j]
  // accumulates in exactly the serial order — results are bit-identical for
  // any thread count. The k-blocking keeps a [kc, n] panel of B hot in
  // cache while the rows of the panel stream over it.
  parallel_for(0, m, kMatmulRowGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t k0 = 0; k0 < k; k0 += kMatmulKBlock) {
      const std::int64_t k1 = std::min(k, k0 + kMatmulKBlock);
      detail::gemm_panel_accumulate(pc, n, pa, lda, trans_a, pb + k0 * ldb,
                                    ldb, n, i0, i1, k0, k1);
    }
  });
}

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b,
              const KernelBackend* backend) {
  check_rank2(a, "matmul a");
  check_rank2(b, "matmul b");
  const std::int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  matmul_acc(c, a, b, trans_a, trans_b, backend);
  return c;
}

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out(a.shape());
  parallel_for(0, a.numel(), kElemGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) out[i] = a[i] + b[i];
  });
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out(a.shape());
  parallel_for(0, a.numel(), kElemGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) out[i] = a[i] - b[i];
  });
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out(a.shape());
  parallel_for(0, a.numel(), kElemGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) out[i] = a[i] * b[i];
  });
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out(a.shape());
  parallel_for(0, a.numel(), kElemGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) out[i] = a[i] * s;
  });
  return out;
}

void add_inplace(Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add_inplace");
  parallel_for(0, a.numel(), kElemGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) a[i] += b[i];
  });
}

void axpy_inplace(Tensor& a, float s, const Tensor& b) {
  check_same_shape(a, b, "axpy_inplace");
  parallel_for(0, a.numel(), kElemGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) a[i] += s * b[i];
  });
}

void add_row_bias_inplace(Tensor& x, const Tensor& bias) {
  check_rank2(x, "add_row_bias x");
  AF_CHECK(bias.rank() == 1 && bias.dim(0) == x.dim(1),
           "bias shape must be [cols]");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  parallel_for(0, m, kRowGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* row = x.data() + i * n;
      for (std::int64_t j = 0; j < n; ++j) row[j] += bias[j];
    }
  });
}

Tensor sum_rows(const Tensor& x) {
  check_rank2(x, "sum_rows");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  Tensor out({n});
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) out[j] += row[j];
  }
  return out;
}

Tensor sum_cols(const Tensor& x) {
  check_rank2(x, "sum_cols");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  Tensor out({m});
  parallel_for(0, m, kRowGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* row = x.data() + i * n;
      float acc = 0.0f;
      for (std::int64_t j = 0; j < n; ++j) acc += row[j];
      out[i] = acc;
    }
  });
  return out;
}

Tensor transpose2d(const Tensor& x) {
  check_rank2(x, "transpose2d");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  Tensor out({n, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      out[j * m + i] = x[i * n + j];
    }
  }
  return out;
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  check_rank2(a, "concat_cols a");
  check_rank2(b, "concat_cols b");
  AF_CHECK(a.dim(0) == b.dim(0), "concat_cols: row counts differ");
  const std::int64_t m = a.dim(0), n1 = a.dim(1), n2 = b.dim(1);
  Tensor out({m, n1 + n2});
  for (std::int64_t i = 0; i < m; ++i) {
    std::copy_n(a.data() + i * n1, n1, out.data() + i * (n1 + n2));
    std::copy_n(b.data() + i * n2, n2, out.data() + i * (n1 + n2) + n1);
  }
  return out;
}

void split_cols(const Tensor& x, std::int64_t n1, Tensor& a, Tensor& b) {
  check_rank2(x, "split_cols");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  AF_CHECK(n1 >= 0 && n1 <= n, "split_cols: bad split point");
  const std::int64_t n2 = n - n1;
  a = Tensor({m, n1});
  b = Tensor({m, n2});
  for (std::int64_t i = 0; i < m; ++i) {
    std::copy_n(x.data() + i * n, n1, a.data() + i * n1);
    std::copy_n(x.data() + i * n + n1, n2, b.data() + i * n2);
  }
}

Tensor softmax_rows(const Tensor& x) {
  check_rank2(x, "softmax_rows");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  AF_CHECK(n > 0, "softmax over empty rows");
  Tensor out(x.shape());
  parallel_for(0, m, kRowGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* orow = out.data() + i * n;
      std::memcpy(orow, x.data() + i * n,
                  static_cast<std::size_t>(n) * sizeof(float));
      softmax_row_inplace(orow, n);
    }
  });
  return out;
}

Tensor softmax_rows_backward(const Tensor& y, const Tensor& dy) {
  check_same_shape(y, dy, "softmax_rows_backward");
  const std::int64_t m = y.dim(0), n = y.dim(1);
  Tensor dx(y.shape());
  parallel_for(0, m, kRowGrain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* yr = y.data() + i * n;
      const float* dyr = dy.data() + i * n;
      float* dxr = dx.data() + i * n;
      double dot = 0.0;
      for (std::int64_t j = 0; j < n; ++j) dot += double(yr[j]) * dyr[j];
      for (std::int64_t j = 0; j < n; ++j) {
        dxr[j] = yr[j] * (dyr[j] - static_cast<float>(dot));
      }
    }
  });
  return dx;
}

std::vector<std::int64_t> argmax_rows(const Tensor& x) {
  check_rank2(x, "argmax_rows");
  const std::int64_t m = x.dim(0), n = x.dim(1);
  AF_CHECK(n > 0, "argmax over empty rows");
  std::vector<std::int64_t> out(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = x.data() + i * n;
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < n; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

Tensor im2col(const Tensor& image, const Conv2dSpec& spec) {
  AF_CHECK(image.rank() == 3, "im2col expects [C,H,W]");
  const std::int64_t c = image.dim(0), h = image.dim(1), w = image.dim(2);
  AF_CHECK(c == spec.in_channels, "im2col channel mismatch");
  const std::int64_t oh = spec.out_h(h), ow = spec.out_w(w);
  AF_CHECK(oh > 0 && ow > 0, "conv output would be empty");
  const std::int64_t patch = c * spec.kernel_h * spec.kernel_w;
  Tensor cols({patch, oh * ow});
  float* pc = cols.data();
  const float* pi = image.data();
  std::int64_t prow = 0;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < spec.kernel_w; ++kw, ++prow) {
        float* dst = pc + prow * (oh * ow);
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t sy = y * spec.stride + kh - spec.pad;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t sx = x * spec.stride + kw - spec.pad;
            const bool in = sy >= 0 && sy < h && sx >= 0 && sx < w;
            dst[y * ow + x] = in ? pi[(ch * h + sy) * w + sx] : 0.0f;
          }
        }
      }
    }
  }
  return cols;
}

Tensor col2im(const Tensor& cols, const Conv2dSpec& spec, std::int64_t in_h,
              std::int64_t in_w) {
  AF_CHECK(cols.rank() == 2, "col2im expects a patch matrix");
  const std::int64_t c = spec.in_channels;
  const std::int64_t oh = spec.out_h(in_h), ow = spec.out_w(in_w);
  AF_CHECK(cols.dim(0) == c * spec.kernel_h * spec.kernel_w &&
               cols.dim(1) == oh * ow,
           "col2im: patch matrix shape mismatch");
  Tensor image({c, in_h, in_w});
  float* pi = image.data();
  const float* pc = cols.data();
  std::int64_t prow = 0;
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (std::int64_t kh = 0; kh < spec.kernel_h; ++kh) {
      for (std::int64_t kw = 0; kw < spec.kernel_w; ++kw, ++prow) {
        const float* src = pc + prow * (oh * ow);
        for (std::int64_t y = 0; y < oh; ++y) {
          const std::int64_t sy = y * spec.stride + kh - spec.pad;
          if (sy < 0 || sy >= in_h) continue;
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t sx = x * spec.stride + kw - spec.pad;
            if (sx < 0 || sx >= in_w) continue;
            pi[(ch * in_h + sy) * in_w + sx] += src[y * ow + x];
          }
        }
      }
    }
  }
  return image;
}

}  // namespace af
