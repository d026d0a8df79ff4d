// Dense linear-algebra and shape kernels backing the NN layers.
//
// All functions operate on contiguous row-major tensors and check shapes.
// Matrix arguments are rank-2; batched operations are expressed by the
// caller flattening leading axes (the layers do this explicitly).
#pragma once

#include <algorithm>
#include <cmath>

#include "src/kernels/backend.hpp"
#include "src/tensor/tensor.hpp"

namespace af {

// ----- matrix products -----------------------------------------------------

/// C = op(A) * op(B). op is transpose when the corresponding flag is set.
/// A is [m,k] (or [k,m] when trans_a), B is [k,n] (or [n,k] when trans_b).
/// Setting both flags is rejected with af::Error.
///
/// Every c[i][j] is one fixed chain (src/tensor/gemm_kernel.hpp): k
/// ascending, exact-zero A values skipped, one multiply then one add, no
/// FMA — on every backend and for any AF_THREADS. Two forms compute it: a
/// trans_b call (x*W^T, every layer forward) runs one dot product per
/// output over the contiguous rows, on `backend`'s gemm_dot_rows entry
/// (nullptr = active_backend()), which is bit-identical on every backend,
/// so the pin moves speed, never bits; any other call (the backward
/// passes) runs the scalar cache-blocked panel kernel. Either way row i of
/// any product equals that row run solo.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false, const KernelBackend* backend = nullptr);

/// C += op(A) * op(B) — accumulating form used by backward passes.
void matmul_acc(Tensor& c, const Tensor& a, const Tensor& b,
                bool trans_a = false, bool trans_b = false,
                const KernelBackend* backend = nullptr);

// ----- elementwise ---------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);        ///< same-shape a + b
Tensor sub(const Tensor& a, const Tensor& b);        ///< same-shape a - b
Tensor mul(const Tensor& a, const Tensor& b);        ///< same-shape a ⊙ b
Tensor scale(const Tensor& a, float s);              ///< s * a
void add_inplace(Tensor& a, const Tensor& b);        ///< a += b
void axpy_inplace(Tensor& a, float s, const Tensor& b);  ///< a += s*b

/// Adds bias[n] to every row of x[m,n], in place.
void add_row_bias_inplace(Tensor& x, const Tensor& bias);

/// Sums x[m,n] over rows into a vector [n].
Tensor sum_rows(const Tensor& x);

/// Sums x[m,n] over columns into a vector [m] — the per-row totals the
/// ABFT layer compares against input-predicted checksums. Each row is
/// accumulated left-to-right (one fixed association), rows in parallel.
Tensor sum_cols(const Tensor& x);

// ----- shape ---------------------------------------------------------------

/// Transpose of a rank-2 tensor.
Tensor transpose2d(const Tensor& x);

/// Concatenates two rank-2 tensors [m,n1],[m,n2] along columns -> [m,n1+n2].
Tensor concat_cols(const Tensor& a, const Tensor& b);

/// Splits columns [m, n1+n2] back into the two halves (backward of
/// concat_cols).
void split_cols(const Tensor& x, std::int64_t n1, Tensor& a, Tensor& b);

// ----- softmax family ------------------------------------------------------

// softmax_row_inplace (the per-row kernel softmax_rows runs, shared with
// every backend's attend core) is declared in src/kernels/backend.hpp.

/// Row-wise softmax of x[m,n] (numerically stabilized by row max).
Tensor softmax_rows(const Tensor& x);

/// Backward of softmax_rows: given y = softmax(x) and dL/dy, returns dL/dx.
Tensor softmax_rows_backward(const Tensor& y, const Tensor& dy);

/// Row-wise argmax indices of x[m,n] -> vector<int64_t> of length m.
std::vector<std::int64_t> argmax_rows(const Tensor& x);

// ----- convolution lowering -------------------------------------------------

/// Parameters of a 2-D convolution (square stride/padding per axis).
struct Conv2dSpec {
  std::int64_t in_channels = 0;
  std::int64_t kernel_h = 0;
  std::int64_t kernel_w = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h(std::int64_t in_h) const {
    return (in_h + 2 * pad - kernel_h) / stride + 1;
  }
  std::int64_t out_w(std::int64_t in_w) const {
    return (in_w + 2 * pad - kernel_w) / stride + 1;
  }
};

/// Lowers one image [C,H,W] to a patch matrix
/// [C*kh*kw, out_h*out_w]; convolution then becomes a matmul with the
/// flattened filter bank.
Tensor im2col(const Tensor& image, const Conv2dSpec& spec);

/// Adjoint of im2col: scatters a patch matrix back into image gradients
/// [C,H,W] (accumulating overlapping windows).
Tensor col2im(const Tensor& cols, const Conv2dSpec& spec, std::int64_t in_h,
              std::int64_t in_w);

}  // namespace af
