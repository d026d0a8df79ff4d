// The shared inner GEMM microkernels.
//
// matmul_acc (FP32 operands) and matmul_packed (LUT-decoded packed weight
// panels) both accumulate through these loops, so "bit-identical to the
// scalar path" reduces to an argument about operand values, not about
// kernels agreeing. The determinism contract they uphold for every output
// element c[i][j]:
//
//  * the k index advances in ascending order within the window, and the
//    caller walks windows in ascending k order, so the accumulation chain
//    has one fixed association regardless of threading;
//  * exact-zero A values are skipped before the multiply — part of the
//    observable accumulation order, so every caller shares the rule.
//
// Each step is one float multiply then one float add into c[i][j] (no FMA,
// no reassociation), so any loop that walks the whole k range ascending
// with the same zero skip computes the same bits. gemm_dot_rows is such a
// loop: matmul_acc's x*W^T form, one dot product per output over the
// contiguous A and B rows, with no k-blocks and no repacked tile. Both
// kernels are the scalar KernelBackend's entries (src/kernels/backend.hpp);
// the AVX2 dot-rows entry runs the same chain in 8 lanes and is therefore
// bit-identical to this one.
#pragma once

#include <cstdint>

namespace af {
namespace detail {

// Fixed GEMM grains, shared by matmul_acc and matmul_packed. They are part
// of the determinism contract: chunk boundaries depend only on (range,
// grain), never on the thread count. The row grain and k-block fix where
// the row-parallel chunks and k-windows fall; the j-tile width (used by
// matmul_packed's decoded tiles) only groups reads of B, never the chain.
constexpr std::int64_t kMatmulRowGrain = 16;  // C rows per chunk
constexpr std::int64_t kMatmulKBlock = 256;   // k-panel kept hot in cache
constexpr std::int64_t kMatmulJTile = 64;     // pack-tile columns

/// Accumulates C[i0:i1, 0:n] += A[:, k0:k1] * Bt over one k-window, where
/// Bt is a row-major [k1 - k0, ldbt] tile holding op(B)[k0:k1, 0:n]
/// (n <= ldbt). `c` points at column 0 of the caller's output window with
/// row stride `ldc`; A is addressed exactly as in the reference kernel
/// (trans_a reads column i).
inline void gemm_panel_accumulate(float* c, std::int64_t ldc, const float* a,
                                  std::int64_t lda, bool trans_a,
                                  const float* bt, std::int64_t ldbt,
                                  std::int64_t n, std::int64_t i0,
                                  std::int64_t i1, std::int64_t k0,
                                  std::int64_t k1) {
  for (std::int64_t i = i0; i < i1; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      const float aval = trans_a ? a[kk * lda + i] : a[i * lda + kk];
      if (aval == 0.0f) continue;
      const float* brow = bt + (kk - k0) * ldbt;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
    }
  }
}

/// crow[0:W] += arow * B[0:W, :]^T for W consecutive rows of B (row t at
/// bj + t*k): W independent scalar chains, so the k loop is not bound by
/// add latency. Each chain is the shared one above — start from c[i][j],
/// k ascending over the whole range, skip a[i][k] == 0 before the
/// multiply, one multiply then one add — which is the panel path's chain
/// with its ascending k-windows concatenated.
template <std::int64_t W>
inline void dot_cols(float* crow, const float* arow, const float* bj,
                     std::int64_t k) {
  float s[W];
  for (std::int64_t t = 0; t < W; ++t) s[t] = crow[t];
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float av = arow[kk];
    if (av == 0.0f) continue;
    for (std::int64_t t = 0; t < W; ++t) s[t] += av * bj[t * k + kk];
  }
  for (std::int64_t t = 0; t < W; ++t) crow[t] = s[t];
}

/// C[m, n] += A[m, k] * B[n, k]^T, all three contiguous row-major, one dot
/// product per output over the A row and B row: bit-identical to the panel
/// path over op(B), with no repacked tile. Any m; eight columns at a time,
/// then a one-column tail.
inline void gemm_dot_rows(float* c, const float* a, const float* b,
                          std::int64_t m, std::int64_t n, std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) dot_cols<8>(crow + j, arow, b + j * k, k);
    for (; j < n; ++j) dot_cols<1>(crow + j, arow, b + j * k, k);
  }
}

}  // namespace detail
}  // namespace af
