// The shared inner GEMM microkernel.
//
// matmul_acc (FP32 operands) and matmul_packed (LUT-decoded packed weight
// panels) both accumulate through this one loop nest, so "bit-identical to
// the scalar path" reduces to an argument about operand values, not about
// two kernels agreeing. The determinism contract it upholds for every
// output element c[i][j]:
//
//  * the k index advances in ascending order within the window, and the
//    caller walks windows in ascending k order, so the accumulation chain
//    has one fixed association regardless of threading;
//  * exact-zero A values are skipped before the multiply — part of the
//    observable accumulation order, so every caller shares the rule.
//
// Each step is one float multiply then one float add into c[i][j] (no FMA,
// no reassociation), so any loop that walks the whole k range ascending
// with the same zero skip computes the same bits. matmul_acc's small-M
// x*W^T path (ops.cpp) is such a loop: one dot product per output over the
// contiguous A and B rows, with no k-blocks and no repacked tile.
#pragma once

#include <cstdint>

namespace af {
namespace detail {

// Fixed GEMM grains, shared by matmul_acc and matmul_packed. They are part
// of the determinism contract: chunk boundaries depend only on (range,
// grain), never on the thread count. The row grain and k-block fix where
// the row-parallel chunks and k-windows fall; the j-tile width only groups
// reads of B, never the chain.
constexpr std::int64_t kMatmulRowGrain = 16;  // C rows per chunk
constexpr std::int64_t kMatmulKBlock = 256;   // k-panel kept hot in cache
constexpr std::int64_t kMatmulJTile = 64;     // pack-tile columns
// x*W^T products with at most this many rows take the dot-product path
// instead of repacking W into tiles. Chosen from m alone, a property of
// the input, so it is not a tuning knob: both paths compute the same bits.
constexpr std::int64_t kMatmulDotRows = 4;

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

}  // namespace detail
}  // namespace af
