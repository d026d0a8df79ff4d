#include "src/kernels/gemm_packed.hpp"

#include <algorithm>

#include "src/kernels/backend.hpp"
#include "src/kernels/decode_lut.hpp"
#include "src/tensor/gemm_kernel.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace af {

Tensor matmul_packed(const Tensor& x, const PackedAdaptivFloatTensor& w,
                     const KernelBackend& backend) {
  AF_CHECK(x.rank() == 2, "matmul_packed input must be rank-2");
  AF_CHECK(w.shape().size() == 2, "matmul_packed weight must be rank-2");
  const std::int64_t m = x.dim(0);
  const std::int64_t k = x.dim(1);
  const std::int64_t n = w.shape()[0];
  AF_CHECK(k == w.shape()[1],
           "matmul_packed inner dimensions disagree: " + shape_str(x.shape()) +
               " x packed " + shape_str(w.shape()));

  count_backend_dispatch(backend);
  Tensor c({m, n});
  const float* pa = x.data();
  float* pc = c.data();
  const std::uint8_t* bytes = w.data();
  const std::size_t nbytes = w.payload_bytes();
  const int bits = w.format().bits();
  const float* table = w.decode_lut().data();

  // Decode each weight panel exactly once per call and stream every
  // activation row through it, instead of re-decoding per row chunk. For a
  // batched forward with m rows this amortizes the tile decode cost m-fold;
  // the per-element accumulation chain (k0 blocks ascending, kk ascending
  // inside gemm_panel_accumulate) is unchanged, so results stay bit-identical
  // to the row-chunk-local decode — and row i of a batched call is
  // bit-identical to the same row run solo (rows never interact).
  float tile[detail::kMatmulKBlock * detail::kMatmulJTile];
  for (std::int64_t k0 = 0; k0 < k; k0 += detail::kMatmulKBlock) {
    const std::int64_t k1 = std::min(k, k0 + detail::kMatmulKBlock);
    for (std::int64_t j0 = 0; j0 < n; j0 += detail::kMatmulJTile) {
      const std::int64_t j1 = std::min(n, j0 + detail::kMatmulJTile);
      const std::int64_t jt = j1 - j0;
      // Decode W[j0:j1, k0:k1) once into a k-major tile: tile row kk - k0
      // holds W[j0:j1, kk]. The backend fills it in whole k-rows (the AVX2
      // entry decodes 8 weight rows x 8 codes in registers and transposes
      // them); the tile's values, and so the chain below, are the same on
      // every backend.
      backend.decode_tile(bytes, nbytes, bits, k, j0, j1, k0, k1, table, tile);
      parallel_for(0, m, detail::kMatmulRowGrain,
                   [&](std::int64_t i0, std::int64_t i1) {
                     backend.gemm_panel_accumulate(pc + j0, n, pa, k, tile, jt,
                                                   jt, i0, i1, k0, k1);
                   });
    }
  }
  return c;
}

Tensor matmul_packed(const Tensor& x, const PackedAdaptivFloatTensor& w) {
  return matmul_packed(x, w, active_backend());
}

}  // namespace af
