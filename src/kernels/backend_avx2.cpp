// AVX2 + FMA kernel backend.
//
// This translation unit is the only one compiled with -mavx2 -mfma; it must
// not be entered unless cpu_supports_avx2() returned true (backend.cpp
// guards that). It is also compiled with -ffp-contract=off: every FMA here
// is written out (_mm256_fmadd_ps, std::fmaf), and the dot-rows kernel's
// separate multiply and add must not be fused behind its back. Eight
// primitives:
//
//  * gemm_panel_accumulate — register-blocked FMA accumulation: 4-row ×
//    16-column blocks held in ymm accumulators across the whole k-window
//    (one C load/store per window, and each B row load amortized over 4
//    output rows instead of re-streamed per row). The per-element
//    accumulation chain is "ascending k, one fused multiply-add per step,
//    no zero skip" — identical for every row/column block width (the
//    narrower and scalar tails use the same FMA chain via std::fmaf), so
//    results are bit-identical across AF_THREADS and across block
//    alignment, but NOT to the scalar backend (FMA rounds once per step
//    where mul+add rounds twice; bounded by kGemmBackendUlpTol at the
//    product-norm scale — see backend.hpp).
//  * gemm_dot_rows — every fp32 x*W^T, bit-identical to the scalar backend:
//    4 rows × 8 output columns per block, W rows transposed in registers
//    8 k at a time, each lane running the scalar chain exactly (k
//    ascending, exact-zero A skipped, rounded multiply then rounded add).
//  * unpack_decode — vectorized 3-byte-window code extraction: 8 codes per
//    iteration via a 32-bit gather on the byte stream, per-lane variable
//    shift + mask, then a gathered LUT decode. Pure table map —
//    bit-identical to the scalar backend.
//  * decode_tile — the packed GEMM's k-major tile fill in 8 weight rows x
//    8 codes register blocks: a byte transpose then one gathered decode
//    per tile row at 8 bits, the attend kernel's CodeReader plus
//    transpose8 at other widths; whole tile rows are stored. Pure table
//    map — bit-identical to the scalar backend.
//  * attend_row — the attention core over fp32 or packed K/V codes,
//    decoded in-register: scores 8 keys at a time across double lanes
//    (exact-product FMA), the shared scalar softmax, then the V mix across
//    8 float lanes of d. Bit-identical to the scalar backend.
//  * checksum_dot_rows — the ABFT checksum chains, one output row per double
//    lane: 4 k of 8 rows widened with cvtps_pd and transposed 4x4 in
//    registers, then a multiply and a separate add per step, so each lane
//    runs the scalar chain exactly. Bit-identical to the scalar backend.
//  * tanh_map — tanh_f32 (tanh.cpp) in 8 lanes: every fdlibm branch
//    computed with tanh_f32's operations in its order, each lane's own
//    selected by blends. Bit-identical to the scalar backend.
//  * encode — each format's closed-form encoder (encode.hpp) in 8 lanes,
//    with the quantized values on request: the kFloat field formula, the
//    kLevel divide and round in double, and the kPosit truncation with
//    both candidate values computed from the truncated bits. Bit-identical
//    to the scalar backend.
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/kernels/backend.hpp"
#include "src/kernels/decode_lut.hpp"
#include "src/tensor/gemm_kernel.hpp"

namespace af {
namespace {

// ----- GEMM ----------------------------------------------------------------

// One row's tail columns [j, n) via the same FMA chain as the vector body.
inline void row_tail_fma(float* crow, const float* arow, const float* bt,
                         std::int64_t ldbt, std::int64_t n, std::int64_t j0,
                         std::int64_t k0, std::int64_t k1) {
  for (std::int64_t j = j0; j < n; ++j) {
    float acc = crow[j];
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      acc = std::fmaf(arow[kk], bt[(kk - k0) * ldbt + j], acc);
    }
    crow[j] = acc;
  }
}

void avx2_gemm_panel_accumulate(float* c, std::int64_t ldc, const float* a,
                                std::int64_t lda, const float* bt,
                                std::int64_t ldbt, std::int64_t n,
                                std::int64_t i0, std::int64_t i1,
                                std::int64_t k0, std::int64_t k1) {
  std::int64_t i = i0;
  // 4-row × 16-column register block: 8 accumulators live across the whole
  // k-window, and each B row load feeds four output rows.
  for (; i + 4 <= i1; i += 4) {
    float* c0 = c + i * ldc;
    float* c1 = c0 + ldc;
    float* c2 = c1 + ldc;
    float* c3 = c2 + ldc;
    const float* r0 = a + i * lda;
    const float* r1 = r0 + lda;
    const float* r2 = r1 + lda;
    const float* r3 = r2 + lda;
    std::int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 a00 = _mm256_loadu_ps(c0 + j);
      __m256 a01 = _mm256_loadu_ps(c0 + j + 8);
      __m256 a10 = _mm256_loadu_ps(c1 + j);
      __m256 a11 = _mm256_loadu_ps(c1 + j + 8);
      __m256 a20 = _mm256_loadu_ps(c2 + j);
      __m256 a21 = _mm256_loadu_ps(c2 + j + 8);
      __m256 a30 = _mm256_loadu_ps(c3 + j);
      __m256 a31 = _mm256_loadu_ps(c3 + j + 8);
      const float* bj = bt + j;
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const float* brow = bj + (kk - k0) * ldbt;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const __m256 v0 = _mm256_set1_ps(r0[kk]);
        a00 = _mm256_fmadd_ps(v0, b0, a00);
        a01 = _mm256_fmadd_ps(v0, b1, a01);
        const __m256 v1 = _mm256_set1_ps(r1[kk]);
        a10 = _mm256_fmadd_ps(v1, b0, a10);
        a11 = _mm256_fmadd_ps(v1, b1, a11);
        const __m256 v2 = _mm256_set1_ps(r2[kk]);
        a20 = _mm256_fmadd_ps(v2, b0, a20);
        a21 = _mm256_fmadd_ps(v2, b1, a21);
        const __m256 v3 = _mm256_set1_ps(r3[kk]);
        a30 = _mm256_fmadd_ps(v3, b0, a30);
        a31 = _mm256_fmadd_ps(v3, b1, a31);
      }
      _mm256_storeu_ps(c0 + j, a00);
      _mm256_storeu_ps(c0 + j + 8, a01);
      _mm256_storeu_ps(c1 + j, a10);
      _mm256_storeu_ps(c1 + j + 8, a11);
      _mm256_storeu_ps(c2 + j, a20);
      _mm256_storeu_ps(c2 + j + 8, a21);
      _mm256_storeu_ps(c3 + j, a30);
      _mm256_storeu_ps(c3 + j + 8, a31);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 a0 = _mm256_loadu_ps(c0 + j);
      __m256 a1 = _mm256_loadu_ps(c1 + j);
      __m256 a2 = _mm256_loadu_ps(c2 + j);
      __m256 a3 = _mm256_loadu_ps(c3 + j);
      const float* bj = bt + j;
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const __m256 b0 = _mm256_loadu_ps(bj + (kk - k0) * ldbt);
        a0 = _mm256_fmadd_ps(_mm256_set1_ps(r0[kk]), b0, a0);
        a1 = _mm256_fmadd_ps(_mm256_set1_ps(r1[kk]), b0, a1);
        a2 = _mm256_fmadd_ps(_mm256_set1_ps(r2[kk]), b0, a2);
        a3 = _mm256_fmadd_ps(_mm256_set1_ps(r3[kk]), b0, a3);
      }
      _mm256_storeu_ps(c0 + j, a0);
      _mm256_storeu_ps(c1 + j, a1);
      _mm256_storeu_ps(c2 + j, a2);
      _mm256_storeu_ps(c3 + j, a3);
    }
    if (j < n) {
      for (int r = 0; r < 4; ++r) {
        row_tail_fma(c + (i + r) * ldc, a + (i + r) * lda, bt, ldbt, n, j, k0,
                     k1);
      }
    }
  }
  // Remainder rows: single-row 16/8-wide blocks, same chain.
  for (; i < i1; ++i) {
    float* crow = c + i * ldc;
    const float* arow = a + i * lda;
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      const float* bj = bt + j;
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[kk]),
                              _mm256_loadu_ps(bj + (kk - k0) * ldbt), acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    row_tail_fma(crow, arow, bt, ldbt, n, j, k0, k1);
  }
}

// ----- x*W^T dot products --------------------------------------------------

// In-register 8x8 transpose: on return col[u][t] = r[t][u].
inline void transpose8(const __m256 r[8], __m256 col[8]) {
  __m256 lo[4], hi[4];
  for (int p = 0; p < 4; ++p) {
    lo[p] = _mm256_unpacklo_ps(r[2 * p], r[2 * p + 1]);
    hi[p] = _mm256_unpackhi_ps(r[2 * p], r[2 * p + 1]);
  }
  // s[u] holds u = 0..3 (low 128 bits) and u + 4 (high) of r[0..3] for
  // u < 4, and the same of r[4..7] at s[u + 4].
  __m256 s[8];
  for (int h = 0; h < 2; ++h) {
    s[4 * h + 0] = _mm256_shuffle_ps(lo[2 * h], lo[2 * h + 1], 0x44);
    s[4 * h + 1] = _mm256_shuffle_ps(lo[2 * h], lo[2 * h + 1], 0xEE);
    s[4 * h + 2] = _mm256_shuffle_ps(hi[2 * h], hi[2 * h + 1], 0x44);
    s[4 * h + 3] = _mm256_shuffle_ps(hi[2 * h], hi[2 * h + 1], 0xEE);
  }
  for (int u = 0; u < 4; ++u) {
    col[u] = _mm256_permute2f128_ps(s[u], s[u + 4], 0x20);
    col[u + 4] = _mm256_permute2f128_ps(s[u], s[u + 4], 0x31);
  }
}

// Transposes the 8x8 block W[j:j+8, kk:kk+8) (row t at bj + t*k) in
// registers: on return col[u] = W[j:j+8][kk + u], the B operands of step
// kk + u in the eight column chains.
inline void load_cols8(const float* bj, std::int64_t k, std::int64_t kk,
                       __m256 col[8]) {
  __m256 r[8];
  for (int t = 0; t < 8; ++t) r[t] = _mm256_loadu_ps(bj + t * k + kk);
  transpose8(r, col);
}

// acc += a[u] * col[u] for u = 0..7 in order, one rounded multiply then
// one rounded add, skipping exact-zero a[u] (the same skip in every lane).
// One vector compare decides whether any of the eight needs the skip, so
// the common all-nonzero case runs without a branch per step (about a
// quarter faster at M = 4 on a 4-vCPU Xeon VM). The mixed case branches
// per step: on post-ReLU A (about half zeros) that beat every branch-free
// form measured — a blend of the product with -0.0, or of the sum with
// acc, ran 14-33% slower (EXPERIMENTS.md, "Attend over packed KV codes").
inline __m256 chain8(__m256 acc, const float* a, const __m256 col[8]) {
  const __m256 zero =
      _mm256_cmp_ps(_mm256_loadu_ps(a), _mm256_setzero_ps(), _CMP_EQ_OQ);
  if (_mm256_movemask_ps(zero) == 0) {
    for (int u = 0; u < 8; ++u) {
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(a[u]), col[u]));
    }
    return acc;
  }
  for (int u = 0; u < 8; ++u) {
    if (a[u] == 0.0f) continue;
    acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(a[u]), col[u]));
  }
  return acc;
}

// C[0:M, j:j+8] += A * W[j:j+8, :]^T: one accumulator per A row, so one
// transposed block feeds M chains, each lane running the scalar chain.
// The k % 8 tail continues each output's chain in scalar, in the same
// order.
template <int M>
void dot_block(float* c, const float* a, const float* b, std::int64_t n,
               std::int64_t k, std::int64_t j) {
  const std::int64_t k8 = k - k % 8;
  __m256 acc[M];
  for (int i = 0; i < M; ++i) acc[i] = _mm256_loadu_ps(c + i * n + j);
  for (std::int64_t kk = 0; kk < k8; kk += 8) {
    __m256 col[8];
    load_cols8(b + j * k, k, kk, col);
    for (int i = 0; i < M; ++i) acc[i] = chain8(acc[i], a + i * k + kk, col);
  }
  for (int i = 0; i < M; ++i) _mm256_storeu_ps(c + i * n + j, acc[i]);
  for (int i = 0; i < M; ++i) {
    const float* arow = a + i * k;
    for (std::int64_t jj = j; jj < j + 8; ++jj) {
      const float* brow = b + jj * k;
      float s = c[i * n + jj];
      for (std::int64_t kk = k8; kk < k; ++kk) {
        if (arow[kk] == 0.0f) continue;
        s += arow[kk] * brow[kk];
      }
      c[i * n + jj] = s;
    }
  }
}

template <int M>
void dot_rows_m(float* c, const float* a, const float* b, std::int64_t n,
                std::int64_t k) {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8) dot_block<M>(c, a, b, n, k, j);
  // n % 8 tail columns: the scalar backend's one-column chain.
  for (int i = 0; i < M; ++i) {
    for (std::int64_t jj = j; jj < n; ++jj) {
      detail::dot_cols<1>(c + i * n + jj, a + i * k, b + jj * k, k);
    }
  }
}

constexpr int kDotRowBlock = 4;  // A rows sharing each transposed W block

void avx2_gemm_dot_rows(float* c, const float* a, const float* b,
                        std::int64_t m, std::int64_t n, std::int64_t k) {
  for (; m >= kDotRowBlock;
       m -= kDotRowBlock, a += kDotRowBlock * k, c += kDotRowBlock * n) {
    dot_rows_m<kDotRowBlock>(c, a, b, n, k);
  }
  static_assert(kDotRowBlock == 4, "the switch below covers rows 1..3");
  switch (m) {
    case 3: dot_rows_m<3>(c, a, b, n, k); break;
    case 2: dot_rows_m<2>(c, a, b, n, k); break;
    case 1: dot_rows_m<1>(c, a, b, n, k); break;
    default: break;
  }
}

// ----- fused unpack + decode ----------------------------------------------

void avx2_unpack_decode(const std::uint8_t* bytes, std::size_t nbytes,
                        int bits, std::int64_t first, std::int64_t count,
                        const float* table, float* out) {
  std::int64_t i = 0;
  if (count >= 8) {
    const std::size_t first_bit =
        static_cast<std::size_t>(first) * static_cast<std::size_t>(bits);
    // 8*bits is a multiple of 8, so the bit phase within the base byte is
    // the same for every 8-element group: lane byte offsets and shifts are
    // loop constants, and the base byte pointer advances by `bits` bytes
    // per group.
    const unsigned phase = static_cast<unsigned>(first_bit & 7u);
    alignas(32) std::int32_t lane_byte[8];
    alignas(32) std::int32_t lane_shift[8];
    for (int l = 0; l < 8; ++l) {
      const unsigned off = phase + static_cast<unsigned>(l * bits);
      lane_byte[l] = static_cast<std::int32_t>(off >> 3);
      lane_shift[l] = static_cast<std::int32_t>(off & 7u);
    }
    const __m256i vbyte =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_byte));
    const __m256i vshift =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_shift));
    const __m256i vmask = _mm256_set1_epi32((1 << bits) - 1);
    std::size_t base = first_bit >> 3;
    // Each gather reads 4 bytes at bytes + base + lane_byte[l]; stay vector
    // only while the furthest lane's window is fully inside the payload.
    const std::size_t reach = static_cast<std::size_t>(lane_byte[7]) + 4;
    while (i + 8 <= count && base + reach <= nbytes) {
      const __m256i win = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(bytes + base), vbyte, 1);
      const __m256i codes =
          _mm256_and_si256(_mm256_srlv_epi32(win, vshift), vmask);
      _mm256_storeu_ps(out + i, _mm256_i32gather_ps(table, codes, 4));
      i += 8;
      base += static_cast<std::size_t>(bits);
    }
  }
  // Scalar tail (and payload-edge windows the 4-byte gather cannot touch).
  std::size_t bitpos = static_cast<std::size_t>(first + i) *
                       static_cast<std::size_t>(bits);
  for (; i < count; ++i, bitpos += bits) {
    out[i] = table[packed_code_at(bytes, nbytes, bitpos, bits)];
  }
}

// Reads an AttendOperand's codes decoded to floats, in-register. kBits is
// 32 (fp32 rows, plain loads), 8 (a byte load, zero-extended, one table
// gather) or 0 for any other width (the 3-byte-window extraction of
// avx2_unpack_decode: one 4-byte gather per lane, variable shift, mask,
// table gather).
template <int kBits>
class CodeReader {
 public:
  explicit CodeReader(const AttendOperand& o) : o_(o) {
    if constexpr (kBits == 0) {
      lane_bits_ = _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                                      _mm256_set1_epi32(o.bits));
      mask_ = _mm256_set1_epi32((1 << o.bits) - 1);
      // Bytes past a group's base byte that its last lane's window reaches.
      reach_ = static_cast<std::size_t>((7 + 7 * o.bits) / 8 + 4);
    }
  }

  // The index of the first code of row j's head slice.
  std::int64_t row(std::int64_t j) const { return j * o_.row_codes + o_.col; }

  // Codes [first, first + 8).
  __m256 load8(std::int64_t first) const {
    if constexpr (kBits == 32) {
      return _mm256_loadu_ps(reinterpret_cast<const float*>(o_.bytes) + first);
    } else if constexpr (kBits == 8) {
      const __m128i b = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(o_.bytes + first));
      return _mm256_i32gather_ps(o_.table, _mm256_cvtepu8_epi32(b), 4);
    } else {
      const std::size_t bit =
          static_cast<std::size_t>(first) * static_cast<std::size_t>(o_.bits);
      const std::size_t base = bit >> 3;
      if (base + reach_ <= o_.nbytes) {
        const __m256i off = _mm256_add_epi32(
            lane_bits_, _mm256_set1_epi32(static_cast<int>(bit & 7u)));
        const __m256i win = _mm256_i32gather_epi32(
            reinterpret_cast<const int*>(o_.bytes + base),
            _mm256_srli_epi32(off, 3), 1);
        const __m256i codes = _mm256_and_si256(
            _mm256_srlv_epi32(win, _mm256_and_si256(off, _mm256_set1_epi32(7))),
            mask_);
        return _mm256_i32gather_ps(o_.table, codes, 4);
      }
      // The region's last bytes: the scalar extraction never reads past
      // nbytes.
      alignas(32) float out[8];
      unpack_decode_scalar(o_.bytes, o_.nbytes, o_.bits, first, 8, o_.table,
                           out);
      return _mm256_load_ps(out);
    }
  }

  // Code i alone.
  float at(std::int64_t i) const {
    if constexpr (kBits == 32) {
      return reinterpret_cast<const float*>(o_.bytes)[i];
    } else {
      return o_.table[packed_code_at(
          o_.bytes, o_.nbytes,
          static_cast<std::size_t>(i) * static_cast<std::size_t>(o_.bits),
          o_.bits)];
    }
  }

 private:
  const AttendOperand& o_;
  __m256i lane_bits_{}, mask_{};
  std::size_t reach_ = 0;
};

// ----- GEMM tile fill ------------------------------------------------------

// Tile rows u = 0..7 (row stride ldt) of the 8x8 block of 8-bit codes
// whose weight row t starts at p + t*ld: tile row u holds byte u of every
// weight row. The 64 bytes are transposed first — three unpack rounds, so
// each 16-byte c[q] holds tile rows 2q and 2q + 1 — and each tile row is
// then one widen and one table gather.
inline void tile_block_bytes(const std::uint8_t* p, std::int64_t ld,
                             const float* table, float* out,
                             std::int64_t ldt) {
  __m128i r[8];
  for (int t = 0; t < 8; ++t) {
    r[t] = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + t * ld));
  }
  __m128i a[4], b[4], c[4];
  for (int h = 0; h < 4; ++h) a[h] = _mm_unpacklo_epi8(r[2 * h], r[2 * h + 1]);
  for (int h = 0; h < 2; ++h) {
    b[2 * h] = _mm_unpacklo_epi16(a[2 * h], a[2 * h + 1]);      // u = 0..3
    b[2 * h + 1] = _mm_unpackhi_epi16(a[2 * h], a[2 * h + 1]);  // u = 4..7
  }
  c[0] = _mm_unpacklo_epi32(b[0], b[2]);
  c[1] = _mm_unpackhi_epi32(b[0], b[2]);
  c[2] = _mm_unpacklo_epi32(b[1], b[3]);
  c[3] = _mm_unpackhi_epi32(b[1], b[3]);
  for (int q = 0; q < 4; ++q) {
    _mm256_storeu_ps(out + (2 * q) * ldt,
                     _mm256_i32gather_ps(table, _mm256_cvtepu8_epi32(c[q]), 4));
    _mm256_storeu_ps(
        out + (2 * q + 1) * ldt,
        _mm256_i32gather_ps(
            table, _mm256_cvtepu8_epi32(_mm_unpackhi_epi64(c[q], c[q])), 4));
  }
}

// The whole 8x8 blocks W[j0:j8, k0:k8) are filled in registers: at 8 bits
// the bytes are transposed before the decode; at other widths CodeReader<0>
// extracts and decodes each weight row's 8 codes and transpose8 turns the
// rows into tile rows. The ragged edges run the scalar fill.
void avx2_decode_tile(const std::uint8_t* bytes, std::size_t nbytes, int bits,
                      std::int64_t ld, std::int64_t j0, std::int64_t j1,
                      std::int64_t k0, std::int64_t k1, const float* table,
                      float* tile) {
  const std::int64_t jt = j1 - j0;
  const std::int64_t j8 = j1 - jt % 8;
  const std::int64_t k8 = k1 - (k1 - k0) % 8;
  if (bits == 8) {
    for (std::int64_t j = j0; j < j8; j += 8) {
      for (std::int64_t kk = k0; kk < k8; kk += 8) {
        tile_block_bytes(bytes + j * ld + kk, ld, table,
                         tile + (kk - k0) * jt + (j - j0), jt);
      }
    }
  } else {
    const AttendOperand w{bytes, nbytes, bits, table, ld, 0};
    const CodeReader<0> reader(w);
    for (std::int64_t j = j0; j < j8; j += 8) {
      for (std::int64_t kk = k0; kk < k8; kk += 8) {
        __m256 r[8], col[8];
        for (int t = 0; t < 8; ++t) r[t] = reader.load8(reader.row(j + t) + kk);
        transpose8(r, col);
        float* out = tile + (kk - k0) * jt + (j - j0);
        for (int u = 0; u < 8; ++u) _mm256_storeu_ps(out + u * jt, col[u]);
      }
    }
  }
  // The k % 8 tail of the whole-block rows, then the j % 8 tail rows.
  decode_tile_scalar(bytes, nbytes, bits, ld, j0, j8, k8, k1, table,
                     tile + (k8 - k0) * jt, jt);
  decode_tile_scalar(bytes, nbytes, bits, ld, j8, j1, k0, k1, table,
                     tile + (j8 - j0), jt);
}

// ----- attention -----------------------------------------------------------

// srow[j] = float(dot_j) * inv_sqrt_dh for j < visible. Keys run across
// lanes, eight at a time in two 4-wide double accumulators; each lane's
// chain is the scalar one, d ascending. A float x float product is exact
// in a double (24 + 24 significand bits <= 53, and no float product over-
// or underflows the double range), so fmadd(k, q, acc) rounds once, to the
// same double as the scalar acc + q*k.
template <int kBits>
void attend_scores(const float* q, const AttendOperand& ko,
                   std::int64_t visible, std::int64_t d_head,
                   float inv_sqrt_dh, float* srow) {
  const CodeReader<kBits> k(ko);
  const std::int64_t d8 = d_head - d_head % 8;
  const __m256 vinv = _mm256_set1_ps(inv_sqrt_dh);
  for (std::int64_t j = 0; j < visible; j += 8) {
    // Lanes past the last visible key re-read it; their scores are dropped.
    std::int64_t first[8];
    for (int t = 0; t < 8; ++t) first[t] = k.row(std::min(j + t, visible - 1));
    __m256d lo = _mm256_setzero_pd();  // keys j..j+3
    __m256d hi = _mm256_setzero_pd();  // keys j+4..j+7
    for (std::int64_t d = 0; d < d8; d += 8) {
      __m256 r[8], c[8];
      for (int t = 0; t < 8; ++t) r[t] = k.load8(first[t] + d);
      transpose8(r, c);
      for (int u = 0; u < 8; ++u) {
        const __m256d qd = _mm256_set1_pd(static_cast<double>(q[d + u]));
        lo = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(c[u])),
                             qd, lo);
        hi = _mm256_fmadd_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(c[u], 1)),
                             qd, hi);
      }
    }
    if (d8 < d_head) {
      // The d % 8 tail continues each key's chain in scalar.
      alignas(32) double dot[8];
      _mm256_store_pd(dot, lo);
      _mm256_store_pd(dot + 4, hi);
      for (int t = 0; t < 8; ++t) {
        for (std::int64_t d = d8; d < d_head; ++d) {
          dot[t] += static_cast<double>(q[d]) * k.at(first[t] + d);
        }
      }
      lo = _mm256_load_pd(dot);
      hi = _mm256_load_pd(dot + 4);
    }
    const __m256 s = _mm256_mul_ps(
        _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo)), vinv);
    if (j + 8 <= visible) {
      _mm256_storeu_ps(srow + j, s);
    } else {
      alignas(32) float tmp[8];
      _mm256_store_ps(tmp, s);
      std::memcpy(srow + j, tmp,
                  static_cast<std::size_t>(visible - j) * sizeof(float));
    }
  }
}

// crow[d] += srow[j] * V[j][d], keys ascending, d across 8 float lanes
// (16 at a time in two independent chains); exact-zero weights skipped.
template <int kBits>
void attend_mix(const AttendOperand& vo, const float* srow, std::int64_t len,
                std::int64_t d_head, float* crow) {
  const CodeReader<kBits> v(vo);
  std::int64_t d = 0;
  for (; d + 16 <= d_head; d += 16) {
    __m256 acc0 = _mm256_loadu_ps(crow + d);
    __m256 acc1 = _mm256_loadu_ps(crow + d + 8);
    for (std::int64_t j = 0; j < len; ++j) {
      if (srow[j] == 0.0f) continue;
      const __m256 a = _mm256_set1_ps(srow[j]);
      const std::int64_t first = v.row(j) + d;
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a, v.load8(first)));
      acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a, v.load8(first + 8)));
    }
    _mm256_storeu_ps(crow + d, acc0);
    _mm256_storeu_ps(crow + d + 8, acc1);
  }
  for (; d + 8 <= d_head; d += 8) {
    __m256 acc = _mm256_loadu_ps(crow + d);
    for (std::int64_t j = 0; j < len; ++j) {
      if (srow[j] == 0.0f) continue;
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(srow[j]),
                                             v.load8(v.row(j) + d)));
    }
    _mm256_storeu_ps(crow + d, acc);
  }
  for (; d < d_head; ++d) {
    float acc = crow[d];
    for (std::int64_t j = 0; j < len; ++j) {
      if (srow[j] == 0.0f) continue;
      acc += srow[j] * v.at(v.row(j) + d);
    }
    crow[d] = acc;
  }
}

void avx2_attend_row(const float* q, const AttendOperand& k,
                     const AttendOperand& v, std::int64_t len,
                     std::int64_t visible, std::int64_t d_head,
                     float inv_sqrt_dh, float* srow, float* crow) {
  switch (k.bits) {
    case 32: attend_scores<32>(q, k, visible, d_head, inv_sqrt_dh, srow); break;
    case 8: attend_scores<8>(q, k, visible, d_head, inv_sqrt_dh, srow); break;
    default: attend_scores<0>(q, k, visible, d_head, inv_sqrt_dh, srow); break;
  }
  for (std::int64_t j = visible; j < len; ++j) srow[j] = kAttendMaskValue;
  softmax_row_inplace(srow, len);
  switch (v.bits) {
    case 32: attend_mix<32>(v, srow, len, d_head, crow); break;
    case 8: attend_mix<8>(v, srow, len, d_head, crow); break;
    default: attend_mix<0>(v, srow, len, d_head, crow); break;
  }
}

// ----- ABFT checksum chains ------------------------------------------------

// Floats [0, 4) of the four rows p, p + ld, p + 2ld, p + 3ld, widened to
// doubles and transposed: on return col[u] = (r0[u], r1[u], r2[u], r3[u]).
inline void load_cols4d(const float* p, std::int64_t ld, __m256d col[4]) {
  __m256d r[4];
  for (int t = 0; t < 4; ++t) r[t] = _mm256_cvtps_pd(_mm_loadu_ps(p + t * ld));
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);  // r0[0] r1[0] r0[2] r1[2]
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);  // r0[1] r1[1] r0[3] r1[3]
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
  col[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  col[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  col[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  col[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// Eight rows at a time, rows o..o+3 in the lo lanes and o+4..o+7 in the hi
// lanes, each lane's chain the scalar one: k ascending, x * y rounded, then
// added. The k % 4 tail and the count % 8 rows continue in scalar.
void avx2_checksum_dot_rows(const float* rows, std::int64_t ld,
                            std::int64_t count, std::int64_t k,
                            const double* y, const double* yabs, double* out,
                            double* mag) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const std::int64_t k4 = k - k % 4;
  std::int64_t o = 0;
  for (; o + 8 <= count; o += 8) {
    const float* p = rows + o * ld;
    __m256d s_lo = _mm256_setzero_pd(), s_hi = _mm256_setzero_pd();
    __m256d g_lo = _mm256_setzero_pd(), g_hi = _mm256_setzero_pd();
    for (std::int64_t kk = 0; kk < k4; kk += 4) {
      __m256d lo[4], hi[4];
      load_cols4d(p + kk, ld, lo);
      load_cols4d(p + 4 * ld + kk, ld, hi);
      for (int u = 0; u < 4; ++u) {
        const __m256d yv = _mm256_set1_pd(y[kk + u]);
        const __m256d av = _mm256_set1_pd(yabs[kk + u]);
        s_lo = _mm256_add_pd(s_lo, _mm256_mul_pd(lo[u], yv));
        s_hi = _mm256_add_pd(s_hi, _mm256_mul_pd(hi[u], yv));
        g_lo = _mm256_add_pd(
            g_lo, _mm256_mul_pd(_mm256_and_pd(lo[u], abs_mask), av));
        g_hi = _mm256_add_pd(
            g_hi, _mm256_mul_pd(_mm256_and_pd(hi[u], abs_mask), av));
      }
    }
    _mm256_storeu_pd(out + o, s_lo);
    _mm256_storeu_pd(out + o + 4, s_hi);
    _mm256_storeu_pd(mag + o, g_lo);
    _mm256_storeu_pd(mag + o + 4, g_hi);
    for (int t = 0; t < 8; ++t) {
      for (std::int64_t kk = k4; kk < k; ++kk) {
        const double x = p[t * ld + kk];
        out[o + t] += x * y[kk];
        mag[o + t] += std::fabs(x) * yabs[kk];
      }
    }
  }
  scalar_backend().checksum_dot_rows(rows + o * ld, ld, count - o, k, y, yabs,
                                     out + o, mag + o);
}

// ----- tanh ----------------------------------------------------------------

inline __m256i splat(std::uint32_t v) {
  return _mm256_set1_epi32(static_cast<std::int32_t>(v));
}
inline __m256 splat_f(std::uint32_t bits) {
  return _mm256_castsi256_ps(splat(bits));
}
// Per-lane (mask ? b : a), mask lanes all-ones or all-zeros.
inline __m256 pick(__m256 a, __m256 b, __m256i mask) {
  return _mm256_blendv_ps(a, b, _mm256_castsi256_ps(mask));
}
// Signed compare of lane values both in [0, 2^31): a > b.
inline __m256i gt(__m256i a, std::uint32_t b) {
  return _mm256_cmpgt_epi32(a, splat(b));
}
// y * 2^k per lane, by adding k to the exponent field (tanh_f32's
// add_exponent).
inline __m256 add_exponent(__m256 y, __m256i k) {
  return _mm256_castsi256_ps(
      _mm256_add_epi32(_mm256_castps_si256(y), _mm256_slli_epi32(k, 23)));
}

// tanh_f32's expm1_f32 over the arguments tanh hands it, a = +-2|x| with
// 2^-55 <= |x| < 22 (so 2^-54 <= |a| < 44: the huge-argument filter never
// fires). Every branch is computed in all lanes and the lane's own branch
// is selected, each with expm1_f32's operations in its order.
inline __m256 expm1_tanh_arg(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256i ux = _mm256_castps_si256(x);
  const __m256i hx = _mm256_and_si256(ux, splat(0x7fffffffu));
  const __m256i negative = _mm256_srai_epi32(ux, 31);

  // Argument reduction. k = +-1 in (0.5 ln2, 1.5 ln2), rounded k beyond.
  const __m256i reduce = gt(hx, 0x3eb17218u);
  const __m256i k_one = _mm256_andnot_si256(gt(hx, 0x3f851591u), reduce);
  const __m256 shalf = _mm256_or_ps(
      half, _mm256_and_ps(_mm256_castsi256_ps(negative), splat_f(0x80000000u)));
  const __m256i k_round = _mm256_cvttps_epi32(
      _mm256_add_ps(_mm256_mul_ps(splat_f(0x3fb8aa3bu), x), shalf));
  const __m256i k_unit = _mm256_or_si256(negative, _mm256_set1_epi32(1));
  __m256i k = _mm256_blendv_epi8(k_round, k_unit, k_one);
  k = _mm256_and_si256(k, reduce);  // k = 0 for |x| <= 0.5 ln2
  const __m256 tk = _mm256_cvtepi32_ps(k);
  const __m256 ln2_hi = splat_f(0x3f317180u);
  const __m256 ln2_lo = splat_f(0x3717f7d1u);
  // hi = x - t ln2_hi, lo = t ln2_lo; at k = +-1 (and t = +-1) these are
  // expm1_f32's x -+ ln2_hi and +-ln2_lo exactly.
  const __m256 hi = _mm256_sub_ps(x, _mm256_mul_ps(tk, ln2_hi));
  const __m256 lo = _mm256_mul_ps(tk, ln2_lo);
  const __m256 xr_red = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr_red), lo);
  const __m256 xr = pick(x, xr_red, reduce);

  // The primary-range rational approximation.
  const __m256 hfx = _mm256_mul_ps(half, xr);
  const __m256 hxs = _mm256_mul_ps(xr, hfx);
  __m256 p = _mm256_mul_ps(hxs, splat_f(0xb457edbbu));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat_f(0x36867e54u), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat_f(0xb8a670cdu), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat_f(0x3ad00d01u), p));
  p = _mm256_mul_ps(hxs, _mm256_add_ps(splat_f(0xbd088889u), p));
  const __m256 r1 = _mm256_add_ps(one, p);
  const __m256 t =
      _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t),
                         _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                       _mm256_mul_ps(xr, t))));

  // k == 0.
  const __m256 r_k0 =
      _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
  // k != 0.
  const __m256 ek = _mm256_sub_ps(
      _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c), hxs);
  const __m256 r_km1 =
      _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(xr, ek)), half);
  const __m256 r_kp1_lo = _mm256_mul_ps(
      _mm256_set1_ps(-2.0f), _mm256_sub_ps(ek, _mm256_add_ps(xr, half)));
  const __m256 r_kp1_hi = _mm256_add_ps(
      one, _mm256_mul_ps(_mm256_set1_ps(2.0f), _mm256_sub_ps(xr, ek)));
  const __m256 r_kp1 =
      _mm256_blendv_ps(r_kp1_hi, r_kp1_lo,
                       _mm256_cmp_ps(xr, _mm256_set1_ps(-0.25f), _CMP_LT_OQ));
  const __m256 xme = _mm256_sub_ps(ek, xr);
  // k <= -2 or k > 56.
  const __m256 r_far =
      _mm256_sub_ps(add_exponent(_mm256_sub_ps(one, xme), k), one);
  // 2 <= k < 23: t = 1 - 2^-k.
  const __m256 t_mid = _mm256_castsi256_ps(_mm256_sub_epi32(
      splat(0x3f800000u), _mm256_srlv_epi32(splat(0x1000000u), k)));
  const __m256 r_mid = add_exponent(_mm256_sub_ps(t_mid, xme), k);
  // 23 <= k <= 56: t = 2^-k.
  const __m256 t_top = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(_mm256_set1_epi32(0x7f), k), 23));
  const __m256 r_top = add_exponent(
      _mm256_add_ps(_mm256_sub_ps(xr, _mm256_add_ps(ek, t_top)), one), k);

  const __m256i is_k0 = _mm256_cmpeq_epi32(k, _mm256_setzero_si256());
  const __m256i is_km1 = _mm256_cmpeq_epi32(k, _mm256_set1_epi32(-1));
  const __m256i is_kp1 = _mm256_cmpeq_epi32(k, _mm256_set1_epi32(1));
  const __m256i is_far =
      _mm256_or_si256(_mm256_cmpgt_epi32(_mm256_set1_epi32(-1), k),
                      _mm256_cmpgt_epi32(k, _mm256_set1_epi32(56)));
  const __m256i is_mid = _mm256_cmpgt_epi32(_mm256_set1_epi32(23), k);
  __m256 r = pick(r_top, r_mid, is_mid);  // k >= 2 from here on
  r = pick(r, r_far, is_far);
  r = pick(r, r_kp1, is_kp1);
  r = pick(r, r_km1, is_km1);
  r = pick(r, r_k0, is_k0);
  // |x| < 2^-25: x itself.
  return pick(r, x, _mm256_cmpgt_epi32(splat(0x33000000u), hx));
}

// tanh_f32 in 8 lanes: the |x| >= 1 form 1 - 2/(t + 2) and the |x| < 1
// form -t/(t + 2) share one divide, then the sign and the edges — +-0 and
// |x| < 2^-55 (x(1 + x)), |x| >= 22 and +-inf (+-1), NaN (x + x) — are
// blended in.
inline __m256 tanh8(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256i ux = _mm256_castps_si256(x);
  const __m256i ix = _mm256_and_si256(ux, splat(0x7fffffffu));
  const __m256 sign =
      _mm256_castsi256_ps(_mm256_andnot_si256(splat(0x7fffffffu), ux));
  const __m256 ax = _mm256_castsi256_ps(ix);
  const __m256i big = gt(ix, 0x3f7fffffu);  // |x| >= 1
  const __m256 two_ax = _mm256_mul_ps(two, ax);
  const __m256 t =
      expm1_tanh_arg(pick(_mm256_xor_ps(two_ax, splat_f(0x80000000u)),
                          two_ax, big));
  const __m256 num = pick(_mm256_xor_ps(t, splat_f(0x80000000u)), two, big);
  const __m256 q = _mm256_div_ps(num, _mm256_add_ps(t, two));
  __m256 z = pick(q, _mm256_sub_ps(one, q), big);
  z = pick(z, _mm256_sub_ps(one, _mm256_set1_ps(1.0e-30f)),
           gt(ix, 0x41afffffu));  // |x| >= 22, +-inf
  z = _mm256_xor_ps(z, sign);
  z = pick(z, _mm256_mul_ps(x, _mm256_add_ps(one, x)),
           _mm256_cmpgt_epi32(splat(0x24000000u), ix));  // |x| < 2^-55
  return pick(z, _mm256_add_ps(x, x), gt(ix, 0x7f800000u));  // NaN
}

// Two vectors per iteration: tanh8 is one long dependent chain with two
// divides, so a second independent chain fills the pipeline. The n % 8
// tail runs through a zero-padded block.
void avx2_tanh_map(const float* x, float* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 a = tanh8(_mm256_loadu_ps(x + i));
    const __m256 b = tanh8(_mm256_loadu_ps(x + i + 8));
    _mm256_storeu_ps(y + i, a);
    _mm256_storeu_ps(y + i + 8, b);
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, tanh8(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    alignas(32) float buf[8] = {};
    const auto rest = static_cast<std::size_t>(n - i) * sizeof(float);
    std::memcpy(buf, x + i, rest);
    _mm256_store_ps(buf, tanh8(_mm256_load_ps(buf)));
    std::memcpy(y + i, buf, rest);
  }
}

// ----- encode --------------------------------------------------------------

// Eight codes, one per int32 lane and each below 2^16, stored as uint16.
inline void store_codes8(std::uint16_t* codes, __m256i c) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(codes),
                   _mm_packus_epi32(_mm256_castsi256_si128(c),
                                    _mm256_extracti128_si256(c, 1)));
}

// float_encode_bits in 8 lanes: the field formula on every lane, then the
// below-value_min, saturation, zero and NaN lanes blended in. A value is
// its magnitude's fields plus base, shifted into place (float_value_of).
void encode_float8(const EncodeView& f, const float* x, std::uint16_t* codes,
                   float* values, std::int64_t n) {
  const int shift = 23 - f.mant_bits;
  const __m128i vshift = _mm_cvtsi32_si128(shift);
  const __m128i vsign_shift = _mm_cvtsi32_si128(31 - (f.bits - 1));
  const __m256i abs_mask = splat(0x7fffffffu);
  const __m256i round = splat((1u << (shift - 1)) - 1u);
  // lsb = ((a >> shift) & lsb_and) | lsb_or: the kept last bit, or 1 at
  // m = 0.
  const __m256i lsb_and = splat(f.mant_bits == 0 ? 0u : 1u);
  const __m256i lsb_or = splat(f.mant_bits == 0 ? 1u : 0u);
  const __m256i base = splat(f.base);
  const __m256i max_mag = splat((1u << (f.bits - 1)) - 1u);
  const __m256i vmin = splat(f.vmin);
  const __m256i half_vmin = splat(f.half_vmin);
  const __m256i min_mag = splat(f.min_mag);
  const __m256i sign_bit = splat(0x80000000u);
  const std::uint32_t inf_field = 255u << f.mant_bits;
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i u = _mm256_castps_si256(_mm256_loadu_ps(x + i));
    const __m256i a = _mm256_and_si256(u, abs_mask);
    const __m256i lsb = _mm256_or_si256(
        _mm256_and_si256(_mm256_srl_epi32(a, vshift), lsb_and), lsb_or);
    const __m256i r =
        _mm256_add_epi32(_mm256_add_epi32(a, round), lsb);
    __m256i mag = _mm256_min_epi32(
        _mm256_sub_epi32(_mm256_srl_epi32(r, vshift), base), max_mag);
    mag = _mm256_blendv_epi8(mag, min_mag, _mm256_cmpgt_epi32(vmin, a));
    mag = _mm256_blendv_epi8(mag, max_mag, gt(a, f.vmax - 1u));
    const __m256i zero = _mm256_or_si256(
        _mm256_cmpgt_epi32(half_vmin, a), gt(a, 0x7f800000u));
    const __m256i sign = _mm256_and_si256(u, sign_bit);
    if (codes != nullptr) {
      const __m256i code =
          _mm256_or_si256(mag, _mm256_srl_epi32(sign, vsign_shift));
      store_codes8(codes + i, _mm256_andnot_si256(zero, code));
    }
    if (values != nullptr) {
      const __m256i field = _mm256_add_epi32(mag, base);
      const __m256i v = _mm256_blendv_epi8(_mm256_sll_epi32(field, vshift),
                                           splat(0x7f800000u),
                                           gt(field, inf_field - 1u));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(values + i),
          _mm256_andnot_si256(zero, _mm256_or_si256(v, sign)));
    }
  }
  encode_range(f, x, codes, values, i, n);
}

// level_encode_bits in 8 lanes: nearbyint's operations in double (widen,
// divide, round to nearest even), the clamp, then the code; NaN lanes give
// 0 (max_pd returns its second operand, the bound, for a NaN quotient). A
// value is the level times the step, -0.0f at level 0 for x < 0.
void encode_level8(const EncodeView& f, const float* x, std::uint16_t* codes,
                   float* values, std::int64_t n) {
  std::int64_t i = 0;
  if (f.step != 0.0f) {
    const __m256d step = _mm256_set1_pd(f.step);
    const double level_max = (1 << (f.bits - 1)) - 1;
    const __m256d hi = _mm256_set1_pd(level_max);
    const __m256d lo = _mm256_set1_pd(-level_max);
    const __m256i mask = splat((1u << f.bits) - 1u);
    const auto level4 = [&](__m128 x4) {
      const __m256d q = _mm256_round_pd(
          _mm256_div_pd(_mm256_cvtps_pd(x4), step),
          _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
      return _mm256_cvtpd_epi32(_mm256_min_pd(_mm256_max_pd(q, lo), hi));
    };
    for (; i + 8 <= n; i += 8) {
      const __m256 xv = _mm256_loadu_ps(x + i);
      const __m256i nan =
          _mm256_castps_si256(_mm256_cmp_ps(xv, xv, _CMP_UNORD_Q));
      const __m256i q = _mm256_andnot_si256(
          nan, _mm256_set_m128i(level4(_mm256_extractf128_ps(xv, 1)),
                                level4(_mm256_castps256_ps128(xv))));
      if (codes != nullptr) {
        store_codes8(codes + i, _mm256_and_si256(q, mask));
      }
      if (values != nullptr) {
        const __m256 neg_zero = _mm256_and_ps(
            _mm256_castsi256_ps(
                _mm256_cmpeq_epi32(q, _mm256_setzero_si256())),
            _mm256_cmp_ps(xv, _mm256_setzero_ps(), _CMP_LT_OQ));
        const __m256 v =
            _mm256_mul_ps(_mm256_cvtepi32_ps(q), _mm256_set1_ps(f.step));
        _mm256_storeu_ps(values + i,
                         _mm256_or_ps(v, _mm256_and_ps(neg_zero,
                                                       _mm256_set1_ps(-0.0f))));
      }
    }
  }
  encode_range(f, x, codes, values, i, n);
}

// posit_encode_bits in 8 lanes, without the value table. |x| is clamped
// into [lo, hi) first, lo and hi the first and last values: at lo the
// truncated code is 1 and it is taken (distance 0); just below hi the next
// code up is the first of hi's codes and it is taken, so the two
// saturation cases need no blend. b = the clamped pattern plus one in the
// exponent field holds scale + 128, and since 128 is a multiple of 2^es
// its low 23 + es bits are the posit exponent bits and the fraction.
//  * The truncated code is a hardware posit encoder's: "10" or "01" over
//    those bits, shifted right by s = k or -k - 1 (arithmetic for k >= 0,
//    which grows the run of ones; logical below, which grows the zeros),
//    then its top bits - 1 bits.
//  * Its value is b with the d = s + 26 + es - bits dropped bits cleared
//    (less the exponent one), and the next code's value is that plus 2^d —
//    a carry out of the kept bits moves the regime up, as incrementing the
//    code does. Both are exact FP32 posit values while |x| >= 2^(2^es -
//    126): the value below is then at least 2^-126 (a neighbour is at most
//    useed = 2^(2^es) away), and the one above saturates at FLT_MAX as the
//    table does. Where lo lies below that bound, a block holding a smaller
//    nonzero |x| runs the scalar form.
//  * The distances are non-negative floats, which order as their bit
//    patterns, so "nearer, or a tie and c even" is one integer compare.
void encode_posit8(const EncodeView& f, const float* x, std::uint16_t* codes,
                   float* values, std::int64_t n) {
  const std::uint32_t top = (1u << (f.bits - 1)) - 1u;
  const std::uint32_t lo = float_bits(f.values[1]);
  const std::uint32_t hi = float_bits(f.values[top]);
  const std::uint32_t tiny = (1u + (1u << f.es)) << 23;
  const bool check_tiny = lo < tiny;
  const __m256i abs_mask = splat(0x7fffffffu);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i exp_one = splat(0x00800000u);
  const __m128i scale_shift = _mm_cvtsi32_si128(23 + f.es);
  const __m128i align_shift = _mm_cvtsi32_si128(7 - f.es);
  const __m128i code_shift = _mm_cvtsi32_si128(33 - f.bits);
  const __m256i k_bias = _mm256_set1_epi32(128 >> f.es);
  const __m256i d_bias = _mm256_set1_epi32(26 + f.es - f.bits);
  const __m256i mask = splat((1u << f.bits) - 1u);
  std::int64_t i = 0;
  for (; top > 1 && i + 8 <= n; i += 8) {
    const __m256i u = _mm256_castps_si256(_mm256_loadu_ps(x + i));
    const __m256i a = _mm256_and_si256(u, abs_mask);
    if (check_tiny) {
      const __m256i small = _mm256_andnot_si256(
          _mm256_cmpeq_epi32(a, _mm256_setzero_si256()),
          _mm256_cmpgt_epi32(splat(tiny), a));
      if (!_mm256_testz_si256(small, small)) {
        encode_range(f, x, codes, values, i, i + 8);
        continue;
      }
    }
    const __m256i ac =
        _mm256_min_epi32(_mm256_max_epi32(a, splat(lo)), splat(hi - 1u));
    const __m256i b = _mm256_add_epi32(ac, exp_one);
    const __m256i k =
        _mm256_sub_epi32(_mm256_srl_epi32(b, scale_shift), k_bias);
    const __m256i s = _mm256_xor_si256(k, _mm256_srai_epi32(k, 31));
    const __m256i bits = _mm256_and_si256(_mm256_sll_epi32(b, align_shift),
                                          splat(0x3fffffffu));
    const __m256i run_ones =
        _mm256_srav_epi32(_mm256_or_si256(bits, splat(0x80000000u)), s);
    const __m256i run_zeros =
        _mm256_srlv_epi32(_mm256_or_si256(bits, splat(0x40000000u)), s);
    const __m256i c = _mm256_srl_epi32(
        _mm256_castps_si256(_mm256_blendv_ps(_mm256_castsi256_ps(run_ones),
                                             _mm256_castsi256_ps(run_zeros),
                                             _mm256_castsi256_ps(k))),
        code_shift);
    const __m256i d = _mm256_add_epi32(s, d_bias);
    const __m256i vl = _mm256_sub_epi32(
        _mm256_sllv_epi32(_mm256_srlv_epi32(b, d), d), exp_one);
    const __m256i vh =
        _mm256_min_epu32(_mm256_add_epi32(vl, _mm256_sllv_epi32(one, d)),
                         splat(0x7f7fffffu));
    const __m256 acf = _mm256_castsi256_ps(ac);
    const __m256i dl =
        _mm256_castps_si256(_mm256_sub_ps(acf, _mm256_castsi256_ps(vl)));
    const __m256i dh =
        _mm256_castps_si256(_mm256_sub_ps(_mm256_castsi256_ps(vh), acf));
    const __m256i take_lo = _mm256_cmpgt_epi32(
        _mm256_add_epi32(dh, _mm256_andnot_si256(c, one)), dl);
    const __m256i dead = _mm256_or_si256(
        _mm256_cmpeq_epi32(a, _mm256_setzero_si256()), gt(a, 0x7f800000u));
    if (codes != nullptr) {
      __m256i mag = _mm256_blendv_epi8(_mm256_add_epi32(c, one), c, take_lo);
      const __m256i neg = _mm256_srai_epi32(u, 31);  // -mag where x < 0
      mag = _mm256_sub_epi32(_mm256_xor_si256(mag, neg), neg);
      store_codes8(codes + i,
                   _mm256_andnot_si256(dead, _mm256_and_si256(mag, mask)));
    }
    if (values != nullptr) {
      const __m256i v = _mm256_or_si256(
          _mm256_blendv_epi8(vh, vl, take_lo),
          _mm256_and_si256(u, splat(0x80000000u)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(values + i),
                          _mm256_andnot_si256(dead, v));
    }
  }
  encode_range(f, x, codes, values, i, n);
}

void avx2_encode(const EncodeView& f, const float* x, std::uint16_t* codes,
                 float* values, std::int64_t n) {
  switch (f.kind) {
    case EncodeKind::kFloat: return encode_float8(f, x, codes, values, n);
    case EncodeKind::kLevel: return encode_level8(f, x, codes, values, n);
    case EncodeKind::kPosit: return encode_posit8(f, x, codes, values, n);
  }
}

const KernelBackend kAvx2Backend = {
    "avx2",
    BackendKind::kAvx2,
    &avx2_gemm_panel_accumulate,
    &avx2_gemm_dot_rows,
    &avx2_unpack_decode,
    &avx2_decode_tile,
    &avx2_attend_row,
    &avx2_checksum_dot_rows,
    &avx2_tanh_map,
    &avx2_encode,
};

}  // namespace

namespace detail {
const KernelBackend& avx2_backend_impl() { return kAvx2Backend; }
}  // namespace detail

}  // namespace af
