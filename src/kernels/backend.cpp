#include "src/kernels/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

#include "src/kernels/decode_lut.hpp"
#include "src/tensor/gemm_kernel.hpp"
#include "src/util/fault.hpp"

namespace af {
namespace {

// ----- scalar primitives ---------------------------------------------------
// Thin wrappers over the pre-backend inline kernels, so "scalar backend" is
// byte-identical to the code every digest was pinned against.

void scalar_gemm_panel_accumulate(float* c, std::int64_t ldc, const float* a,
                                  std::int64_t lda, const float* bt,
                                  std::int64_t ldbt, std::int64_t n,
                                  std::int64_t i0, std::int64_t i1,
                                  std::int64_t k0, std::int64_t k1) {
  detail::gemm_panel_accumulate(c, ldc, a, lda, /*trans_a=*/false, bt, ldbt, n,
                                i0, i1, k0, k1);
}

void scalar_gemm_dot_rows(float* c, const float* a, const float* b,
                          std::int64_t m, std::int64_t n, std::int64_t k) {
  detail::gemm_dot_rows(c, a, b, m, n, k);
}

void scalar_decode_tile(const std::uint8_t* bytes, std::size_t nbytes,
                        int bits, std::int64_t ld, std::int64_t j0,
                        std::int64_t j1, std::int64_t k0, std::int64_t k1,
                        const float* table, float* tile) {
  decode_tile_scalar(bytes, nbytes, bits, ld, j0, j1, k0, k1, table, tile,
                     j1 - j0);
}

// Codes [first, first + n) of `o` as floats: the fp32 row itself at 32 bits,
// otherwise decoded through the table into `buf`.
const float* attend_slice(const AttendOperand& o, std::int64_t first,
                          std::int64_t n, float* buf) {
  if (o.bits == 32) return reinterpret_cast<const float*>(o.bytes) + first;
  unpack_decode_scalar(o.bytes, o.nbytes, o.bits, first, n, o.table, buf);
  return buf;
}

// The reference attend core: each key's head slice is decoded (in chunks
// of kSliceChunk codes, so any d_head fits the stack buffer) and consumed
// in the fixed order the other backends reproduce.
void scalar_attend_row(const float* q, const AttendOperand& k,
                       const AttendOperand& v, std::int64_t len,
                       std::int64_t visible, std::int64_t d_head,
                       float inv_sqrt_dh, float* srow, float* crow) {
  constexpr std::int64_t kSliceChunk = 64;
  float buf[kSliceChunk];
  for (std::int64_t j = 0; j < visible; ++j) {
    double dot = 0;
    for (std::int64_t d0 = 0; d0 < d_head; d0 += kSliceChunk) {
      const std::int64_t n = std::min(kSliceChunk, d_head - d0);
      const float* krow =
          attend_slice(k, j * k.row_codes + k.col + d0, n, buf);
      for (std::int64_t d = 0; d < n; ++d) dot += double(q[d0 + d]) * krow[d];
    }
    srow[j] = static_cast<float>(dot) * inv_sqrt_dh;
  }
  for (std::int64_t j = visible; j < len; ++j) srow[j] = kAttendMaskValue;
  softmax_row_inplace(srow, len);
  for (std::int64_t j = 0; j < len; ++j) {
    const float a = srow[j];
    if (a == 0.0f) continue;
    for (std::int64_t d0 = 0; d0 < d_head; d0 += kSliceChunk) {
      const std::int64_t n = std::min(kSliceChunk, d_head - d0);
      const float* vrow =
          attend_slice(v, j * v.row_codes + v.col + d0, n, buf);
      for (std::int64_t d = 0; d < n; ++d) crow[d0 + d] += a * vrow[d];
    }
  }
}

// The reference checksum chains: four rows advance together, sharing each
// y load, and every output keeps the bits of its own plain loop.
template <int W>
void checksum_chains(const float* rows, std::int64_t ld, std::int64_t k,
                     const double* y, const double* yabs, double* out,
                     double* mag) {
  double s[W] = {}, g[W] = {};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (int w = 0; w < W; ++w) {
      const double x = rows[w * ld + kk];
      s[w] += x * y[kk];
      g[w] += std::fabs(x) * yabs[kk];
    }
  }
  for (int w = 0; w < W; ++w) {
    out[w] = s[w];
    mag[w] = g[w];
  }
}

void scalar_checksum_dot_rows(const float* rows, std::int64_t ld,
                              std::int64_t count, std::int64_t k,
                              const double* y, const double* yabs, double* out,
                              double* mag) {
  std::int64_t o = 0;
  for (; o + 4 <= count; o += 4) {
    checksum_chains<4>(rows + o * ld, ld, k, y, yabs, out + o, mag + o);
  }
  for (; o < count; ++o) {
    checksum_chains<1>(rows + o * ld, ld, k, y, yabs, out + o, mag + o);
  }
}

void scalar_tanh_map(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = tanh_f32(x[i]);
}

void scalar_encode(const EncodeView& f, const float* x, std::uint16_t* codes,
                   float* values, std::int64_t n) {
  encode_range(f, x, codes, values, 0, n);
}

const KernelBackend kScalarBackend = {
    "scalar",
    BackendKind::kScalar,
    &scalar_gemm_panel_accumulate,
    &scalar_gemm_dot_rows,
    &unpack_decode_scalar,
    &scalar_decode_tile,
    &scalar_attend_row,
    &scalar_checksum_dot_rows,
    &scalar_tanh_map,
    &scalar_encode,
};

// ----- selection -----------------------------------------------------------

std::atomic<const KernelBackend*> g_active{nullptr};
std::atomic<std::uint64_t> g_dispatch_counts[2]{};

}  // namespace

#if defined(AF_HAVE_AVX2_BUILD)
// Defined in backend_avx2.cpp (compiled with -mavx2 -mfma); safe to *call*
// only after a runtime cpuid check.
namespace detail {
const KernelBackend& avx2_backend_impl();
}
#endif

void softmax_row_inplace(float* row, std::int64_t n) {
  float mx = row[0];
  for (std::int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
  double denom = 0.0;
  for (std::int64_t j = 0; j < n; ++j) {
    row[j] = std::exp(row[j] - mx);
    denom += row[j];
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (std::int64_t j = 0; j < n; ++j) row[j] *= inv;
}

bool cpu_supports_avx2() {
#if defined(AF_HAVE_AVX2_BUILD)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelBackend& scalar_backend() { return kScalarBackend; }

const KernelBackend* avx2_backend() {
#if defined(AF_HAVE_AVX2_BUILD)
  if (cpu_supports_avx2()) return &detail::avx2_backend_impl();
#endif
  return nullptr;
}

const KernelBackend& resolve_backend(const std::string& spec,
                                     bool allow_avx2) {
  const KernelBackend* avx2 = allow_avx2 ? avx2_backend() : nullptr;
  if (spec == "scalar") return kScalarBackend;
  if (spec == "avx2") {
    if (avx2 == nullptr) {
      throw FaultError("kernel-backend", FaultKind::kMalformedInput,
                       "AF_BACKEND=avx2 but this machine (or build) has no "
                       "AVX2+FMA support; use 'scalar' or 'auto'");
    }
    return *avx2;
  }
  if (spec == "auto" || spec.empty()) {
    return avx2 != nullptr ? *avx2 : kScalarBackend;
  }
  throw FaultError("kernel-backend", FaultKind::kMalformedInput,
                   "unknown AF_BACKEND value '" + spec +
                       "' (expected scalar | avx2 | auto)");
}

const KernelBackend& resolve_backend(const std::string& spec) {
  return resolve_backend(spec, /*allow_avx2=*/true);
}

const KernelBackend& active_backend() {
  const KernelBackend* be = g_active.load(std::memory_order_acquire);
  if (be != nullptr) return *be;
  const char* env = std::getenv("AF_BACKEND");
  const KernelBackend& resolved = resolve_backend(env != nullptr ? env : "auto");
  g_active.store(&resolved, std::memory_order_release);
  return resolved;
}

void set_active_backend(const KernelBackend* backend) {
  g_active.store(backend, std::memory_order_release);
}

ScopedKernelBackend::ScopedKernelBackend(const KernelBackend& be)
    : prev_(g_active.load(std::memory_order_acquire)) {
  g_active.store(&be, std::memory_order_release);
}

ScopedKernelBackend::~ScopedKernelBackend() {
  g_active.store(prev_, std::memory_order_release);
}

std::uint64_t backend_dispatch_count(BackendKind kind) {
  return g_dispatch_counts[static_cast<int>(kind)].load(
      std::memory_order_relaxed);
}

void count_backend_dispatch(const KernelBackend& be) {
  g_dispatch_counts[static_cast<int>(be.kind)].fetch_add(
      1, std::memory_order_relaxed);
}

}  // namespace af
