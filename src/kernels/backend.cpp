#include "src/kernels/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "src/kernels/decode_lut.hpp"
#include "src/tensor/gemm_kernel.hpp"
#include "src/util/fault.hpp"

namespace af {
namespace {

// ----- scalar primitives ---------------------------------------------------
// Thin wrappers over the pre-backend inline kernels, so "scalar backend" is
// byte-identical to the code every digest was pinned against.

void scalar_gemm_panel_accumulate(float* c, std::int64_t ldc, const float* a,
                                  std::int64_t lda, bool trans_a,
                                  const float* bt, std::int64_t ldbt,
                                  std::int64_t n, std::int64_t i0,
                                  std::int64_t i1, std::int64_t k0,
                                  std::int64_t k1) {
  detail::gemm_panel_accumulate(c, ldc, a, lda, trans_a, bt, ldbt, n, i0, i1,
                                k0, k1);
}

void scalar_gemm_dot_rows(float* c, const float* a, const float* b,
                          std::int64_t m, std::int64_t n, std::int64_t k) {
  detail::gemm_dot_rows(c, a, b, m, n, k);
}

void scalar_nearest_indices(const NearestLutView& lut, const float* x,
                            std::uint32_t* idx, std::int64_t count) {
  // Exactly NearestLut::index_of, per element.
  for (std::int64_t i = 0; i < count; ++i) {
    std::uint32_t u = 0;
    std::memcpy(&u, &x[i], sizeof(u));
    if ((u & 0x7fffffffu) > 0x7f800000u) {  // NaN
      idx[i] = lut.nan_index;
      continue;
    }
    const std::uint32_t key = (u & 0x80000000u) ? ~u : (u | 0x80000000u);
    std::size_t j = lut.bucket_lo[key >> 16];
    while (j + 1 < lut.v && lut.edge_keys[j + 1] <= key) ++j;
    idx[i] = static_cast<std::uint32_t>(j);
  }
}

const KernelBackend kScalarBackend = {
    "scalar",
    BackendKind::kScalar,
    &scalar_gemm_panel_accumulate,
    &scalar_gemm_dot_rows,
    &unpack_decode_scalar,
    &unpack_decode_strided_scalar,
    &scalar_nearest_indices,
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
