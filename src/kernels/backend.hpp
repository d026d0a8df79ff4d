// Runtime-dispatched SIMD kernel backends.
//
// The GEMM microkernels, the LUT-fused decode kernels and the per-format
// encode are pure inner loops over flat arrays — exactly the shape SIMD
// wants. This module is the seam between "which loop body runs" and "what
// the loop computes": a KernelBackend is a table of function pointers for
// the hot primitives, selected once at startup (cpuid + the AF_BACKEND env
// override) and threaded through ExecutionContext so a session can pin a
// backend explicitly.
//
// Determinism contract (see DESIGN.md §12):
//  * Within a backend, every primitive has one fixed accumulation /
//    traversal order — results are bit-identical across AF_THREADS values
//    and across runs on the same machine.
//  * The scalar backend is the reference: byte-identical to the pre-backend
//    code paths (CI pins its digests against the recorded goldens).
//  * Decode (`unpack_decode`, the GEMM tile fill `decode_tile`) is a pure
//    table map, so it is bit-identical across *all* backends.
//  * The x*W^T dot chain (`gemm_dot_rows`) runs the scalar chain — one
//    rounded multiply, then one rounded add, per k — in every lane, so it
//    too is bit-identical across all backends.
//  * The attention core (`attend_row`) keeps the scalar entry's order —
//    each key's double dot ascending in d, the shared softmax, each
//    output's float mix ascending in keys — so it is bit-identical across
//    backends too; decoding packed K/V codes is an exact table lookup.
//  * The ABFT checksum chains (`checksum_dot_rows`) run the scalar double
//    chain — one rounded multiply, then one rounded add, per k ascending —
//    in every lane, so they are bit-identical across backends as well.
//  * The elementwise maps are too: `tanh_map` runs tanh_f32's operations
//    in every lane, and `encode` runs each format's closed-form encoder
//    (src/kernels/encode.hpp).
//  * The AVX2 panel GEMM accumulates with FMA (one rounding per
//    multiply-add instead of two), so cross-backend bit-equality is NOT
//    promised there — divergence is bounded by kGemmBackendUlpTol and
//    asserted in tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/kernels/encode.hpp"

namespace af {

enum class BackendKind { kScalar = 0, kAvx2 = 1 };

/// One lane's cached K or V history as the attend entry reads it: `bits`-wide
/// codes packed LSB-first (the KV-cache lane-region layout packed_code_at
/// reads), row j's head slice being codes [j*row_codes + col, ... + d_head).
/// At 32 bits the codes are the fp32 values themselves (4-byte aligned) and
/// `table` is unused; narrower codes decode through `table`, 2^bits entries.
/// The AVX2 decode_tile reads a packed weight through the same view: one
/// weight row per cached row, row_codes = codes per weight row, col = 0.
struct AttendOperand {
  const std::uint8_t* bytes;  ///< lane region base
  std::size_t nbytes;         ///< region bytes; no read passes them
  int bits;                   ///< code width, 1..16 or 32
  const float* table;         ///< code -> FP32 decode table (bits < 32)
  std::int64_t row_codes;     ///< codes per cached row
  std::int64_t col;           ///< the head's first code in each row
};

/// The score a key the query may not see gets: exp(kAttendMaskValue - max)
/// underflows to an exact 0.0f, so a masked key adds nothing to the
/// softmax denominator and is skipped by the V mix.
constexpr float kAttendMaskValue = -1e30f;

/// In-place numerically-stabilized softmax of one row of n floats: row max,
/// exp(x - max) with a double-precision denominator ascending in j, one
/// 1/denom multiply. softmax_rows and every backend's attend_row call this
/// one scalar function, so std::exp's bits are the same everywhere
/// (DESIGN.md §15).
void softmax_row_inplace(float* row, std::int64_t n);

/// The single-precision tanh every float tanh in the library runs: an
/// operation-for-operation replica of fdlibm's tanhf over expm1f (the
/// algorithm glibc 2.36 ships), built without FMA contraction, so its bits
/// do not depend on the host libm (DESIGN.md §12.6). NaN returns x + x.
float tanh_f32(float x);

/// One kernel implementation set. Plain function pointers (no virtuals):
/// the table is selected once, the members are hot-loop entry points.
struct KernelBackend {
  const char* name;  ///< "scalar" / "avx2" — stable CI identifier
  BackendKind kind;

  /// C[i0:i1, 0:n] += A[i0:i1, k0:k1] * Bt over one k-window, A row-major
  /// with row stride `lda`; same contract as detail::gemm_panel_accumulate
  /// (src/tensor/gemm_kernel.hpp) with trans_a = false, including the
  /// exact-zero-A skip. k advances in ascending order within the window, so
  /// the per-element accumulation chain is fixed per backend.
  void (*gemm_panel_accumulate)(float* c, std::int64_t ldc, const float* a,
                                std::int64_t lda, const float* bt,
                                std::int64_t ldbt, std::int64_t n,
                                std::int64_t i0, std::int64_t i1,
                                std::int64_t k0, std::int64_t k1);

  /// C[m, n] += A[m, k] * B[n, k]^T over contiguous row-major operands,
  /// any m; same contract as detail::gemm_dot_rows
  /// (src/tensor/gemm_kernel.hpp). Every backend runs
  /// that exact chain per output — start from C, k ascending over the whole
  /// range, exact-zero A skipped, one rounded multiply then one rounded
  /// add — so the result is bit-identical across backends.
  void (*gemm_dot_rows)(float* c, const float* a, const float* b,
                        std::int64_t m, std::int64_t n, std::int64_t k);

  /// Fused unpack+decode of `count` consecutive codes starting at element
  /// `first` of an LSB-first packed stream, through the 2^bits-entry FP32
  /// table. Bit-identical across backends (pure table map).
  void (*unpack_decode)(const std::uint8_t* bytes, std::size_t nbytes,
                        int bits, std::int64_t first, std::int64_t count,
                        const float* table, float* out);

  /// GEMM tile fill: decodes W[j0:j1, k0:k1) of a row-major packed weight
  /// with `ld` codes per row (row j's codes start at element j*ld) into the
  /// k-major tile tile[(kk - k0) * (j1 - j0) + (j - j0)]. Same values as
  /// unpack_decode element by element (pure table map), so bit-identical
  /// across backends; no read passes `nbytes`.
  void (*decode_tile)(const std::uint8_t* bytes, std::size_t nbytes, int bits,
                      std::int64_t ld, std::int64_t j0, std::int64_t j1,
                      std::int64_t k0, std::int64_t k1, const float* table,
                      float* tile);

  /// The attention core for one query head (DESIGN.md §12.4). Scores `q`
  /// (d_head floats) against the first `visible` of `len` cached keys —
  /// srow[j] = float(dot) * inv_sqrt_dh, dot a double chain ascending in d
  /// — gives keys j >= visible kAttendMaskValue, softmaxes srow in place
  /// (left holding the weights), then adds weight * V row into `crow`
  /// (d_head floats) key by key, ascending, with one rounded multiply then
  /// one rounded add per element and exact-zero weights skipped.
  /// Bit-identical across backends.
  void (*attend_row)(const float* q, const AttendOperand& k,
                     const AttendOperand& v, std::int64_t len,
                     std::int64_t visible, std::int64_t d_head,
                     float inv_sqrt_dh, float* srow, float* crow);

  /// The ABFT checksum chains (DESIGN.md §8.1): for each of `count` fp32
  /// rows, row o at rows + o * ld, out[o] = sum_kk x * y[kk] and mag[o] =
  /// sum_kk |x| * yabs[kk] with x = double(row o[kk]), each one chain from
  /// 0.0 ascending over kk < k with a rounded multiply then a rounded add.
  /// Bit-identical across backends.
  void (*checksum_dot_rows)(const float* rows, std::int64_t ld,
                            std::int64_t count, std::int64_t k,
                            const double* y, const double* yabs, double* out,
                            double* mag);

  /// y[i] = tanh_f32(x[i]) for i < n; y may equal x (in place).
  /// Bit-identical across backends.
  void (*tanh_map)(const float* x, float* y, std::int64_t n);

  /// codes[i] = the code of x[i] under f, by f.kind's scalar encode
  /// (encode.hpp's *_encode_bits), chosen once per call; and values[i] =
  /// the format's quantize_value(x[i]) (*_value_of). Either output may be
  /// null. Bit-identical across backends.
  void (*encode)(const EncodeView& f, const float* x, std::uint16_t* codes,
                 float* values, std::int64_t n);
};

/// codes[i] = fmt.encode(x[i]) for i < n: through be.encode when the format
/// has an encode view, element by element otherwise (an AdaptivFloat
/// calibration outside the kFloat formula). Every backend emits the same
/// codes.
template <typename Format>
void encode_span(const Format& fmt, const float* x, std::uint16_t* codes,
                 std::int64_t n, const KernelBackend& be) {
  if (const EncodeView* view = fmt.encode_view()) {
    be.encode(*view, x, codes, nullptr, n);
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) codes[i] = fmt.encode(x[i]);
}

/// Documented cross-backend tolerance for the FMA panel GEMM, in ULPs *at the
/// scale of the dot product*: for every output element,
///
///   |avx2 - scalar|  <=  kGemmBackendUlpTol * 2^-24 * sum_k |A_ik * B_jk|
///
/// (2^-24 * norm is one half-ULP at the product-norm scale). The norm is
/// the natural backward-error unit — both chains round once or twice per
/// step against partial sums bounded by it, so their difference is a
/// random walk of a few norm-scaled ULPs, while raw element-relative ULP
/// distance explodes wherever cancellation leaves |y| << norm and says
/// nothing about kernel correctness. For the k <= 512 panels benched here
/// the measured divergence is < 32 scaled ULPs; 256 leaves headroom
/// without masking real bugs (a mis-accumulated element is off by O(norm),
/// i.e. ~2^24 scaled ULPs).
constexpr std::uint32_t kGemmBackendUlpTol = 256;

/// True when this CPU executes AVX2 + FMA (runtime cpuid probe; false on
/// non-x86 builds).
bool cpu_supports_avx2();

/// The reference backend. Always available.
const KernelBackend& scalar_backend();

/// The AVX2 backend, or nullptr when the binary was built without AVX2
/// support or this CPU lacks AVX2/FMA.
const KernelBackend* avx2_backend();

/// Resolves an AF_BACKEND-style spec ("scalar" | "avx2" | "auto").
/// Unknown specs and an explicit "avx2" on a machine without AVX2 fail
/// closed with a typed FaultError (kMalformedInput); "auto" silently falls
/// back to scalar when AVX2 is unavailable.
const KernelBackend& resolve_backend(const std::string& spec);

/// Test seam: same resolution logic with the AVX2-availability probe
/// replaced by `allow_avx2` — lets a test exercise the no-AVX2 fallback
/// and the fail-closed path on any machine.
const KernelBackend& resolve_backend(const std::string& spec, bool allow_avx2);

/// The process-wide active backend: resolved from AF_BACKEND (default
/// "auto") on first use, then cached. Every dispatch site that is not
/// handed an explicit backend (plain forward(), bulk unpack, quantize)
/// routes through this.
const KernelBackend& active_backend();

/// Overrides the active backend (nullptr re-resolves AF_BACKEND on the
/// next active_backend() call). Test seam; not thread-safe against
/// concurrent kernel launches.
void set_active_backend(const KernelBackend* backend);

/// RAII pin for tests: installs `be` as the active backend, restores the
/// previous selection on destruction.
class ScopedKernelBackend {
 public:
  explicit ScopedKernelBackend(const KernelBackend& be);
  ~ScopedKernelBackend();
  ScopedKernelBackend(const ScopedKernelBackend&) = delete;
  ScopedKernelBackend& operator=(const ScopedKernelBackend&) = delete;

 private:
  const KernelBackend* prev_;
};

/// Dispatch-count seam: how many kernel launches (GEMMs, bulk unpacks,
/// batched quantize/encode passes) each backend has served since process
/// start. Tests assert that an override actually routes — e.g. that
/// AF_BACKEND=scalar on an AVX2 machine leaves the AVX2 counter flat.
std::uint64_t backend_dispatch_count(BackendKind kind);

/// Records one dispatch against `be` (called by the kernel entry points).
void count_backend_dispatch(const KernelBackend& be);

}  // namespace af
