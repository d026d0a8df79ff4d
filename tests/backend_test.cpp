// Kernel-backend dispatch: AF_BACKEND resolution (fail-closed on bad
// specs, silent scalar fallback for auto), dispatch-count routing through
// the override seams, and the cross-backend numeric contract (decode and
// encode bit-identical; FMA GEMM bounded by kGemmBackendUlpTol at the
// product-norm scale). AVX2-dependent assertions GTEST_SKIP on
// machines without AVX2+FMA — the selection and fallback logic is still
// covered there via the resolve_backend(spec, allow_avx2) seam.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <limits>
#include <vector>

#include "src/core/adaptivfloat.hpp"
#include "src/core/bitpack.hpp"
#include "src/kernels/backend.hpp"
#include "src/kernels/decode_lut.hpp"
#include "src/kernels/gemm_packed.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/lstm.hpp"
#include "src/nn/quantized_linear.hpp"
#include "src/resilience/codec.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/tensor/gemm_kernel.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/fault.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/ulp.hpp"

namespace af {
namespace {

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

// ----- selection -----------------------------------------------------------

TEST(KernelBackendSelect, UnknownSpecFailsClosedWithTypedError) {
  try {
    resolve_backend("sse9");
    FAIL() << "unknown AF_BACKEND value resolved instead of throwing";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
    EXPECT_NE(std::string(e.what()).find("sse9"), std::string::npos)
        << "error should name the offending spec: " << e.what();
  }
}

TEST(KernelBackendSelect, ExplicitAvx2WithoutSupportFailsClosed) {
  // The allow_avx2=false seam models a machine (or build) without AVX2:
  // an explicit request must throw, never silently degrade.
  EXPECT_THROW(resolve_backend("avx2", /*allow_avx2=*/false), FaultError);
}

TEST(KernelBackendSelect, AutoWithoutAvx2FallsBackToScalarSilently) {
  EXPECT_EQ(&resolve_backend("auto", /*allow_avx2=*/false),
            &scalar_backend());
  EXPECT_EQ(&resolve_backend("", /*allow_avx2=*/false), &scalar_backend());
}

TEST(KernelBackendSelect, ScalarResolvesRegardlessOfAvx2) {
  EXPECT_EQ(&resolve_backend("scalar", true), &scalar_backend());
  EXPECT_EQ(&resolve_backend("scalar", false), &scalar_backend());
  EXPECT_EQ(scalar_backend().kind, BackendKind::kScalar);
  EXPECT_STREQ(scalar_backend().name, "scalar");
}

TEST(KernelBackendSelect, AutoPrefersAvx2WhenAvailable) {
  const KernelBackend* avx2 = avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
  EXPECT_EQ(&resolve_backend("auto"), avx2);
  EXPECT_EQ(&resolve_backend("avx2"), avx2);
  EXPECT_EQ(avx2->kind, BackendKind::kAvx2);
  EXPECT_STREQ(avx2->name, "avx2");
}

// ----- dispatch routing ----------------------------------------------------

TEST(KernelBackendDispatch, ScalarOverrideRoutesAwayFromAvx2) {
  // On an AVX2 machine the default would pick avx2; a scalar pin must
  // route every kernel entry to the scalar table and leave the AVX2
  // dispatch counter flat. (On a non-AVX2 machine this still verifies the
  // scalar counter moves.)
  Pcg32 rng(7);
  const Tensor x = Tensor::randn({8, 64}, rng);
  const auto w = PackedAdaptivFloatTensor::quantize_pack(
      Tensor::randn({16, 64}, rng, 0.5f), 8, 3);

  ScopedKernelBackend pin(scalar_backend());
  const std::uint64_t scalar0 = backend_dispatch_count(BackendKind::kScalar);
  const std::uint64_t avx20 = backend_dispatch_count(BackendKind::kAvx2);
  (void)matmul_packed(x, w);  // GEMM dispatch
  (void)w.unpack();           // bulk unpack dispatch
  EXPECT_GE(backend_dispatch_count(BackendKind::kScalar), scalar0 + 2);
  EXPECT_EQ(backend_dispatch_count(BackendKind::kAvx2), avx20);
}

TEST(KernelBackendDispatch, ContextPinOverridesAmbientBackend) {
  Pcg32 rng(8);
  Linear fc(48, 24, rng);
  QuantizedLinear qfc(fc, 8, 3);
  const Tensor x = Tensor::randn({4, 48}, rng);

  ExecutionContext ctx;
  ctx.backend = &scalar_backend();
  const std::uint64_t scalar0 = backend_dispatch_count(BackendKind::kScalar);
  const std::uint64_t avx20 = backend_dispatch_count(BackendKind::kAvx2);
  const Tensor y = qfc.forward(x, ctx);
  EXPECT_GT(backend_dispatch_count(BackendKind::kScalar), scalar0);
  EXPECT_EQ(backend_dispatch_count(BackendKind::kAvx2), avx20);

  const KernelBackend* avx2 = avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
  ctx.backend = avx2;
  (void)qfc.forward(x, ctx);
  EXPECT_EQ(backend_dispatch_count(BackendKind::kAvx2), avx20 + 1);
}

TEST(KernelBackendDispatch, LinearDotPathFollowsContextPin) {
  // Every fp32 x*W^T a layer runs is matmul's dot chain on the context's
  // backend, at any row count: exactly one dispatch per product, and the
  // ambient backend's counter stays flat under a pin. Rounds: Linear at
  // m = 3 and m = 9 and under ABFT (whose checksum chains are a second
  // dispatch on the pinned backend), and LstmCell (two products: x*Wx^T and
  // h*Wh^T). The last two run at m = 3, so they probe the pin itself, not
  // only the row count.
  Pcg32 rng(9);
  Linear fc(48, 24, rng);
  LstmCell cell(48, 16, rng);
  const Tensor x3 = Tensor::randn({3, 48}, rng);
  const Tensor x9 = Tensor::randn({9, 48}, rng);
  LstmState state = cell.initial_state(3);
  state.h = Tensor::randn({3, 16}, rng);
  const struct {
    const char* name;
    std::uint64_t dispatches;
    std::function<std::vector<Tensor>(ExecutionContext&)> run;
    ResiliencePolicy resilience = ResiliencePolicy::kNone;
  } rounds[] = {
      {"Linear m=3", 1,
       [&](ExecutionContext& ctx) {
         return std::vector<Tensor>{fc.forward(x3, ctx)};
       }},
      {"Linear m=9", 1,
       [&](ExecutionContext& ctx) {
         return std::vector<Tensor>{fc.forward(x9, ctx)};
       }},
      {"Linear ABFT m=3", 2,
       [&](ExecutionContext& ctx) {
         return std::vector<Tensor>{fc.forward(x3, ctx)};
       },
       ResiliencePolicy::kAbft},
      {"LstmCell m=3", 2,
       [&](ExecutionContext& ctx) {
         LstmState out = cell.forward(x3, state, ctx);
         return std::vector<Tensor>{out.h, out.c};
       }},
  };
  const KernelBackend* avx2 = avx2_backend();
  for (const auto& r : rounds) {
    ExecutionContext ctx;
    ctx.resilience = r.resilience;
    ctx.backend = &scalar_backend();
    const std::uint64_t scalar0 =
        backend_dispatch_count(BackendKind::kScalar);
    const std::uint64_t avx20 = backend_dispatch_count(BackendKind::kAvx2);
    const std::vector<Tensor> ref = r.run(ctx);
    EXPECT_EQ(backend_dispatch_count(BackendKind::kScalar),
              scalar0 + r.dispatches)
        << r.name;
    EXPECT_EQ(backend_dispatch_count(BackendKind::kAvx2), avx20) << r.name;

    if (avx2 == nullptr) continue;
    ctx.backend = avx2;
    const std::vector<Tensor> got = r.run(ctx);
    EXPECT_EQ(backend_dispatch_count(BackendKind::kAvx2),
              avx20 + r.dispatches)
        << r.name;
    EXPECT_EQ(backend_dispatch_count(BackendKind::kScalar),
              scalar0 + r.dispatches)
        << r.name;
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t t = 0; t < ref.size(); ++t) {
      EXPECT_TRUE(bit_equal(ref[t], got[t])) << r.name << " output " << t;
    }
  }
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
}

TEST(KernelBackendDispatch, ScopedPinRestoresPreviousSelection) {
  const KernelBackend& before = active_backend();
  {
    ScopedKernelBackend pin(scalar_backend());
    EXPECT_EQ(&active_backend(), &scalar_backend());
  }
  EXPECT_EQ(&active_backend(), &before);
}

// ----- cross-backend numerics ----------------------------------------------

TEST(KernelBackendNumerics, GemmWithinScaledUlpBoundAcrossBits) {
  const KernelBackend* avx2 = avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
  Pcg32 rng(31);
  const struct {
    int bits, exp_bits;
  } fmts[] = {{8, 3}, {6, 3}, {4, 2}};
  for (const auto& f : fmts) {
    const Tensor x = Tensor::randn({33, 130}, rng);
    const Tensor wf = Tensor::randn({65, 130}, rng, 0.5f);
    const auto packed =
        PackedAdaptivFloatTensor::quantize_pack(wf, f.bits, f.exp_bits);
    const Tensor ref = matmul_packed(x, packed, scalar_backend());
    const Tensor got = matmul_packed(x, packed, *avx2);
    // Per-element scale: the dot product's L1 norm over the decoded
    // weights actually used by both kernels.
    const Tensor wd = packed.unpack();
    ASSERT_EQ(ref.shape(), got.shape());
    for (std::int64_t i = 0; i < ref.dim(0); ++i) {
      for (std::int64_t j = 0; j < ref.dim(1); ++j) {
        double norm = 0.0;
        for (std::int64_t kk = 0; kk < x.dim(1); ++kk) {
          norm += std::abs(static_cast<double>(x[i * x.dim(1) + kk]) *
                           wd[j * x.dim(1) + kk]);
        }
        const double ulp = ulp_at_scale(ref[i * ref.dim(1) + j],
                                        got[i * ref.dim(1) + j], norm);
        EXPECT_LE(ulp, kGemmBackendUlpTol)
            << "bits=" << f.bits << " element (" << i << "," << j << ")";
      }
    }
  }
}

TEST(KernelBackendNumerics, Avx2GemmBitStableAcrossThreadCounts) {
  const KernelBackend* avx2 = avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
  Pcg32 rng(32);
  const Tensor x = Tensor::randn({37, 200}, rng);
  const auto packed = PackedAdaptivFloatTensor::quantize_pack(
      Tensor::randn({50, 200}, rng, 0.5f), 8, 3);
  set_num_threads(1);
  const Tensor t1 = matmul_packed(x, packed, *avx2);
  for (const int threads : {2, 4, 8}) {
    set_num_threads(threads);
    EXPECT_TRUE(bit_equal(t1, matmul_packed(x, packed, *avx2)))
        << "threads=" << threads;
  }
  set_num_threads(0);
}

// Bit-equality of two float outputs, where any two NaNs match: where two
// NaNs meet in one operation (a propagated NaN and inf - inf, say), IEEE 754
// leaves open which one the result carries, and the compiler may commute
// the operands. Counts the NaN outputs it sees into `nan_outputs`.
::testing::AssertionResult same_bits_or_both_nan(float ref, float got,
                                                 std::int64_t& nan_outputs) {
  if (std::isnan(ref)) {
    ++nan_outputs;
    if (std::isnan(got)) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "NaN vs " << got;
  }
  if (std::memcmp(&ref, &got, sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << ref << " vs " << got;
}

TEST(KernelBackendNumerics, DotRowsBitIdenticalToScalar) {
  // The x*W^T dot chain runs the scalar chain in every lane: bit-equal
  // outputs, not a ULP bound. The shapes cover every row count the AVX2
  // entry's 4-row blocks and 1..3-row remainders produce (m = 1..9, 16,
  // 17), the 8-column blocks and their pairing with an n % 8 tail, and
  // the 8-k transpose with a k % 8 tail; C starts nonzero. The probes put
  // signed zeros (skipped), NaN, infinities and denormals in A and in B;
  // a NaN output need only be NaN on both sides (same_bits_or_both_nan),
  // every other output is compared bit for bit. A second sweep gives A
  // about half exact zeros of either sign, as post-ReLU activations have,
  // so 8-k groups mix skipped and taken steps (the blended chain), some are
  // all zero, and C holds some -0.0 that only an exact skip preserves.
  const KernelBackend* avx2 = avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float den = std::numeric_limits<float>::denorm_min();
  const float probes[] = {0.0f, -0.0f, nan, inf, -inf, den, -den, 3e-39f};
  constexpr std::uint32_t kProbes = sizeof(probes) / sizeof(probes[0]);
  Pcg32 rng(36);
  for (const bool half_zero : {false, true}) {
    SCOPED_TRACE(half_zero ? "half-zero A" : "dense A");
    std::int64_t outputs = 0;
    std::int64_t nan_outputs = 0;
    for (const std::int64_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17}) {
      for (const std::int64_t n : {1, 7, 8, 9, 24, 67}) {
        for (const std::int64_t k : {1, 7, 8, 9, 64, 300}) {
          std::vector<float> a(static_cast<std::size_t>(m * k));
          std::vector<float> b(static_cast<std::size_t>(n * k));
          for (auto& v : a) v = rng.normal();
          for (auto& v : b) v = rng.normal();
          // One probe per row of A and of B at a random k (with k = 1 the
          // whole row is the probe): enough for every kind to meet every
          // lane and tail, sparse enough that most outputs stay finite.
          for (std::int64_t r = 0; r < m; ++r) {
            a[static_cast<std::size_t>(r * k + rng.next_u32() % k)] =
                probes[rng.next_u32() % kProbes];
          }
          for (std::int64_t r = 0; r < n; ++r) {
            b[static_cast<std::size_t>(r * k + rng.next_u32() % k)] =
                probes[rng.next_u32() % kProbes];
          }
          std::vector<float> c0(static_cast<std::size_t>(m * n));
          for (auto& v : c0) v = rng.normal();
          if (half_zero) {
            for (auto& v : a) {
              if (rng.next_u32() % 2 == 0) {
                v = rng.next_u32() % 2 == 0 ? 0.0f : -0.0f;
              }
            }
            for (auto& v : c0) {
              if (rng.next_u32() % 4 == 0) v = -0.0f;
            }
          }
          std::vector<float> ref = c0;
          std::vector<float> got = c0;
          outputs += static_cast<std::int64_t>(ref.size());
          scalar_backend().gemm_dot_rows(ref.data(), a.data(), b.data(), m,
                                         n, k);
          avx2->gemm_dot_rows(got.data(), a.data(), b.data(), m, n, k);
          for (std::size_t e = 0; e < ref.size(); ++e) {
            EXPECT_TRUE(same_bits_or_both_nan(ref[e], got[e], nan_outputs))
                << "m=" << m << " n=" << n << " k=" << k << " e=" << e;
          }
        }
      }
    }
    // NaN outputs occur, but most outputs carry comparable bits.
    EXPECT_GT(nan_outputs, 0);
    EXPECT_LT(2 * nan_outputs, outputs);
  }
}

TEST(KernelBackendNumerics, ChecksumDotRowsBitIdenticalToScalar) {
  // The ABFT checksum chains run the scalar double chain in every lane:
  // bit-equal outputs, no tolerance. The shapes cover the AVX2 entry's
  // 8-row blocks with their count % 8 rows (count = 1, 7, 8, 9, 33, 256)
  // and its 4-k transposes with their k % 4 tail (k = 1, 3, 4, 127, 256).
  // Rows sit ld = k + 3 apart, and every buffer is sized exactly, so an
  // over-read past the last row or past y shows under ASan. Each row holds
  // one probe (NaN, ±Inf, -0, a denormal) and y holds some -0; as in
  // DotRowsBitIdenticalToScalar, a NaN output need only be NaN on both
  // sides, every other output is compared bit for bit.
  const KernelBackend* avx2 = avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
  const float inf = std::numeric_limits<float>::infinity();
  const float probes[] = {std::numeric_limits<float>::quiet_NaN(), inf, -inf,
                          -0.0f, 0.0f,
                          std::numeric_limits<float>::denorm_min()};
  constexpr std::uint32_t kProbes = sizeof(probes) / sizeof(probes[0]);
  Pcg32 rng(37);
  std::int64_t outputs = 0, nan_outputs = 0;
  auto same = [&](double ref, double got) -> ::testing::AssertionResult {
    if (std::isnan(ref)) {
      ++nan_outputs;
      if (std::isnan(got)) return ::testing::AssertionSuccess();
      return ::testing::AssertionFailure() << "NaN vs " << got;
    }
    if (std::memcmp(&ref, &got, sizeof(double)) == 0) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << ref << " vs " << got;
  };
  for (const std::int64_t count : {1, 7, 8, 9, 33, 256}) {
    for (const std::int64_t k : {1, 3, 4, 127, 256}) {
      const std::int64_t ld = k + 3;
      std::vector<float> rows(static_cast<std::size_t>((count - 1) * ld + k));
      for (auto& v : rows) v = rng.normal();
      for (std::int64_t o = 0; o < count; ++o) {
        rows[static_cast<std::size_t>(o * ld + rng.next_u32() % k)] =
            probes[rng.next_u32() % kProbes];
      }
      std::vector<double> y(static_cast<std::size_t>(k));
      std::vector<double> yabs(static_cast<std::size_t>(k));
      // Full 53-bit significands, as real checksum sums have: a product
      // with a widened float then rounds, so a fused multiply-add would
      // show.
      for (std::size_t kk = 0; kk < y.size(); ++kk) {
        y[kk] = rng.next_u32() % 8 == 0 ? -0.0 : 64.0 * rng.normal() / 3.0;
        yabs[kk] = std::fabs(64.0 * rng.normal()) / 7.0;
      }
      std::vector<double> ref(static_cast<std::size_t>(count), 1.0);
      std::vector<double> ref_mag = ref, got = ref, got_mag = ref;
      scalar_backend().checksum_dot_rows(rows.data(), ld, count, k, y.data(),
                                         yabs.data(), ref.data(),
                                         ref_mag.data());
      avx2->checksum_dot_rows(rows.data(), ld, count, k, y.data(),
                              yabs.data(), got.data(), got_mag.data());
      for (std::size_t o = 0; o < ref.size(); ++o) {
        EXPECT_TRUE(same(ref[o], got[o]))
            << "count=" << count << " k=" << k << " o=" << o;
        EXPECT_TRUE(same(ref_mag[o], got_mag[o]))
            << "mag count=" << count << " k=" << k << " o=" << o;
      }
      outputs += 2 * count;
    }
  }
  EXPECT_GT(nan_outputs, 0);
  EXPECT_LT(2 * nan_outputs, outputs);
}

TEST(KernelBackendNumerics, UnpackDecodeBitIdenticalToScalar) {
  const KernelBackend* avx2 = avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
  Pcg32 rng(33);
  for (const int bits : {4, 6, 8}) {
    // A payload with every code value represented, plus a ragged element
    // count so the vector kernel hits both its payload-edge guard and the
    // scalar tail.
    const std::int64_t count = 1231;
    const std::size_t nbytes =
        (static_cast<std::size_t>(count) * bits + 7) / 8;
    std::vector<std::uint8_t> bytes(nbytes);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
    std::vector<float> table(std::size_t{1} << bits);
    for (auto& v : table) v = rng.uniform(-4.0f, 4.0f);

    // Sweep (first, count) windows, including bit-phase offsets that are
    // not byte-aligned for 6-bit codes.
    const std::int64_t firsts[] = {0, 1, 3, 7, 17, count - 40};
    for (const std::int64_t first : firsts) {
      const std::int64_t n = count - first;
      std::vector<float> got_s(static_cast<std::size_t>(n), -1.0f);
      std::vector<float> got_v(static_cast<std::size_t>(n), -2.0f);
      scalar_backend().unpack_decode(bytes.data(), nbytes, bits, first, n,
                                     table.data(), got_s.data());
      avx2->unpack_decode(bytes.data(), nbytes, bits, first, n, table.data(),
                          got_v.data());
      EXPECT_EQ(0, std::memcmp(got_s.data(), got_v.data(),
                               got_s.size() * sizeof(float)))
          << "bits=" << bits << " first=" << first;
    }
  }
}

TEST(KernelBackendNumerics, DecodeTileBitIdenticalToScalar) {
  // decode_tile fills matmul_packed's k-major tile; the AVX2 entry works in
  // 8x8 register blocks with a scalar fill for the ragged edges, so the
  // sweep covers every code path: the byte transpose (8 bits) and the
  // window reader at every other width, n and k not multiples of 8, a
  // j-tile tail (n = 65 against 64-column tiles), two k-blocks (k = 300 >
  // kMatmulKBlock) and one unaligned window. The payload vector is sized
  // exactly, so a sanitizer build sees any read past its end.
  const KernelBackend* avx2 = avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
  Pcg32 rng(34);
  const struct {
    std::int64_t n, k;
  } shapes[] = {{65, 300}, {64, 264}, {13, 21}, {8, 8}, {3, 5}};
  for (const int bits : {2, 3, 4, 5, 6, 7, 8, 12, 16}) {
    std::vector<float> table(std::size_t{1} << bits);
    for (auto& v : table) v = rng.uniform(-4.0f, 4.0f);
    for (const auto& sh : shapes) {
      const std::size_t nbytes =
          (static_cast<std::size_t>(sh.n * sh.k) * bits + 7) / 8;
      std::vector<std::uint8_t> bytes(nbytes);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
      struct Window {
        std::int64_t j0, j1, k0, k1;
      };
      // matmul_packed's tile walk, plus one window at an odd origin.
      std::vector<Window> windows;
      for (std::int64_t k0 = 0; k0 < sh.k; k0 += detail::kMatmulKBlock) {
        for (std::int64_t j0 = 0; j0 < sh.n; j0 += detail::kMatmulJTile) {
          windows.push_back({j0, std::min(sh.n, j0 + detail::kMatmulJTile), k0,
                             std::min(sh.k, k0 + detail::kMatmulKBlock)});
        }
      }
      windows.push_back({sh.n / 3, sh.n, sh.k / 3, sh.k});
      for (const Window& w : windows) {
        const std::int64_t jt = w.j1 - w.j0;
        const std::size_t used = static_cast<std::size_t>(jt * (w.k1 - w.k0));
        // One spare float past the tile: neither fill may write it.
        std::vector<float> tile_s(used + 1, -1.0f);
        std::vector<float> tile_v(used + 1, -1.0f);
        scalar_backend().decode_tile(bytes.data(), nbytes, bits, sh.k, w.j0,
                                     w.j1, w.k0, w.k1, table.data(),
                                     tile_s.data());
        avx2->decode_tile(bytes.data(), nbytes, bits, sh.k, w.j0, w.j1, w.k0,
                          w.k1, table.data(), tile_v.data());
        EXPECT_EQ(0, std::memcmp(tile_s.data(), tile_v.data(),
                                 tile_s.size() * sizeof(float)))
            << "bits=" << bits << " n=" << sh.n << " k=" << sh.k
            << " window j[" << w.j0 << "," << w.j1 << ") k[" << w.k0 << ","
            << w.k1 << ")";
        // The scalar tile holds W[j][kk] at row kk - k0, column j - j0.
        std::vector<float> row(static_cast<std::size_t>(w.k1 - w.k0));
        for (std::int64_t j = w.j0; j < w.j1; ++j) {
          unpack_decode_scalar(bytes.data(), nbytes, bits, j * sh.k + w.k0,
                               w.k1 - w.k0, table.data(), row.data());
          for (std::int64_t kk = w.k0; kk < w.k1; ++kk) {
            ASSERT_EQ(row[static_cast<std::size_t>(kk - w.k0)],
                      tile_s[static_cast<std::size_t>((kk - w.k0) * jt +
                                                      (j - w.j0))])
                << "bits=" << bits << " j=" << j << " kk=" << kk;
          }
        }
        EXPECT_EQ(tile_s[used], -1.0f);
      }
    }
  }
}

TEST(KernelBackendNumerics, AttendBitIdenticalToScalar) {
  // The attend core keeps the scalar entry's order on every backend, so
  // scores (srow, left holding the softmax weights) and the mixed context
  // (crow) must match bit for bit — NaNs aside, as in the dot chain. The
  // sweep covers every K/V code path of the AVX2 entry: fp32 rows, 8-bit
  // byte codes and the 3-byte-window extraction at 4 and 6 bits, each
  // through every format's decode table; key counts that fill 8-key blocks,
  // leave 1..7-key remainders, or sit below one block; visible < len (the
  // masked tail) including no visible key at all; d_head with and without
  // a d % 8 tail; rows of an odd code count, so packed rows straddle
  // bytes, and a head column offset. The region ends exactly at the last
  // row's last byte, so the payload-edge decode runs too. Probes (signed
  // zeros, NaN, infinities, denormals) sit in q, in fp32 rows and in one
  // entry of half the tables.
  const KernelBackend* avx2 = avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float den = std::numeric_limits<float>::denorm_min();
  const float probes[] = {0.0f, -0.0f, nan, inf, -inf, den, -den, 3e-39f};
  constexpr std::uint32_t kProbes = sizeof(probes) / sizeof(probes[0]);
  Pcg32 rng(39);
  std::int64_t calls = 0, outputs = 0, nan_outputs = 0;
  for (const int bits : {4, 6, 8, 32}) {
    for (const FormatKind kind : all_format_kinds()) {
      if (bits == 32 && kind != all_format_kinds().front()) continue;
      std::vector<float> table;
      if (bits < 32) {
        std::unique_ptr<FormatCodec> codec = make_codec(kind, bits, 2.0f);
        const DecodeLut& lut = codec->decode_lut(false);
        table.assign(lut.data(), lut.data() + lut.size());
      }
      for (const std::int64_t len :
           {1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 48, 128}) {
        for (const std::int64_t d_head : {1, 3, 8, 16, 20}) {
          SCOPED_TRACE(::testing::Message()
                       << format_kind_name(kind) << " bits=" << bits
                       << " len=" << len << " d_head=" << d_head);
          const std::int64_t row_codes = 2 * d_head + 1;
          const std::int64_t col = d_head + 1;
          const std::size_t nbytes =
              static_cast<std::size_t>(len * row_codes * bits + 7) / 8;
          std::vector<std::uint8_t> kbytes(nbytes), vbytes(nbytes);
          for (auto* payload : {&kbytes, &vbytes}) {
            if (bits == 32) {
              std::vector<float> rows(
                  static_cast<std::size_t>(len * row_codes));
              for (auto& x : rows) {
                x = rng.next_u32() % 64 == 0 ? probes[rng.next_u32() % kProbes]
                                             : rng.normal();
              }
              std::memcpy(payload->data(), rows.data(), nbytes);
            } else {
              for (auto& byte : *payload) {
                byte = static_cast<std::uint8_t>(rng.next_u32());
              }
            }
          }
          // Half the tables carry one probe entry: dense enough to reach
          // every path, sparse enough that most rows stay finite.
          std::vector<float> probed = table;
          if (!probed.empty() && rng.next_u32() % 2 == 0) {
            probed[rng.next_u32() % probed.size()] =
                probes[rng.next_u32() % kProbes];
          }
          const float* tab = bits == 32 ? nullptr : probed.data();
          const AttendOperand k{kbytes.data(), nbytes, bits, tab, row_codes,
                                col};
          const AttendOperand v{vbytes.data(), nbytes, bits, tab, row_codes,
                                col};
          std::vector<float> q(static_cast<std::size_t>(d_head));
          for (auto& x : q) {
            x = rng.next_u32() % 32 == 0 ? probes[rng.next_u32() % kProbes]
                                         : rng.normal();
          }
          const float inv_sqrt_dh =
              1.0f / std::sqrt(static_cast<float>(d_head));
          for (const std::int64_t visible :
               {len, len - 1, static_cast<std::int64_t>(rng.next_u32() % len),
                std::int64_t{0}}) {
            std::vector<float> c0(static_cast<std::size_t>(d_head));
            for (auto& x : c0) x = rng.normal();
            std::vector<float> ref_s(static_cast<std::size_t>(len));
            std::vector<float> got_s(ref_s.size());
            std::vector<float> ref_c = c0, got_c = c0;
            scalar_backend().attend_row(q.data(), k, v, len, visible, d_head,
                                        inv_sqrt_dh, ref_s.data(),
                                        ref_c.data());
            avx2->attend_row(q.data(), k, v, len, visible, d_head,
                             inv_sqrt_dh, got_s.data(), got_c.data());
            ++calls;
            for (std::size_t j = 0; j < ref_s.size(); ++j) {
              ++outputs;
              EXPECT_TRUE(same_bits_or_both_nan(ref_s[j], got_s[j],
                                                nan_outputs))
                  << "visible=" << visible << " score " << j;
            }
            for (std::size_t d = 0; d < ref_c.size(); ++d) {
              ++outputs;
              EXPECT_TRUE(same_bits_or_both_nan(ref_c[d], got_c[d],
                                                nan_outputs))
                  << "visible=" << visible << " ctx " << d;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(calls, 4 * 12 * 5 * (3 * 5 + 1));
  // NaN outputs occur, but most outputs carry comparable bits.
  EXPECT_GT(nan_outputs, 0);
  EXPECT_LT(2 * nan_outputs, outputs);
}

float float_of(std::uint32_t u) { return std::bit_cast<float>(u); }
std::uint32_t bits_of(float x) { return std::bit_cast<std::uint32_t>(x); }

// Probes for one calibrated quantizer: the float edges, every code's value
// (a sample at 12 bits and up) with its midpoint to the next one up and one
// ulp either side of both, and values spread over the format's range.
std::vector<float> encode_probes(const Quantizer& q, Pcg32& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> xs = {0.0f, -0.0f, inf, -inf,
                           std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           std::numeric_limits<float>::min(),
                           std::numeric_limits<float>::max(),
                           -std::numeric_limits<float>::max()};
  std::vector<float> vals;
  for (std::uint32_t c = 0; c < (1u << q.bits()); ++c) {
    const float v = q.decode(static_cast<std::uint16_t>(c));
    if (!std::isnan(v)) vals.push_back(v);
  }
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  for (std::size_t i = 0; i < vals.size(); i += 1 + vals.size() / 256) {
    const float v = vals[i];
    const float mid =
        i + 1 < vals.size() ? v + 0.5f * (vals[i + 1] - v) : v;
    for (const float p : {v, mid}) {
      xs.push_back(p);
      xs.push_back(std::nextafter(p, -inf));
      xs.push_back(std::nextafter(p, inf));
    }
  }
  const float span = std::min(2.0f * q.value_range(), 1e38f);
  for (int i = 0; i < 256; ++i) xs.push_back(rng.uniform(-span, span));
  for (int i = 0; i < 256; ++i) {
    xs.push_back(std::ldexp(rng.uniform(-1.0f, 1.0f),
                            static_cast<int>(rng.next_u32() % 280) - 150));
  }
  return xs;
}

TEST(KernelBackendNumerics, EncodeBitIdenticalAcrossFormats) {
  // Every format at every width 2..16, its exponent fields (Float), es
  // (Posit) and several calibrations: the scalar and AVX2 encode entries
  // must equal the quantizer's own encode and quantize_value on every
  // probe, at an odd offset and length so the 8-lane tails run too.
  std::vector<const KernelBackend*> backends = {&scalar_backend()};
  if (const KernelBackend* avx2 = avx2_backend()) backends.push_back(avx2);
  Pcg32 rng(34);
  int covered = 0;
  for (int bits = 2; bits <= 16; ++bits) {
    std::vector<std::unique_ptr<Quantizer>> qs;
    for (int e = 1; e <= std::min(bits - 1, 8); ++e) {
      qs.push_back(make_quantizer(FormatKind::kFloat, bits, {e}));
    }
    for (int es = 0; es <= 4; ++es) {
      qs.push_back(make_quantizer(FormatKind::kPosit, bits, {es}));
    }
    for (const float max_abs : {2.0f, 1e-3f, 3e4f, 0.0f}) {
      for (const FormatKind kind :
           {FormatKind::kAdaptivFloat, FormatKind::kBlockFloat,
            FormatKind::kUniform}) {
        qs.push_back(make_quantizer(kind, bits));
        qs.back()->calibrate_max_abs(max_abs);
      }
    }
    for (const auto& q : qs) {
      const EncodeView* view = q->encode_view();
      ASSERT_NE(view, nullptr) << q->name() << "<" << bits << ">";
      ++covered;
      const std::vector<float> xs = encode_probes(*q, rng);
      const auto n = static_cast<std::int64_t>(xs.size()) - 3;
      for (const KernelBackend* be : backends) {
        std::vector<std::uint16_t> codes(xs.size(), 0xbeefu);
        std::vector<float> values(xs.size(), -7.0f);
        be->encode(*view, xs.data() + 3, codes.data(), values.data(), n);
        for (std::int64_t i = 0; i < n; ++i) {
          const float x = xs[i + 3];
          ASSERT_EQ(codes[i], q->encode(x))
              << be->name << " " << q->name() << "<" << bits << "> x bits 0x"
              << std::hex << std::bit_cast<std::uint32_t>(x);
          ASSERT_EQ(bits_of(values[i]), bits_of(q->quantize_value(x)))
              << be->name << " " << q->name() << "<" << bits << "> x bits 0x"
              << std::hex << std::bit_cast<std::uint32_t>(x);
        }
        EXPECT_EQ(codes[n], 0xbeefu) << be->name << " wrote past n";
        EXPECT_EQ(values[n], -7.0f) << be->name << " wrote past n";
      }
    }
  }
  EXPECT_EQ(covered, 92 + 15 * 5 + 15 * 12);
}

TEST(EncodeEntry, MatchesRecordedEdgeCodes) {
  // The codes the encoders gave before the closed forms, at the edges:
  // signed zeros, NaN, infinities, denormals, value_min and value_max one
  // ulp either side, tie midpoints and posit regime boundaries. Each
  // quantizer's encode and both encode entries must reproduce them.
  struct Config {
    FormatKind kind;
    int bits;
    int exp_bits;
    float max_abs;
  };
  static constexpr Config kConfigs[] = {
      {FormatKind::kAdaptivFloat, 4, -1, 1.0f},
      {FormatKind::kAdaptivFloat, 8, -1, 2.5f},
      {FormatKind::kAdaptivFloat, 16, -1, 100.0f},
      {FormatKind::kFloat, 4, -1, 1.0f},
      {FormatKind::kFloat, 8, -1, 1.0f},
      {FormatKind::kFloat, 8, 8, 1.0f},
      {FormatKind::kFloat, 16, 5, 1.0f},
      {FormatKind::kPosit, 4, -1, 1.0f},
      {FormatKind::kPosit, 8, -1, 1.0f},
      {FormatKind::kPosit, 8, 4, 1.0f},
      {FormatKind::kPosit, 12, 4, 1.0f},
      {FormatKind::kPosit, 16, 2, 1.0f},
      {FormatKind::kBlockFloat, 4, -1, 2.89f},
      {FormatKind::kBlockFloat, 8, -1, 2.89f},
      {FormatKind::kUniform, 4, -1, 3.7f},
      {FormatKind::kUniform, 8, -1, 3.7f},
  };
  static constexpr struct {
    int config;
    std::uint32_t x;
    std::uint16_t code;
  } kCodes[] = {
#include "tests/encode_edges_table.inc"
  };
  std::vector<std::unique_ptr<Quantizer>> qs;
  for (const Config& c : kConfigs) {
    qs.push_back(make_quantizer(c.kind, c.bits, {c.exp_bits}));
    qs.back()->calibrate_max_abs(c.max_abs);
  }
  std::vector<const KernelBackend*> backends = {&scalar_backend()};
  if (const KernelBackend* avx2 = avx2_backend()) backends.push_back(avx2);
  std::vector<int> seen(std::size(kConfigs), 0);
  for (const auto& e : kCodes) {
    const Quantizer& q = *qs[static_cast<std::size_t>(e.config)];
    const float x = std::bit_cast<float>(e.x);
    ++seen[static_cast<std::size_t>(e.config)];
    EXPECT_EQ(q.encode(x), e.code)
        << q.name() << "<" << q.bits() << "> x bits 0x" << std::hex << e.x;
    for (const KernelBackend* be : backends) {
      // Eight copies, so the AVX2 entry runs the probe in its lanes.
      const std::vector<float> xs(8, x);
      std::vector<std::uint16_t> codes(8, 0xbeefu);
      be->encode(*q.encode_view(), xs.data(), codes.data(), nullptr, 8);
      EXPECT_EQ(codes, std::vector<std::uint16_t>(8, e.code))
          << be->name << " " << q.name() << "<" << q.bits() << "> x bits 0x"
          << std::hex << e.x;
    }
  }
  for (std::size_t c = 0; c < seen.size(); ++c) {
    EXPECT_GE(seen[c], 20) << "config " << c;
  }
}

TEST(KernelBackendNumerics, EncodeTensorBackendInvariant) {
  // encode_tensor dispatches the encode entry through the active backend;
  // codes must not depend on which one runs.
  const KernelBackend* avx2 = avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
  Pcg32 rng(35);
  Tensor t = Tensor::randn({128, 128}, rng);
  for (const FormatKind kind : all_format_kinds()) {
    const auto codec = make_codec(kind, 8, t.max_abs());
    std::vector<std::uint16_t> scalar_codes, avx2_codes;
    {
      ScopedKernelBackend pin(scalar_backend());
      scalar_codes = codec->encode_tensor(t);
    }
    {
      ScopedKernelBackend pin(*avx2);
      avx2_codes = codec->encode_tensor(t);
    }
    EXPECT_EQ(scalar_codes, avx2_codes) << format_kind_name(kind);
  }
}

// ----- elementwise maps ----------------------------------------------------

TEST(TanhF32, MatchesRecordedGlibcTanhf) {
  // tanh_f32 replicates glibc 2.36's tanhf; the pairs were recorded from
  // it, so this holds whatever libm the test links.
  static constexpr std::uint32_t kPairs[][2] = {
#include "tests/tanhf_glibc236_table.inc"
  };
  for (const auto& p : kPairs) {
    EXPECT_EQ(bits_of(tanh_f32(float_of(p[0]))), p[1])
        << std::hex << "x bits 0x" << p[0];
  }
}

// Every tanh branch edge of fdlibm's tanhf/expm1f (both signs, one ulp
// either side) plus a strided sweep of all bit patterns.
std::vector<float> tanh_probe_inputs() {
  std::vector<float> xs;
  for (const std::uint32_t edge :
       {0x00000000u, 0x00000001u, 0x00800000u, 0x24000000u, 0x32800000u,
        0x3e317218u, 0x3e800000u, 0x3f051592u, 0x3f800000u, 0x40f98872u,
        0x419ca6b9u, 0x41b00000u, 0x7f7fffffu, 0x7f800000u, 0x7f800001u,
        0x7fc00000u, 0x7fc12345u}) {
    for (std::uint32_t d : {0xffffffffu, 0u, 1u}) {
      const std::uint32_t u = edge + d;
      xs.push_back(float_of(u));
      xs.push_back(float_of(u ^ 0x80000000u));
    }
  }
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099) {
    xs.push_back(float_of(static_cast<std::uint32_t>(u)));
  }
  return xs;
}

TEST(KernelBackendNumerics, TanhBitIdenticalToScalar) {
  const std::vector<float> xs = tanh_probe_inputs();
  std::vector<const KernelBackend*> backends = {&scalar_backend()};
  if (const KernelBackend* avx2 = avx2_backend()) backends.push_back(avx2);
  for (const KernelBackend* be : backends) {
    // Every length 0..19 from an odd offset (the 16-, 8-wide and padded
    // tail paths), then the whole sweep, in place.
    for (std::int64_t n = 0; n < 20; ++n) {
      std::vector<float> y(static_cast<std::size_t>(n) + 1, -7.0f);
      be->tanh_map(xs.data() + 3, y.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(bits_of(y[i]), bits_of(tanh_f32(xs[i + 3])))
            << be->name << " n=" << n << " i=" << i;
      }
      EXPECT_EQ(y[n], -7.0f) << be->name << " wrote past n=" << n;
    }
    std::vector<float> y = xs;
    be->tanh_map(y.data(), y.data(), static_cast<std::int64_t>(y.size()));
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (bits_of(y[i]) != bits_of(tanh_f32(xs[i]))) {
        if (++mismatches <= 8) {
          ADD_FAILURE() << be->name << std::hex << " x bits 0x"
                        << bits_of(xs[i]) << " got 0x" << bits_of(y[i])
                        << " want 0x" << bits_of(tanh_f32(xs[i]));
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << be->name;
  }
}

TEST(KernelBackendNumerics, AdaptivFloatEncodeBitIdenticalToScalar) {
  // Every width 2..16 and exponent width 0..bits-1, at biases across both
  // guard edges (exp_bias + 127 = 1 is the lowest the entry covers and
  // -127 falls back; at 127 value_min is normal unless m = 0, at 128 it
  // is +inf and falls back; large biases put value_max past the float
  // range): the scalar and AVX2 entries must equal
  // AdaptivFloatFormat::encode on every probe.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<const KernelBackend*> backends = {&scalar_backend()};
  if (const KernelBackend* avx2 = avx2_backend()) backends.push_back(avx2);
  Pcg32 rng(36);
  int covered = 0;
  for (int bits = 2; bits <= 16; ++bits) {
    for (int e = 0; e < bits; ++e) {
      for (const int bias :
           {-127, -126, -125, -20, -6, -1, 0, 3, 100, 126, 127, 128}) {
        const AdaptivFloatFormat f(bits, e, bias);
        const bool in_guard =
            bias + 127 >= 1 && std::isnormal(f.value_min());
        ASSERT_EQ(f.encode_view() != nullptr, in_guard) << f.to_string();
        if (!in_guard) continue;
        ++covered;
        const float vmin = f.value_min(), vmax = f.value_max();
        std::vector<float> xs = {0.0f, -0.0f, inf, -inf,
                                 std::numeric_limits<float>::quiet_NaN(),
                                 -std::numeric_limits<float>::quiet_NaN(),
                                 std::numeric_limits<float>::denorm_min(),
                                 std::numeric_limits<float>::max()};
        for (const float edge : {vmin, 0.5f * vmin, vmax}) {
          if (!std::isfinite(edge)) continue;
          for (const float v :
               {edge, std::nextafter(edge, 0.0f), std::nextafter(edge, inf)}) {
            xs.push_back(v);
            xs.push_back(-v);
          }
        }
        // Every representable value and the midpoints between neighbours
        // (the ties), one ulp either side.
        const std::vector<float> reps = f.representable_values();
        for (std::size_t i = 0; i < reps.size(); i += 1 + reps.size() / 64) {
          xs.push_back(reps[i]);
          if (i + 1 < reps.size()) {
            const float mid = 0.5f * (reps[i] + reps[i + 1]);
            for (const float v : {mid, std::nextafter(mid, -inf),
                                  std::nextafter(mid, inf)}) {
              xs.push_back(v);
            }
          }
        }
        const float span = std::isfinite(2.0f * vmax) ? 2.0f * vmax : 1e38f;
        for (int i = 0; i < 64; ++i) xs.push_back(rng.uniform(-span, span));
        for (int i = 0; i < 64; ++i) {
          xs.push_back(std::ldexp(rng.uniform(-2.0f, 2.0f),
                                  bias + static_cast<int>(rng.next_u32() % 24) -
                                      4));
        }
        const auto n = static_cast<std::int64_t>(xs.size());
        for (const KernelBackend* be : backends) {
          std::vector<std::uint16_t> codes(xs.size(), 0xbeefu);
          be->encode(*f.encode_view(), xs.data(), codes.data(), nullptr, n);
          for (std::size_t i = 0; i < xs.size(); ++i) {
            ASSERT_EQ(codes[i], f.encode(xs[i]))
                << be->name << " " << f.to_string() << std::hex
                << " x bits 0x" << bits_of(xs[i]);
          }
        }
      }
    }
  }
  EXPECT_GT(covered, 1000);
}

}  // namespace
}  // namespace af
