// The kernel layer's contract is "same bits, fewer cycles": every test here
// compares a table-driven or batched path bit-for-bit against the scalar
// arithmetic it replaced — across formats, widths, thread counts, and
// payload mutation.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include "src/core/adaptivfloat.hpp"
#include "src/core/bitpack.hpp"
#include "src/kernels/backend.hpp"
#include "src/kernels/decode_lut.hpp"
#include "src/kernels/gemm_packed.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/quantized_linear.hpp"
#include "src/numerics/registry.hpp"
#include "src/resilience/fault_injector.hpp"
#include "src/resilience/guard.hpp"
#include "src/resilience/protection.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace af {
namespace {

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

class ThreadRestore : public ::testing::Test {
 protected:
  void TearDown() override { set_num_threads(0); }
};

// ----- fused packed GEMM ---------------------------------------------------

using MatmulPacked = ThreadRestore;

TEST_F(MatmulPacked, BitIdenticalToUnpackThenMatmul) {
  // The unpack-then-matmul reference is the scalar ops.cpp kernel; exact
  // bit-equality is the *scalar backend's* contract (AVX2 is FMA-bounded,
  // covered in backend_test.cpp), so pin scalar for this test.
  ScopedKernelBackend pin(scalar_backend());
  Pcg32 rng(101);
  const struct {
    std::int64_t m, k, n;
  } sizes[] = {{5, 70, 9}, {33, 257, 65}, {16, 512, 64}, {1, 3, 1}};
  for (const int bits : {4, 6, 8}) {
    for (const auto& s : sizes) {
      const Tensor x = Tensor::randn({s.m, s.k}, rng);
      const Tensor wf = Tensor::randn({s.n, s.k}, rng, 0.5f);
      const auto packed =
          PackedAdaptivFloatTensor::quantize_pack(wf, bits, bits <= 4 ? 2 : 3);

      set_num_threads(1);
      const Tensor ref = matmul(x, packed.unpack(), false, /*trans_b=*/true);
      for (const int threads : {1, 2, 8}) {
        set_num_threads(threads);
        const Tensor fused = matmul_packed(x, packed);
        EXPECT_TRUE(bit_equal(ref, fused))
            << "bits=" << bits << " m=" << s.m << " k=" << s.k << " n=" << s.n
            << " threads=" << threads;
      }
    }
  }
}

TEST_F(MatmulPacked, ZeroWeightMatrixGivesZeroOutput) {
  Pcg32 rng(102);
  const Tensor x = Tensor::randn({4, 40}, rng);
  const auto packed =
      PackedAdaptivFloatTensor::quantize_pack(Tensor::zeros({6, 40}), 8, 3);
  const Tensor y = matmul_packed(x, packed);
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], 0.0f);
}

TEST_F(MatmulPacked, ViewEndingAtGuardPageIsNeverOverread) {
  // Served weights are zero-copy views into a mapped snapshot, where a read
  // past the payload's last byte can fault. Place each payload so it ends
  // exactly at a page boundary with a PROT_NONE page after it: any
  // over-read in the tile fill crashes the test, in Release builds too.
  // n = 64, k = 264 ends the payload inside a whole 8x8 block (the vector
  // fill's last load); n = 65, k = 300 ends it in the ragged edge.
  const long page = sysconf(_SC_PAGESIZE);
  ASSERT_GT(page, 0);
  std::vector<const KernelBackend*> backends = {&scalar_backend()};
  if (const KernelBackend* avx2 = avx2_backend()) backends.push_back(avx2);
  Pcg32 rng(103);
  const struct {
    std::int64_t n, k;
  } shapes[] = {{64, 264}, {65, 300}};
  for (int bits = 2; bits <= 16; ++bits) {
    const int exp_bits = bits == 2 ? 1 : (bits <= 4 ? 2 : 3);
    for (const auto& sh : shapes) {
      const Tensor x = Tensor::randn({5, sh.k}, rng);
      const auto owned = PackedAdaptivFloatTensor::quantize_pack(
          Tensor::randn({sh.n, sh.k}, rng, 0.5f), bits, exp_bits);
      const std::size_t len = owned.payload_bytes();
      const std::size_t body =
          (len + static_cast<std::size_t>(page) - 1) /
          static_cast<std::size_t>(page) * static_cast<std::size_t>(page);
      const std::size_t total = body + static_cast<std::size_t>(page);
      void* map = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      ASSERT_NE(map, MAP_FAILED);
      auto* base = static_cast<std::uint8_t*>(map);
      std::uint8_t* payload = base + body - len;
      std::memcpy(payload, owned.data(), len);
      ASSERT_EQ(0, mprotect(base + body, static_cast<std::size_t>(page),
                            PROT_NONE));
      {
        const auto view = PackedAdaptivFloatTensor::view(
            owned.format(), owned.shape(), payload, len, nullptr);
        for (const KernelBackend* be : backends) {
          EXPECT_TRUE(bit_equal(matmul_packed(x, owned, *be),
                                matmul_packed(x, view, *be)))
              << be->name << " bits=" << bits << " n=" << sh.n
              << " k=" << sh.k;
        }
      }
      munmap(map, total);
    }
  }
}

// ----- bitpack LUT unpack --------------------------------------------------

TEST(DecodeLutPath, UnpackMatchesScalarDecode) {
  Pcg32 rng(103);
  for (const int bits : {4, 6, 8}) {
    const Tensor w = Tensor::randn({37, 23}, rng, 2.0f);
    const auto packed =
        PackedAdaptivFloatTensor::quantize_pack(w, bits, bits <= 4 ? 2 : 3);
    const Tensor fast = packed.unpack();
    const auto codes =
        unpack_codes(packed.bytes(), bits,
                     static_cast<std::size_t>(packed.numel()));
    Tensor slow(packed.shape());
    for (std::size_t i = 0; i < codes.size(); ++i) {
      slow[static_cast<std::int64_t>(i)] = packed.format().decode(codes[i]);
    }
    EXPECT_TRUE(bit_equal(fast, slow)) << "bits=" << bits;
    // value_at must agree with bulk unpack element-wise.
    for (std::int64_t i = 0; i < packed.numel(); i += 97) {
      EXPECT_EQ(packed.value_at(i), fast[i]);
    }
  }
}

// ----- bulk quantize --------------------------------------------------------

/// A tensor of several quantize chunks with the adversarial inputs
/// appended: signed zeros, NaN, infinities, denormals, exact representable
/// values and their neighbours, and interval midpoints. Calibrates `q` on
/// the bulk part first, as the real flow would.
Tensor quantize_stress_tensor(Quantizer& q, Pcg32& rng) {
  std::vector<float> vals;
  const std::int64_t bulk = (1 << 13) + 517;
  Tensor base = Tensor::randn({bulk}, rng, 2.0f);
  for (std::int64_t i = 0; i < bulk; ++i) vals.push_back(base[i]);
  vals.push_back(0.0f);
  vals.push_back(-0.0f);
  vals.push_back(std::numeric_limits<float>::quiet_NaN());
  vals.push_back(std::numeric_limits<float>::infinity());
  vals.push_back(-std::numeric_limits<float>::infinity());
  vals.push_back(std::numeric_limits<float>::denorm_min());
  vals.push_back(-std::numeric_limits<float>::denorm_min());
  vals.push_back(std::numeric_limits<float>::min() / 2.0f);
  vals.push_back(std::numeric_limits<float>::max());
  vals.push_back(-std::numeric_limits<float>::max());
  q.calibrate(base);
  std::vector<float> reps;
  for (std::uint32_t c = 0; c < (1u << q.bits()); ++c) {
    const float v = q.decode(static_cast<std::uint16_t>(c));
    if (!std::isnan(v)) reps.push_back(v);
  }
  std::sort(reps.begin(), reps.end());
  reps.erase(std::unique(reps.begin(), reps.end()), reps.end());
  for (std::size_t i = 0; i < reps.size(); ++i) {
    vals.push_back(reps[i]);
    vals.push_back(std::nextafter(reps[i], 1e30f));
    vals.push_back(std::nextafter(reps[i], -1e30f));
    if (i + 1 < reps.size()) {
      vals.push_back(reps[i] + (reps[i + 1] - reps[i]) / 2.0f);  // midpoint
    }
  }
  Tensor t({static_cast<std::int64_t>(vals.size())});
  for (std::size_t i = 0; i < vals.size(); ++i) {
    t[static_cast<std::int64_t>(i)] = vals[i];
  }
  return t;
}

void expect_quantize_matches_scalar(const Quantizer& q, const Tensor& t,
                                    const Tensor& got,
                                    const std::string& what) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float want = q.quantize_value(t[i]);
    EXPECT_EQ(std::memcmp(&want, got.data() + i, sizeof(float)), 0)
        << what << " at i=" << i << " in=" << t[i] << " scalar=" << want
        << " bulk=" << got[i];
  }
}

TEST(BulkQuantize, BitIdenticalToScalarAcrossFormatsAndWidths) {
  // Bulk quantize is decode(encode(x)) through the encode entry; it must
  // give quantize_value's bits, the level formats' -0.0f included, on
  // every backend.
  std::vector<const KernelBackend*> backends = {&scalar_backend()};
  if (const KernelBackend* avx2 = avx2_backend()) backends.push_back(avx2);
  Pcg32 rng(104);
  for (const FormatKind kind : all_format_kinds()) {
    for (const int bits : {4, 6, 8, 16}) {
      auto q = make_quantizer(kind, bits);
      const Tensor t = quantize_stress_tensor(*q, rng);
      for (const KernelBackend* be : backends) {
        ScopedKernelBackend pin(*be);
        expect_quantize_matches_scalar(
            *q, t, q->quantize(t),
            q->name() + "<" + std::to_string(bits) + "> " + be->name);
      }
    }
  }
}

TEST(BulkQuantize, RecalibrationTakesEffect) {
  auto q = make_quantizer(FormatKind::kUniform, 8);
  Pcg32 rng(105);
  const Tensor big = Tensor::randn({(1 << 13) + 1}, rng, 1.0f);
  q->calibrate(big);
  const Tensor first = q->quantize(big);
  // A new scale must reach the next bulk quantize.
  q->calibrate_max_abs(31.0f);
  const Tensor requant = q->quantize(big);
  EXPECT_FALSE(bit_equal(first, requant));
  expect_quantize_matches_scalar(*q, big, requant, "Uniform<8> recalibrated");
}

TEST(QuantizeConcurrent, OneQuantizerFromFourThreads) {
  // quantize() is const and holds no cache: four threads quantizing one
  // calibrated Float and one Posit quantizer at once (a tensor of several
  // parallel chunks, each thread also through the pool) must each get the
  // serial result.
  Pcg32 rng(108);
  const Tensor t = Tensor::randn({3 * (1 << 13) + 123}, rng, 2.0f);
  std::vector<std::unique_ptr<Quantizer>> qs;
  qs.push_back(make_quantizer(FormatKind::kFloat, 8));
  qs.push_back(make_quantizer(FormatKind::kPosit, 8));
  for (auto& q : qs) q->calibrate(t);
  constexpr int kThreads = 4;
  std::vector<Tensor> got(2 * kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      // Half the threads start with the Posit quantizer.
      for (int j = 0; j < 2; ++j) {
        const int f = (j + w) % 2;
        got[static_cast<std::size_t>(2 * w + f)] = qs[f]->quantize(t);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int f = 0; f < 2; ++f) {
    Tensor serial(t.shape());
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      serial[i] = qs[f]->quantize_value(t[i]);
    }
    for (int w = 0; w < kThreads; ++w) {
      EXPECT_TRUE(bit_equal(got[static_cast<std::size_t>(2 * w + f)], serial))
          << qs[f]->name() << " thread " << w;
    }
  }
}

// ----- protected payload mutation visibility (satellite c) -----------------

TEST(ProtectedDecode, PayloadMutationIsVisibleOnNextUnpack) {
  Pcg32 rng(107);
  const Tensor w = Tensor::randn({64, 64}, rng, 1.0f);
  ProtectedPackedTensor prot(w, 8, 3, ProtectionMode::kParityChecksum);

  auto scalar_unpack = [&] {
    // Independent reference: fresh unpack_codes of the *current* payload,
    // scalar-decoded — never touches the cached table.
    std::vector<std::uint8_t> payload = prot.payload();
    const auto codes = unpack_codes(payload, 8,
                                    static_cast<std::size_t>(w.numel()),
                                    StrayBits::kMask);
    Tensor out(w.shape());
    for (std::size_t i = 0; i < codes.size(); ++i) {
      out[static_cast<std::int64_t>(i)] = prot.format().decode(codes[i]);
    }
    return out;
  };

  const Tensor clean = prot.unpack();
  EXPECT_TRUE(bit_equal(clean, scalar_unpack()));

  FaultInjector injector({/*bit_error_rate=*/1e-3, FaultModel::kSingleBit, 4,
                          /*seed=*/42});
  prot.inject(injector);
  ASSERT_GT(injector.stats().bits_flipped, 0);

  const Tensor corrupted = prot.unpack();
  EXPECT_FALSE(bit_equal(corrupted, clean))
      << "cached state hid a payload mutation";
  EXPECT_TRUE(bit_equal(corrupted, scalar_unpack()));

  const ScrubReport rep = prot.scrub();
  EXPECT_GT(rep.words_zeroed, 0);
  const Tensor scrubbed = prot.unpack();
  EXPECT_FALSE(bit_equal(scrubbed, corrupted));
  EXPECT_TRUE(bit_equal(scrubbed, scalar_unpack()));
}

// ----- QuantizedLinear decode cache (satellite a) --------------------------

TEST(QuantizedLinearCache, GuardedForwardDecodesWeightsOnce) {
  Pcg32 rng(108);
  Linear fc(48, 32, rng);
  QuantizedLinear qfc(fc, 8, 3);
  const LayerGuard guard("fc", {RecoveryPolicy::kCorrect, 1, 0.0f});
  const Tensor x = Tensor::randn({5, 48}, rng);

  EXPECT_EQ(qfc.decode_count(), 0);
  ResilienceReport report;
  ExecutionContext ctx;
  ctx.resilience = ResiliencePolicy::kAbftGuard;
  ctx.guard = &guard;
  ctx.report = &report;
  const Tensor y1 = qfc.forward(x, ctx);
  EXPECT_EQ(qfc.decode_count(), 1);
  const Tensor y2 = qfc.forward(x, ctx);
  EXPECT_EQ(qfc.decode_count(), 1) << "second guarded forward re-decoded";
  EXPECT_TRUE(bit_equal(y1, y2));
  // The checked product is the unprotected one, so a clean protected
  // forward has its bits on every backend.
  ExecutionContext plain;
  EXPECT_TRUE(bit_equal(y1, qfc.forward(x, plain)));
  EXPECT_EQ(qfc.decode_count(), 1);
}

TEST(QuantizedLinearCache, FusedForwardMatchesDecodedMatmul) {
  // matmul() over decoded weights is always scalar; the fused path only
  // matches it bit-for-bit under the scalar backend.
  ScopedKernelBackend pin(scalar_backend());
  Pcg32 rng(109);
  Linear fc(70, 33, rng);
  const QuantizedLinear qfc(fc, 6, 3);
  const Tensor x = Tensor::randn({9, 70}, rng);
  Tensor ref = matmul(x, qfc.decoded_weight(), false, /*trans_b=*/true);
  add_row_bias_inplace(ref, qfc.bias());
  Tensor fused = matmul_packed(x, qfc.packed_weight());
  add_row_bias_inplace(fused, qfc.bias());
  EXPECT_TRUE(bit_equal(fused, ref));
}

}  // namespace
}  // namespace af
