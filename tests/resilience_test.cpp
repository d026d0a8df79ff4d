// Fault injector, storage protection and format codecs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "src/core/algorithm1.hpp"
#include "src/core/bitpack.hpp"
#include "src/resilience/codec.hpp"
#include "src/resilience/fault_injector.hpp"
#include "src/resilience/protection.hpp"
#include "src/util/check.hpp"

namespace af {
namespace {

std::vector<std::uint8_t> test_payload(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  return bytes;
}

// ----- FaultInjector ---------------------------------------------------------

TEST(FaultInjector, ZeroRateNeverFlips) {
  FaultInjector inj(FaultConfig{0.0, FaultModel::kSingleBit, 4, 123});
  auto bytes = test_payload(256, 1);
  auto orig = bytes;
  inj.corrupt_bytes(bytes);
  EXPECT_EQ(bytes, orig);
  EXPECT_EQ(inj.stats().bits_flipped, 0);
  EXPECT_EQ(inj.stats().bits_seen, 256 * 8);
}

TEST(FaultInjector, FullRateFlipsEveryBit) {
  FaultInjector inj(FaultConfig{1.0, FaultModel::kSingleBit, 4, 123});
  std::vector<std::uint8_t> bytes = {0x00, 0xFF, 0xA5};
  inj.corrupt_bytes(bytes);
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0xFF, 0x00, 0x5A}));
  EXPECT_EQ(inj.stats().bits_flipped, 24);
}

TEST(FaultInjector, SameSeedReplaysExactly) {
  const FaultConfig cfg{0.01, FaultModel::kSingleBit, 4, 0xfeedULL};
  FaultInjector a(cfg), b(cfg);
  auto bytes_a = test_payload(4096, 2);
  auto bytes_b = bytes_a;
  a.corrupt_bytes(bytes_a);
  b.corrupt_bytes(bytes_b);
  EXPECT_EQ(bytes_a, bytes_b);
  EXPECT_EQ(a.stats().bits_flipped, b.stats().bits_flipped);
  EXPECT_GT(a.stats().bits_flipped, 0);  // 32768 bits at 1e-2: ~327 expected

  // reset() rewinds the stream: the same injector replays itself.
  auto bytes_c = test_payload(4096, 2);
  a.reset();
  a.corrupt_bytes(bytes_c);
  EXPECT_EQ(bytes_c, bytes_a);
}

TEST(FaultInjector, ReplayHoldsAcrossCallBoundaries) {
  // The Bernoulli stream depends on bits offered, not on how the payload is
  // sliced into calls: one 512-byte pass == two 256-byte passes.
  const FaultConfig cfg{0.005, FaultModel::kSingleBit, 4, 77};
  FaultInjector whole(cfg), split(cfg);
  auto a = test_payload(512, 3);
  auto b = a;
  whole.corrupt_bytes(a);
  std::vector<std::uint8_t> b1(b.begin(), b.begin() + 256);
  std::vector<std::uint8_t> b2(b.begin() + 256, b.end());
  split.corrupt_bytes(b1);
  split.corrupt_bytes(b2);
  b1.insert(b1.end(), b2.begin(), b2.end());
  EXPECT_EQ(a, b1);
}

TEST(FaultInjector, SpanOverloadIsBitIdenticalToVectorOverload) {
  // The raw-span entry point (what the on-disk snapshot campaign drives
  // over an mmap'd file image) must draw the exact same flips as the
  // vector path for the same bytes — one seeded stream, two spellings.
  const FaultConfig cfg{0.01, FaultModel::kSingleBit, 4, 0xabcdULL};
  FaultInjector vec_inj(cfg), span_inj(cfg);
  auto vec_bytes = test_payload(2048, 6);
  auto span_bytes = vec_bytes;
  vec_inj.corrupt_bytes(vec_bytes);
  span_inj.corrupt_bytes(span_bytes.data(), span_bytes.size());
  EXPECT_EQ(vec_bytes, span_bytes);
  EXPECT_EQ(vec_inj.stats().bits_flipped, span_inj.stats().bits_flipped);
  EXPECT_EQ(vec_inj.stats().bits_seen, span_inj.stats().bits_seen);
  EXPECT_GT(span_inj.stats().bits_flipped, 0);

  // And the stream semantics carry over: a span call advances the same
  // virtual bit stream as the equivalent vector call, so a split span
  // replay matches a whole vector pass.
  FaultInjector whole(cfg), split(cfg);
  auto a = test_payload(1024, 7);
  auto b = a;
  whole.corrupt_bytes(a);
  split.corrupt_bytes(b.data(), 300);
  split.corrupt_bytes(b.data() + 300, b.size() - 300);
  EXPECT_EQ(a, b);
}

TEST(FaultInjector, SpanOverloadMatchesCodeWordPathAtByteWidth) {
  // 8-bit code words stored one per byte: corrupting them through the
  // byte-span overload and through corrupt_codes must flip identical bits.
  const FaultConfig cfg{0.02, FaultModel::kSingleBit, 4, 0x5150ULL};
  std::vector<std::uint16_t> codes(512);
  Pcg32 rng(8);
  for (auto& c : codes) c = static_cast<std::uint16_t>(rng.next_below(256));

  std::vector<std::uint8_t> bytes(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(codes[i]);
  }

  FaultInjector code_inj(cfg), span_inj(cfg);
  code_inj.corrupt_codes(codes, 8);
  span_inj.corrupt_bytes(bytes.data(), bytes.size());
  ASSERT_EQ(code_inj.stats().bits_flipped, span_inj.stats().bits_flipped);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(codes[i], static_cast<std::uint16_t>(bytes[i])) << "word " << i;
  }
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  FaultInjector a(FaultConfig{0.01, FaultModel::kSingleBit, 4, 1});
  FaultInjector b(FaultConfig{0.01, FaultModel::kSingleBit, 4, 2});
  auto bytes_a = test_payload(4096, 4);
  auto bytes_b = bytes_a;
  a.corrupt_bytes(bytes_a);
  b.corrupt_bytes(bytes_b);
  EXPECT_NE(bytes_a, bytes_b);
}

TEST(FaultInjector, RateIsApproximatelyHonored) {
  FaultInjector inj(FaultConfig{0.01, FaultModel::kSingleBit, 4, 5});
  auto bytes = test_payload(1 << 16, 5);  // 2^19 bits, ~5243 expected flips
  inj.corrupt_bytes(bytes);
  const double rate = static_cast<double>(inj.stats().bits_flipped) /
                      static_cast<double>(inj.stats().bits_seen);
  EXPECT_NEAR(rate, 0.01, 0.002);
  EXPECT_EQ(inj.stats().events, inj.stats().bits_flipped);  // single-bit mode
}

TEST(FaultInjector, BurstFlipsConsecutiveRuns) {
  FaultInjector inj(FaultConfig{0.001, FaultModel::kBurst, 4, 6});
  auto bytes = test_payload(1 << 14, 6);
  auto orig = bytes;
  inj.corrupt_bytes(bytes);
  ASSERT_GT(inj.stats().events, 0);
  EXPECT_GE(inj.stats().bits_flipped, inj.stats().events);
  // Flipped bits come in runs: total flips should be close to 4x events
  // (bursts can only be cut short by the payload end).
  EXPECT_GE(inj.stats().bits_flipped, inj.stats().events * 3);
  EXPECT_LE(inj.stats().bits_flipped, inj.stats().events * 4);
  EXPECT_NE(bytes, orig);
}

TEST(FaultInjector, CorruptCodesStaysInWordWidth) {
  FaultInjector inj(FaultConfig{0.2, FaultModel::kSingleBit, 4, 7});
  std::vector<std::uint16_t> codes(512, 0);
  inj.corrupt_codes(codes, 6);
  ASSERT_GT(inj.stats().bits_flipped, 0);
  for (auto c : codes) EXPECT_LT(c, 1u << 6);
  EXPECT_EQ(inj.stats().bits_seen, 512 * 6);  // only stored bits are exposed
}

TEST(FaultInjector, CorruptValueIsDeterministic) {
  const FaultConfig cfg{0.05, FaultModel::kSingleBit, 4, 8};
  FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 64; ++i) {
    const float x = static_cast<float>(i) * 0.37f - 11.0f;
    const float fa = a.corrupt_value(x);
    const float fb = b.corrupt_value(x);
    EXPECT_EQ(std::memcmp(&fa, &fb, sizeof(float)), 0);
  }
}

// ----- ProtectedCodes --------------------------------------------------------

std::vector<std::uint16_t> test_codes(std::size_t n, int bits,
                                      std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::uint16_t> codes(n);
  for (auto& c : codes) {
    c = static_cast<std::uint16_t>(rng.next_below(1u << bits));
  }
  return codes;
}

TEST(ProtectedCodes, CleanPayloadRoundTripsAndScrubsClean) {
  for (int bits : {4, 6, 8}) {
    auto codes = test_codes(101, bits, 10);
    for (auto mode : {ProtectionMode::kNone, ProtectionMode::kParity,
                      ProtectionMode::kParityChecksum}) {
      ProtectedCodes pc(codes, bits, mode);
      EXPECT_EQ(pc.codes(), codes);
      ScrubReport rep = pc.scrub();
      EXPECT_TRUE(rep.clean());
      EXPECT_EQ(rep.words_zeroed, 0);
      EXPECT_EQ(pc.codes(), codes);
    }
  }
}

TEST(ProtectedCodes, ParityDetectsAndZeroesSingleFlippedWord) {
  auto codes = test_codes(64, 8, 11);
  codes[13] = 0xA7;  // known nonzero word
  ProtectedCodes pc(codes, 8, ProtectionMode::kParity);
  pc.payload()[13] ^= 0x04;  // one bit flip inside word 13
  ScrubReport rep = pc.scrub();
  EXPECT_EQ(rep.parity_errors, 1);
  EXPECT_EQ(rep.words_zeroed, 1);
  auto repaired = pc.codes();
  EXPECT_EQ(repaired[13], 0u);  // detect-and-zero
  for (std::size_t i = 0; i < repaired.size(); ++i) {
    if (i != 13) {
      EXPECT_EQ(repaired[i], codes[i]) << i;
    }
  }
  // Second scrub finds nothing left.
  EXPECT_TRUE(pc.scrub().clean());
}

TEST(ProtectedCodes, ParityMissesEvenFlipsChecksumCatchesThem) {
  auto codes = test_codes(64, 8, 12);
  // Two flips in the same word: parity of the word is unchanged.
  ProtectedCodes parity_only(codes, 8, ProtectionMode::kParity);
  parity_only.payload()[20] ^= 0x21;
  ScrubReport rep1 = parity_only.scrub();
  EXPECT_EQ(rep1.parity_errors, 0);
  EXPECT_NE(parity_only.codes()[20], codes[20]);  // silent corruption

  ProtectedCodes both(codes, 8, ProtectionMode::kParityChecksum);
  both.payload()[20] ^= 0x21;
  ScrubReport rep2 = both.scrub();
  EXPECT_EQ(rep2.parity_errors, 0);
  EXPECT_GT(rep2.residual_blocks, 0);
  EXPECT_GT(rep2.words_zeroed, 0);
  // The corrupted word was inside the zeroed block.
  EXPECT_EQ(both.codes()[20], 0u);
}

TEST(ProtectedCodes, NoneModeHasNoOverheadAndNeverRepairs) {
  auto codes = test_codes(32, 8, 13);
  ProtectedCodes pc(codes, 8, ProtectionMode::kNone);
  EXPECT_EQ(pc.storage_overhead(), 0.0);
  pc.payload()[5] ^= 0xFF;
  ScrubReport rep = pc.scrub();
  EXPECT_TRUE(rep.clean());  // nothing to check against
  EXPECT_NE(pc.codes(), codes);
}

TEST(ProtectedCodes, OverheadIsSmall) {
  auto codes = test_codes(256, 8, 14);
  ProtectedCodes pc(codes, 8, ProtectionMode::kParityChecksum, 64);
  // 1 parity bit per 8-bit word + 8 checksum bits per 64 words = 14.1%.
  EXPECT_GT(pc.storage_overhead(), 0.10);
  EXPECT_LT(pc.storage_overhead(), 0.16);
}

TEST(ProtectedCodes, ScrubRestoresDecodabilityUnderInjection) {
  // End-to-end: corrupt at 1e-3, scrub, then every surviving word is either
  // its original value or the zero code.
  auto codes = test_codes(2048, 8, 15);
  ProtectedCodes pc(codes, 8, ProtectionMode::kParityChecksum);
  FaultInjector inj(FaultConfig{1e-3, FaultModel::kSingleBit, 4, 99});
  inj.corrupt_bytes(pc.payload());
  ASSERT_GT(inj.stats().bits_flipped, 0);
  pc.scrub();
  auto repaired = pc.codes();
  for (std::size_t i = 0; i < repaired.size(); ++i) {
    EXPECT_TRUE(repaired[i] == codes[i] || repaired[i] == 0u) << i;
  }
}

// ----- ProtectedPackedTensor -------------------------------------------------

TEST(ProtectedPackedTensor, FaultFreeMatchesAlgorithm1) {
  Pcg32 rng(20);
  Tensor w = Tensor::randn({33, 7}, rng, 1.5f);
  ProtectedPackedTensor p(w, 8, 3, ProtectionMode::kParityChecksum);
  Tensor ref = adaptivfloat_quantize(w, 8, 3).quantized;
  EXPECT_TRUE(p.unpack().equals(ref));
  EXPECT_TRUE(p.scrub().clean());
  EXPECT_TRUE(p.unpack().equals(ref));
}

TEST(ProtectedPackedTensor, InjectScrubBoundsEveryWeight) {
  Pcg32 rng(21);
  Tensor w = Tensor::randn({64, 16}, rng, 1.0f);
  ProtectedPackedTensor p(w, 8, 3, ProtectionMode::kParityChecksum);
  const float vmax = p.format().value_max();
  FaultInjector inj(FaultConfig{3e-3, FaultModel::kSingleBit, 4, 42});
  p.inject(inj);
  ASSERT_GT(inj.stats().bits_flipped, 0);
  p.scrub();
  Tensor out = p.unpack();
  Tensor ref = adaptivfloat_quantize(w, 8, 3).quantized;
  std::int64_t changed = 0;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_LE(std::fabs(out[i]), vmax);          // AdaptivFloat boundedness
    EXPECT_TRUE(out[i] == ref[i] || out[i] == 0.0f) << i;  // detect-and-zero
    changed += (out[i] != ref[i]);
  }
  EXPECT_GT(changed, 0);  // faults did land
}

TEST(ProtectedPackedTensor, DoubleBitErrorScrubsToZeroNeverGarbage) {
  // A double flip inside one word is invisible to parity; the block
  // checksum still detects it, and the only legal repair is zeroing —
  // detected-but-uncorrectable must never decode garbage. Randomize the
  // fault positions: same-word pairs on even trials, independent pairs on
  // odd ones.
  Pcg32 rng(23);
  Tensor w = Tensor::randn({24, 8}, rng, 1.0f);
  const Tensor ref = adaptivfloat_quantize(w, 8, 3).quantized;
  const int kBits = 8;
  const auto total_bits = static_cast<std::uint32_t>(w.numel() * kBits);
  Pcg32 pos(0x2b17);
  for (int trial = 0; trial < 200; ++trial) {
    ProtectedPackedTensor p(w, kBits, 3, ProtectionMode::kParityChecksum);
    std::uint32_t b0 = pos.next_below(total_bits);
    std::uint32_t b1;
    if (trial % 2 == 0) {
      // Same word, different bit: the parity-blind case.
      const std::uint32_t word = b0 / kBits;
      b0 = word * kBits + pos.next_below(kBits);
      do {
        b1 = word * kBits + pos.next_below(kBits);
      } while (b1 == b0);
    } else {
      do {
        b1 = pos.next_below(total_bits);
      } while (b1 == b0);
    }
    p.payload()[b0 / 8] ^= static_cast<std::uint8_t>(1u << (b0 % 8));
    p.payload()[b1 / 8] ^= static_cast<std::uint8_t>(1u << (b1 % 8));
    ScrubReport rep = p.scrub();
    EXPECT_FALSE(rep.clean()) << "trial " << trial;
    Tensor out = p.unpack();
    for (std::int64_t i = 0; i < out.numel(); ++i) {
      ASSERT_TRUE(out[i] == ref[i] || out[i] == 0.0f)
          << "trial " << trial << " element " << i;
    }
    if (trial % 2 == 0) {
      // The corrupted word itself can never survive with a wrong value.
      const auto word = static_cast<std::int64_t>(b0) / kBits;
      EXPECT_EQ(out[word], 0.0f) << "trial " << trial;
      EXPECT_GE(rep.checksum_errors, 1) << "trial " << trial;
    }
  }
}

TEST(ProtectedPackedTensor, InjectionReplaysUnderSameSeed) {
  Pcg32 rng(22);
  Tensor w = Tensor::randn({40, 8}, rng, 1.0f);
  const FaultConfig cfg{1e-2, FaultModel::kSingleBit, 4, 7777};
  ProtectedPackedTensor p1(w, 6, 3, ProtectionMode::kNone);
  ProtectedPackedTensor p2(w, 6, 3, ProtectionMode::kNone);
  FaultInjector i1(cfg), i2(cfg);
  p1.inject(i1);
  p2.inject(i2);
  EXPECT_TRUE(p1.unpack().equals(p2.unpack()));
}

// ----- FormatCodec -----------------------------------------------------------

TEST(FormatCodec, EncodeDecodeMatchesQuantizerOnCleanData) {
  Pcg32 rng(30);
  Tensor w = Tensor::randn({256}, rng, 0.8f);
  const float max_abs = w.max_abs();
  for (FormatKind kind : all_format_kinds()) {
    for (int bits : {4, 8}) {
      auto codec = make_codec(kind, bits, max_abs);
      auto q = make_quantizer(kind, bits);
      q->calibrate(w);
      for (std::int64_t i = 0; i < w.numel(); ++i) {
        const float via_codec = codec->decode(codec->encode(w[i]));
        const float via_quant = q->quantize_value(w[i]);
        // Same grid, same rounding: equal values (BFP and Uniform may
        // differ in the sign of zero, which == ignores).
        EXPECT_EQ(via_codec, via_quant)
            << codec->name() << " bits=" << bits << " x=" << w[i];
        EXPECT_EQ(codec->decode(codec->encode(via_codec)), via_codec)
            << codec->name();
      }
    }
  }
}

TEST(FormatCodec, PositTiesAreSignSymmetricAndMinposSaturates) {
  // posit<4,0> (the 4-bit default) has positives 0.25, 0.5, 0.75, 1, 1.5,
  // 2, 4: 1.75 is an exact tie between codes 0101 and 0110 and rounds to
  // the even one, and minpos/4 lies far below minpos.
  auto codec = make_codec(FormatKind::kPosit, 4, 1.0f);
  EXPECT_EQ(codec->encode(1.75f), 0x6u);
  EXPECT_EQ(codec->decode(codec->encode(1.75f)), 2.0f);
  EXPECT_EQ(codec->decode(codec->encode(-1.75f)), -2.0f);
  const float minpos = codec->decode(1);
  EXPECT_EQ(minpos, 0.25f);
  EXPECT_EQ(codec->encode(minpos / 4.0f), 1u);
  EXPECT_EQ(codec->encode(-minpos / 4.0f), 0xfu);
}

TEST(FormatCodec, ZeroCodeDecodesToZeroInEveryFormat) {
  // The detect-and-zero repair policy depends on this.
  for (FormatKind kind : all_format_kinds()) {
    for (int bits : {4, 6, 8}) {
      auto codec = make_codec(kind, bits, 1.0f);
      EXPECT_EQ(codec->decode(0), 0.0f)
          << codec->name() << " bits=" << bits;
    }
  }
}

TEST(FormatCodec, HardenedDecodeIsBoundedForAllCodes) {
  for (FormatKind kind : all_format_kinds()) {
    for (int bits : {4, 6, 8}) {
      auto codec = make_codec(kind, bits, 0.9f);
      const float range = codec->range();
      ASSERT_GT(range, 0.0f);
      for (int code = 0; code < (1 << bits); ++code) {
        const float v =
            codec->decode_hardened(static_cast<std::uint16_t>(code));
        EXPECT_TRUE(std::isfinite(v)) << codec->name();
        EXPECT_LE(std::fabs(v), range) << codec->name() << " code=" << code;
      }
    }
  }
}

TEST(FormatCodec, HardenedDecodeTransparentOnCleanCodes) {
  Pcg32 rng(31);
  Tensor w = Tensor::randn({128}, rng, 0.7f);
  for (FormatKind kind : all_format_kinds()) {
    auto codec = make_codec(kind, 8, w.max_abs());
    auto codes = codec->encode_tensor(w);
    Tensor raw = codec->decode_tensor(codes, w.shape(), /*hardened=*/false);
    Tensor hard = codec->decode_tensor(codes, w.shape(), /*hardened=*/true);
    EXPECT_TRUE(raw.equals(hard)) << codec->name();
  }
}

// ----- the paper's resilience claim, as a property ---------------------------

TEST(BitFlipProperty, AdaptivFloatSingleFlipErrorIsBoundedBy2ValueMax) {
  // Any single-bit flip of any AdaptivFloat code moves the decoded value by
  // at most 2*value_max, because *every* code decodes into
  // [-value_max, value_max]. Exhaustive over all codes and bit positions.
  for (int bits : {4, 6, 8}) {
    const int exp_bits = std::min(3, bits - 1);
    const AdaptivFloatFormat fmt = format_for_max_abs(1.0f, bits, exp_bits);
    const float vmax = fmt.value_max();
    for (int code = 0; code < fmt.num_codes(); ++code) {
      const float v = fmt.decode(static_cast<std::uint16_t>(code));
      EXPECT_LE(std::fabs(v), vmax);
      for (int bit = 0; bit < bits; ++bit) {
        const auto flipped = static_cast<std::uint16_t>(code ^ (1 << bit));
        const float fv = fmt.decode(flipped);
        EXPECT_LE(std::fabs(fv - v), 2.0f * vmax + 1e-6f)
            << "bits=" << bits << " code=" << code << " flip=" << bit;
      }
    }
  }
}

TEST(BitFlipProperty, FloatSingleFlipCanExceedTheAdaptivFloatBound) {
  // The same weight data encoded as IEEE-like Float: one exponent-MSB flip
  // produces an error far beyond twice the calibrated data range. This is
  // the asymmetry the resilience sweep measures.
  const float max_abs = 1.0f;
  auto af_codec = make_codec(FormatKind::kAdaptivFloat, 8, max_abs);
  auto fl_codec = make_codec(FormatKind::kFloat, 8, max_abs);
  const float af_bound = 2.0f * af_codec->range();
  float worst = 0.0f;
  for (int code = 0; code < 256; ++code) {
    const float v = fl_codec->decode(static_cast<std::uint16_t>(code));
    if (std::fabs(v) > max_abs) continue;  // only codes clean data can take
    for (int bit = 0; bit < 8; ++bit) {
      const auto flipped = static_cast<std::uint16_t>(code ^ (1 << bit));
      worst = std::max(worst,
                       std::fabs(fl_codec->decode(flipped) - v));
    }
  }
  EXPECT_GT(worst, af_bound)
      << "Float flip error should dwarf the AdaptivFloat bound";
}

}  // namespace
}  // namespace af
