#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/nn/attention.hpp"
#include "src/nn/kv_cache.hpp"
#include "src/nn/lstm.hpp"
#include "src/resilience/codec.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"
#include "src/util/parallel.hpp"
#include "tests/grad_check.hpp"

namespace af {
namespace {

TEST(Attention, OutputShape) {
  ExecutionContext train{.training = true};
  Pcg32 rng(1);
  MultiHeadAttention mha(8, 2, rng);
  Tensor q = Tensor::randn({2, 3, 8}, rng);
  Tensor kv = Tensor::randn({2, 5, 8}, rng);
  Tensor y = mha.forward(q, kv, false, nullptr, train);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 8}));
  mha.backward(Tensor(y.shape()));
}

TEST(Attention, HeadsMustDivide) {
  Pcg32 rng(2);
  EXPECT_THROW(MultiHeadAttention(10, 3, rng), Error);
}

TEST(Attention, CausalMaskBlocksFuture) {
  ExecutionContext train{.training = true};
  // With a causal mask, output at position 0 must not depend on inputs at
  // later positions.
  Pcg32 rng(3);
  MultiHeadAttention mha(8, 2, rng);
  Tensor x = Tensor::randn({1, 4, 8}, rng);
  Tensor y1 = mha.forward(x, x, /*causal=*/true, nullptr, train);
  mha.backward(Tensor(y1.shape()));
  Tensor x2 = x;
  for (std::int64_t j = 0; j < 8; ++j) x2.at({0, 3, j}) += 5.0f;  // poke t=3
  Tensor y2 = mha.forward(x2, x2, true, nullptr, train);
  mha.backward(Tensor(y2.shape()));
  for (std::int64_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(y1.at({0, 0, j}), y2.at({0, 0, j}), 1e-5f);
    EXPECT_NEAR(y1.at({0, 2, j}), y2.at({0, 2, j}), 1e-5f);
  }
  // t=3 itself must change.
  float diff = 0;
  for (std::int64_t j = 0; j < 8; ++j) {
    diff += std::fabs(y1.at({0, 3, j}) - y2.at({0, 3, j}));
  }
  EXPECT_GT(diff, 1e-3f);
}

TEST(Attention, CausalRequiresSquare) {
  ExecutionContext train{.training = true};
  Pcg32 rng(4);
  MultiHeadAttention mha(8, 2, rng);
  Tensor q = Tensor::randn({1, 3, 8}, rng);
  Tensor kv = Tensor::randn({1, 5, 8}, rng);
  EXPECT_THROW(mha.forward(q, kv, true, nullptr, train), Error);
}

TEST(Attention, KvLengthMasksPaddedKeys) {
  ExecutionContext train{.training = true};
  Pcg32 rng(5);
  MultiHeadAttention mha(8, 2, rng);
  Tensor q = Tensor::randn({1, 2, 8}, rng);
  Tensor kv = Tensor::randn({1, 4, 8}, rng);
  std::vector<std::int64_t> len = {2};
  Tensor y1 = mha.forward(q, kv, false, &len, train);
  mha.backward(Tensor(y1.shape()));
  // Mutating masked keys (positions 2, 3) must not change the output.
  Tensor kv2 = kv;
  for (std::int64_t t = 2; t < 4; ++t) {
    for (std::int64_t j = 0; j < 8; ++j) kv2.at({0, t, j}) = 99.0f;
  }
  Tensor y2 = mha.forward(q, kv2, false, &len, train);
  mha.backward(Tensor(y2.shape()));
  for (std::int64_t i = 0; i < y1.numel(); ++i) {
    EXPECT_NEAR(y1[i], y2[i], 1e-5f);
  }
}

TEST(Attention, GradCheckCrossAttention) {
  ExecutionContext train{.training = true};
  Pcg32 rng(6);
  MultiHeadAttention mha(4, 2, rng);
  Tensor q = Tensor::randn({2, 2, 4}, rng);
  Tensor kv = Tensor::randn({2, 3, 4}, rng);
  Tensor dy = Tensor::randn({2, 2, 4}, rng);
  mha.forward(q, kv, false, nullptr, train);
  auto [dq, dkv] = mha.backward(dy);
  auto loss = [&] {
    Tensor y = mha.forward(q, kv, false, nullptr, train);
    double l = dot_all(y, dy);
    mha.backward(dy);
    return l;
  };
  expect_grad_matches(q, dq, loss, 1e-3f, 3e-2f);
  expect_grad_matches(kv, dkv, loss, 1e-3f, 3e-2f);
}

TEST(Attention, GradCheckParameters) {
  ExecutionContext train{.training = true};
  Pcg32 rng(7);
  MultiHeadAttention mha(4, 1, rng);
  Tensor x = Tensor::randn({1, 3, 4}, rng);
  Tensor dy = Tensor::randn({1, 3, 4}, rng);
  auto loss = [&] {
    Tensor y = mha.forward(x, x, true, nullptr, train);
    double l = dot_all(y, dy);
    mha.backward(dy);
    return l;
  };
  for (Parameter* p : mha.parameters()) {
    mha.zero_grad();
    mha.forward(x, x, true, nullptr, train);
    mha.backward(dy);
    expect_grad_matches(p->value, p->grad, loss, 1e-3f, 3e-2f);
  }
}

TEST(LstmCell, ForwardGatesBehave) {
  ExecutionContext train{.training = true};
  Pcg32 rng(8);
  LstmCell cell(3, 4, rng);
  auto st = cell.initial_state(2);
  Tensor x = Tensor::randn({2, 3}, rng);
  auto next = cell.forward(x, st, train);
  EXPECT_EQ(next.h.shape(), (Shape{2, 4}));
  EXPECT_EQ(next.c.shape(), (Shape{2, 4}));
  // h = o * tanh(c) implies |h| <= 1 and |h| <= |tanh(c)|.
  for (std::int64_t i = 0; i < next.h.numel(); ++i) {
    EXPECT_LE(std::fabs(next.h[i]), 1.0f);
    EXPECT_LE(std::fabs(next.h[i]), std::fabs(std::tanh(next.c[i])) + 1e-6f);
  }
  cell.backward(Tensor({2, 4}), Tensor({2, 4}));
}

TEST(LstmCell, GradCheckAllInputs) {
  ExecutionContext train{.training = true};
  Pcg32 rng(9);
  LstmCell cell(3, 2, rng);
  Tensor x = Tensor::randn({2, 3}, rng);
  LstmState st{Tensor::randn({2, 2}, rng), Tensor::randn({2, 2}, rng)};
  Tensor dh = Tensor::randn({2, 2}, rng);
  Tensor dc = Tensor::randn({2, 2}, rng);
  auto loss = [&] {
    auto out = cell.forward(x, st, train);
    double l = dot_all(out.h, dh) + dot_all(out.c, dc);
    cell.backward(Tensor({2, 2}), Tensor({2, 2}));
    return l;
  };
  // Loss includes both outputs; feed (dh, dc) to backward for analytics.
  cell.zero_grad();
  cell.forward(x, st, train);
  auto [dx, dprev] = cell.backward(dh, dc);
  expect_grad_matches(x, dx, loss, 1e-3f);
  expect_grad_matches(st.h, dprev.h, loss, 1e-3f);
  expect_grad_matches(st.c, dprev.c, loss, 1e-3f);
  for (Parameter* p : cell.parameters()) {
    cell.zero_grad();
    cell.forward(x, st, train);
    cell.backward(dh, dc);
    expect_grad_matches(p->value, p->grad, loss, 1e-3f, 3e-2f);
  }
}

TEST(Lstm, SequenceShapesAndFinalState) {
  ExecutionContext train{.training = true};
  Pcg32 rng(10);
  Lstm lstm(3, 5, 2, rng);
  Tensor x = Tensor::randn({7, 2, 3}, rng);
  std::vector<LstmState> fin;
  Tensor out = lstm.forward(x, train, &fin);
  EXPECT_EQ(out.shape(), (Shape{7, 2, 5}));
  ASSERT_EQ(fin.size(), 2u);
  // Final hidden of the top layer equals the last output row.
  for (std::int64_t b = 0; b < 2; ++b) {
    for (std::int64_t j = 0; j < 5; ++j) {
      EXPECT_FLOAT_EQ(fin[1].h.at({b, j}), out.at({6, b, j}));
    }
  }
  lstm.backward(Tensor(out.shape()));
}

TEST(Lstm, GradCheckThroughTime) {
  ExecutionContext train{.training = true};
  Pcg32 rng(11);
  Lstm lstm(2, 3, 2, rng);
  Tensor x = Tensor::randn({4, 2, 2}, rng);
  Tensor dy = Tensor::randn({4, 2, 3}, rng);
  auto loss = [&] {
    Tensor y = lstm.forward(x, train);
    double l = dot_all(y, dy);
    lstm.backward(dy);
    return l;
  };
  lstm.zero_grad();
  lstm.forward(x, train);
  Tensor dx = lstm.backward(dy);
  expect_grad_matches(x, dx, loss, 1e-3f, 3e-2f);
  // Check one parameter per layer (full sweep is covered by the cell test).
  for (std::size_t l = 0; l < 2; ++l) {
    Parameter* p = lstm.cell(l).parameters()[0];
    lstm.zero_grad();
    lstm.forward(x, train);
    lstm.backward(dy);
    expect_grad_matches(p->value, p->grad, loss, 1e-3f, 3e-2f);
  }
}

// ----- incremental decoding vs the monolithic forward ------------------------

// Stream `bi`'s timestep t of x [B, T, D], as a one-stream [1, D] step.
Tensor row_slice(const Tensor& x, std::int64_t bi, std::int64_t t) {
  const std::int64_t tt = x.dim(1), d = x.dim(2);
  Tensor out({1, d});
  std::memcpy(out.data(), x.data() + (bi * tt + t) * d,
              static_cast<std::size_t>(d) * sizeof(float));
  return out;
}

bool rows_bit_equal(const Tensor& mono, std::int64_t bi, std::int64_t t,
                    const Tensor& step) {
  // mono: [B, T, D] stream bi's row t against step: [1, D], exact bits.
  const std::int64_t tt = mono.dim(1), d = mono.dim(2);
  return std::memcmp(mono.data() + (bi * tt + t) * d, step.data(),
                     static_cast<std::size_t>(d) * sizeof(float)) == 0;
}

TEST(AttentionIncremental, CausalSelfMatchesMonolithicBitExact) {
  // DESIGN.md §15: an fp32 KvState decode_self_step at position i must be
  // bit-identical to row i of the monolithic causal forward — for every
  // sequence length and thread count, and for every stream of a batched
  // forward, each decoded through its own KvState.
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const std::int64_t b : {std::int64_t{1}, std::int64_t{3}}) {
      for (const std::int64_t t : {std::int64_t{1}, std::int64_t{7},
                                   std::int64_t{48}}) {
        Pcg32 rng(100 + static_cast<std::uint64_t>(b * 100 + t));
        MultiHeadAttention mha(16, 4, rng);
        Tensor x = Tensor::randn({b, t, 16}, rng);
        ExecutionContext ec;
        Tensor mono = mha.forward(x, x, /*causal=*/true, nullptr, ec);

        for (std::int64_t bi = 0; bi < b; ++bi) {
          KvState kv;
          kv.init(t, 16);
          for (std::int64_t i = 0; i < t; ++i) {
            Tensor step = mha.decode_self_step(row_slice(x, bi, i), kv, ec);
            EXPECT_TRUE(rows_bit_equal(mono, bi, i, step))
                << "b=" << b << " stream=" << bi << " t=" << t << " i=" << i
                << " threads=" << threads;
          }
        }
      }
    }
  }
  set_num_threads(0);
}

TEST(AttentionIncremental, CrossAttentionMatchesMonolithicBitExact) {
  // Cross attention over a prefilled KvState, masking every source length
  // from one valid key to all of them.
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    Pcg32 rng(200);
    MultiHeadAttention mha(16, 2, rng);
    const std::int64_t tq = 7, tk = 5;
    Tensor q = Tensor::randn({1, tq, 16}, rng);
    Tensor enc = Tensor::randn({1, tk, 16}, rng);
    ExecutionContext ec;

    KvState kv;
    kv.init(tk, 16);
    mha.prefill_cross(enc, kv, ec);
    EXPECT_EQ(kv.len(), tk);
    for (std::int64_t valid = 1; valid <= tk; ++valid) {
      const std::vector<std::int64_t> lengths = {valid};
      Tensor mono = mha.forward(q, enc, /*causal=*/false, &lengths, ec);
      for (std::int64_t i = 0; i < tq; ++i) {
        Tensor step =
            mha.decode_cross_step(row_slice(q, 0, i), kv, valid, ec);
        EXPECT_TRUE(rows_bit_equal(mono, 0, i, step))
            << "valid=" << valid << " i=" << i << " threads=" << threads;
      }
    }
  }
  set_num_threads(0);
}

TEST(AttentionIncremental, MalformedShapesThrowTypedNotAbort) {
  ExecutionContext train{.training = true};
  // Satellite: the monolithic forward's shape aborts are typed FaultErrors
  // a serving layer can catch — including the causal Tq != Tk case.
  Pcg32 rng(7);
  MultiHeadAttention mha(8, 2, rng);
  Tensor q = Tensor::randn({1, 3, 8}, rng);
  Tensor kv = Tensor::randn({1, 5, 8}, rng);
  try {
    mha.forward(q, kv, /*causal=*/true, nullptr, train);
    FAIL() << "causal Tq != Tk must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
  }
  Tensor flat = Tensor::randn({3, 8}, rng);
  EXPECT_THROW(mha.forward(flat, flat, false, nullptr, train), FaultError);
  std::vector<std::int64_t> bad_lengths = {1, 2};  // batch is 1
  EXPECT_THROW(mha.forward(q, q, false, &bad_lengths, train), FaultError);

  // The decode steps take one stream: two rows (or two sources) are
  // malformed, not a batch.
  ExecutionContext ec;
  KvState cache;
  cache.init(8, 8);
  Tensor two_rows = Tensor::randn({2, 8}, rng);
  EXPECT_THROW(mha.decode_self_step(two_rows, cache, ec), FaultError);
  EXPECT_THROW(mha.prefill_cross(Tensor::randn({2, 5, 8}, rng), cache, ec),
               FaultError);
  mha.prefill_cross(kv, cache, ec);
  EXPECT_THROW(mha.decode_cross_step(two_rows, cache, 5, ec), FaultError);
}

// ----- KvState ---------------------------------------------------------------

KvQuantConfig af8_quant(float k_range, float v_range) {
  KvQuantConfig q;
  q.k_codec = std::shared_ptr<const FormatCodec>(
      make_codec(FormatKind::kAdaptivFloat, 8, k_range));
  q.v_codec = std::shared_ptr<const FormatCodec>(
      make_codec(FormatKind::kAdaptivFloat, 8, v_range));
  return q;
}

TEST(KvCache, QuantizedRowsRoundTripThroughCodec) {
  // Every value read back from a quantized KvState must be exactly
  // decode(encode(x)) through the codec — the same quantization the
  // paper's accelerator applies to stored activations.
  KvQuantConfig q = af8_quant(2.0f, 3.0f);
  KvState kv;
  kv.init(4, 8, q);
  EXPECT_TRUE(kv.quantized());

  Pcg32 rng(31);
  std::vector<Tensor> ks, vs;
  for (int step = 0; step < 4; ++step) {
    ks.push_back(Tensor::randn({1, 8}, rng));
    vs.push_back(Tensor::randn({1, 8}, rng));
    kv.append(ks.back(), vs.back(), active_backend());
  }
  EXPECT_EQ(kv.len(), 4);

  for (std::int64_t j = 0; j < 4; ++j) {
    float k_row[8], v_row[8];
    kv.read_row(j, k_row, v_row);
    for (std::int64_t c = 0; c < 8; ++c) {
      const float k_in = ks[static_cast<std::size_t>(j)][c];
      const float v_in = vs[static_cast<std::size_t>(j)][c];
      EXPECT_EQ(k_row[c], q.k_codec->decode(q.k_codec->encode(k_in)));
      EXPECT_EQ(v_row[c], q.v_codec->decode(q.v_codec->encode(v_in)));
    }
  }
  // 8-bit codes: 1 byte per element, K and V.
  EXPECT_EQ(kv.bytes_per_step(), static_cast<std::size_t>(2 * 8));
}

TEST(KvCache, CapacityExhaustionThrowsTypedNeverAborts) {
  KvState kv;
  kv.init(2, 4);
  Tensor step({1, 4});
  kv.append(step, step, active_backend());
  kv.append(step, step, active_backend());
  try {
    kv.append(step, step, active_backend());
    FAIL() << "append past capacity must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos);
  }
  // The cache stays usable: reset and decode again.
  kv.reset();
  EXPECT_EQ(kv.len(), 0);
  kv.append(step, step, active_backend());
  EXPECT_EQ(kv.len(), 1);
}

// The three storage modes the region layout serves: fp32 (32-bit codes),
// AF8 (byte-aligned codes) and a 6-bit codec, whose rows end mid-byte for
// the odd widths the tests below use.
struct KvMode {
  const char* name;
  KvQuantConfig quant;
  int bits;
};

std::vector<KvMode> kv_modes() {
  KvQuantConfig af6;
  af6.k_codec = std::shared_ptr<const FormatCodec>(
      make_codec(FormatKind::kAdaptivFloat, 6, 2.0f));
  af6.v_codec = std::shared_ptr<const FormatCodec>(
      make_codec(FormatKind::kAdaptivFloat, 6, 3.0f));
  return {{"fp32", KvQuantConfig{}, 32},
          {"af8", af8_quant(2.0f, 3.0f), 8},
          {"af6", af6, 6}};
}

// What a mode's read_row() must return for an appended value.
float kv_stored(const std::shared_ptr<const FormatCodec>& codec, float x) {
  return codec ? codec->decode(codec->encode(x)) : x;
}

// Checks `kv` holds the [1, D] rows ks[j]/vs[j] for every cached j.
void expect_rows(const KvState& kv, const KvQuantConfig& q,
                 const std::vector<Tensor>& ks,
                 const std::vector<Tensor>& vs) {
  std::vector<float> k_row(static_cast<std::size_t>(kv.dim()));
  std::vector<float> v_row(static_cast<std::size_t>(kv.dim()));
  for (std::int64_t j = 0; j < kv.len(); ++j) {
    const Tensor& k = ks[static_cast<std::size_t>(j)];
    const Tensor& v = vs[static_cast<std::size_t>(j)];
    kv.read_row(j, k_row.data(), v_row.data());
    for (std::int64_t c = 0; c < kv.dim(); ++c) {
      EXPECT_EQ(k_row[static_cast<std::size_t>(c)], kv_stored(q.k_codec, k[c]))
          << "step " << j << " col " << c;
      EXPECT_EQ(v_row[static_cast<std::size_t>(c)], kv_stored(q.v_codec, v[c]))
          << "step " << j << " col " << c;
    }
  }
}

TEST(KvCache, ResetThenReappendOverwritesStaleCodes) {
  // Appends after reset() write over the previous history's codes in
  // place; no zeroing pass runs, so any bit the writer fails to clear
  // shows up in the re-read rows. The first fill saturates every code
  // (most bits set); the second writes zeros (the all-zero code) and
  // small randoms, each row straddling byte boundaries at 6 bits.
  for (const KvMode& mode : kv_modes()) {
    SCOPED_TRACE(mode.name);
    KvState kv;
    kv.init(5, 5, mode.quant);
    Tensor full({1, 5});
    for (std::int64_t i = 0; i < full.numel(); ++i) full[i] = -1e3f;
    for (int step = 0; step < 5; ++step) {
      kv.append(full, full, active_backend());
    }
    kv.reset();
    EXPECT_EQ(kv.len(), 0);
    EXPECT_EQ(kv.payload_bytes(), 0u);

    Pcg32 rng(43);
    std::vector<Tensor> ks, vs;
    for (int step = 0; step < 4; ++step) {
      ks.push_back(step % 2 == 0 ? Tensor({1, 5})
                                 : Tensor::randn({1, 5}, rng, 0.1f));
      vs.push_back(step % 2 == 0 ? Tensor::randn({1, 5}, rng, 0.1f)
                                 : Tensor({1, 5}));
      kv.append(ks.back(), vs.back(), active_backend());
    }
    expect_rows(kv, mode.quant, ks, vs);
  }
}

TEST(KvCache, MisuseThrowsTypedMalformed) {
  KvState kv;
  EXPECT_THROW(kv.init(0, 8), FaultError);   // no capacity
  kv.init(4, 8);
  Tensor two({2, 8});
  // Two rows into one stream.
  EXPECT_THROW(kv.append(two, two, active_backend()), FaultError);
  Tensor k({1, 8});
  Tensor v_bad({1, 4});
  // Width mismatch.
  EXPECT_THROW(kv.append(k, v_bad, active_backend()), FaultError);

  // Half-configured quantization (K codec only) is malformed.
  KvQuantConfig half;
  half.k_codec = std::shared_ptr<const FormatCodec>(
      make_codec(FormatKind::kAdaptivFloat, 8, 1.0f));
  KvState kv2;
  EXPECT_THROW(kv2.init(4, 8, half), FaultError);
}

TEST(KvCache, AppendedLaneBytesBackendInvariant) {
  // Rows of every format encode through the backend's encode entry; the
  // cached bytes after appends (and a block prefill) must not depend on
  // which backend ran. D = 70 spans a full 64-code chunk plus a ragged one,
  // and the rows carry every encode edge: +-0, NaN, +-inf, tiny and huge.
  const KernelBackend* avx2 = avx2_backend();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2+FMA on this machine";
  const std::int64_t d = 70, steps = 5;
  Pcg32 rng(78);
  std::vector<Tensor> rows;
  for (std::int64_t t = 0; t < steps; ++t) {
    rows.push_back(Tensor::randn({1, d}, rng, 1.5f));
  }
  const float edges[] = {0.0f, -0.0f, std::nanf(""),
                         std::numeric_limits<float>::infinity(),
                         -std::numeric_limits<float>::infinity(), 1e-30f,
                         -1e-30f, 1e30f, -1e30f};
  for (std::size_t i = 0; i < std::size(edges); ++i) {
    rows[i % steps][static_cast<std::int64_t>(i * 7)] = edges[i];
  }
  Tensor block({steps, d});
  for (std::int64_t t = 0; t < steps; ++t) {
    std::memcpy(block.data() + t * d, rows[static_cast<std::size_t>(t)].data(),
                static_cast<std::size_t>(d) * sizeof(float));
  }
  std::vector<std::pair<FormatKind, int>> formats;
  for (const FormatKind kind : all_format_kinds()) {
    for (const int bits : {4, 6, 8}) formats.emplace_back(kind, bits);
  }
  formats.emplace_back(FormatKind::kAdaptivFloat, 12);
  for (const auto& [kind, bits] : formats) {
    SCOPED_TRACE(format_kind_name(kind) + "/" + std::to_string(bits));
    KvQuantConfig q;
    q.k_codec = std::shared_ptr<const FormatCodec>(
        make_codec(kind, bits, 2.0f));
    q.v_codec = std::shared_ptr<const FormatCodec>(
        make_codec(kind, bits, 3.0f));
    ASSERT_NE(q.k_codec->encode_view(), nullptr);
    KvState by_backend[2], blocks[2];
    const KernelBackend* backends[2] = {&scalar_backend(), avx2};
    for (int w = 0; w < 2; ++w) {
      by_backend[w].init(steps, d, q);
      for (const Tensor& r : rows) by_backend[w].append(r, r, *backends[w]);
      blocks[w].init(steps, d, q);
      blocks[w].append_block(block, block, *backends[w]);
    }
    for (KvState* pair : {by_backend, blocks}) {
      const KvState::Operands s = pair[0].operands(), v = pair[1].operands();
      ASSERT_EQ(s.k.nbytes, v.k.nbytes);
      EXPECT_EQ(std::memcmp(s.k.bytes, v.k.bytes, s.k.nbytes), 0) << "K";
      EXPECT_EQ(std::memcmp(s.v.bytes, v.v.bytes, s.v.nbytes), 0) << "V";
    }
    // And the codes are the codec's own encode.
    expect_rows(by_backend[1], q, rows, rows);
  }
}

TEST(KvCache, AppendBlockMatchesPerStepAppends) {
  // prefill_cross uses append_block; it must land rows exactly where
  // per-step appends would, in every storage mode. T=3, D=5 (a 30-bit row
  // at 6 bits), with capacity 4 so the region is longer than T rows.
  Pcg32 rng(77);
  Tensor k({3, 5});  // [T, D]
  Tensor v({3, 5});
  for (std::int64_t i = 0; i < k.numel(); ++i) {
    k[i] = rng.uniform(-1.0f, 1.0f);
    v[i] = rng.uniform(-1.0f, 1.0f);
  }
  for (const KvMode& mode : kv_modes()) {
    SCOPED_TRACE(mode.name);
    KvState block;
    block.init(4, 5, mode.quant);
    block.append_block(k, v, active_backend());

    KvState steps;
    steps.init(4, 5, mode.quant);
    std::vector<Tensor> ks, vs;
    for (std::int64_t t = 0; t < 3; ++t) {
      Tensor kt({1, 5}), vt({1, 5});
      for (std::int64_t c = 0; c < 5; ++c) {
        kt[c] = k.at({t, c});
        vt[c] = v.at({t, c});
      }
      steps.append(kt, vt, active_backend());
      ks.push_back(kt);
      vs.push_back(vt);
    }

    ASSERT_EQ(block.len(), steps.len());
    expect_rows(block, mode.quant, ks, vs);
    expect_rows(steps, mode.quant, ks, vs);
    // K+V, 3 rows of 5 codes each, rounded up to whole bytes.
    const std::size_t per_step = mode.bits == 32 ? 40
                                 : mode.bits == 8 ? 10
                                                  : 8;  // ceil(30/8)=4
    const std::size_t payload = mode.bits == 32 ? 120
                                : mode.bits == 8 ? 30
                                                 : 24;  // ceil(90/8)=12
    for (const KvState* kv : {&block, &steps}) {
      EXPECT_EQ(kv->bytes_per_step(), per_step);
      EXPECT_EQ(kv->payload_bytes(), payload);
    }
  }
}

// The attend core as it ran before decode was fused into it: K/V rows
// already decoded to fp32, row j at k_rows + j * stride.
void decode_then_attend(const float* q, const float* k_rows,
                        const float* v_rows, std::int64_t stride,
                        std::int64_t len, std::int64_t visible,
                        std::int64_t d_head, float inv_sqrt_dh, float* srow,
                        float* crow) {
  for (std::int64_t j = 0; j < len; ++j) {
    if (j >= visible) {
      srow[j] = kAttendMaskValue;
      continue;
    }
    double dot = 0;
    for (std::int64_t d = 0; d < d_head; ++d) {
      dot += double(q[d]) * k_rows[j * stride + d];
    }
    srow[j] = static_cast<float>(dot) * inv_sqrt_dh;
  }
  softmax_row_inplace(srow, len);
  for (std::int64_t j = 0; j < len; ++j) {
    const float a = srow[j];
    if (a == 0.0f) continue;
    for (std::int64_t d = 0; d < d_head; ++d) {
      crow[d] += a * v_rows[j * stride + d];
    }
  }
}

TEST(KvCache, FusedAttendMatchesDecodeThenAttend) {
  // attend_row decodes packed codes through the codec's table inside the
  // kernel. Decoding every cached value through codec->decode first and
  // attending over those fp32 rows must give the same bits, on every
  // backend: the table holds codec->decode's own outputs, and the fused
  // kernel keeps the accumulation order. D = 40 as 5 heads of 8 and as
  // 2 heads of 20 (the AVX2 mix's 16-wide block plus a d % 8 tail); 37
  // keys, all visible or the first 29.
  std::vector<const KernelBackend*> backends = {&scalar_backend()};
  if (avx2_backend() != nullptr) backends.push_back(avx2_backend());
  KvQuantConfig af4;
  af4.k_codec = std::shared_ptr<const FormatCodec>(
      make_codec(FormatKind::kAdaptivFloat, 4, 2.0f));
  af4.v_codec = std::shared_ptr<const FormatCodec>(
      make_codec(FormatKind::kAdaptivFloat, 4, 3.0f));
  std::vector<KvMode> modes = kv_modes();
  modes.push_back({"af4", af4, 4});
  constexpr std::int64_t kD = 40, kLen = 37;
  for (const KvMode& mode : modes) {
    SCOPED_TRACE(mode.name);
    KvState kv;
    kv.init(40, kD, mode.quant);
    Pcg32 rng(83);
    Tensor dec_k({kLen, kD}), dec_v({kLen, kD});  // decoded history
    for (std::int64_t j = 0; j < kLen; ++j) {
      Tensor k = Tensor::randn({1, kD}, rng);
      Tensor v = Tensor::randn({1, kD}, rng);
      kv.append(k, v, active_backend());
      for (std::int64_t c = 0; c < kD; ++c) {
        dec_k.at({j, c}) = kv_stored(mode.quant.k_codec, k[c]);
        dec_v.at({j, c}) = kv_stored(mode.quant.v_codec, v[c]);
      }
    }
    const Tensor q = Tensor::randn({1, kD}, rng);
    for (const KernelBackend* be : backends) {
      SCOPED_TRACE(be->name);
      for (const std::int64_t heads : {5, 2}) {
        const std::int64_t d_head = kD / heads;
        const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(d_head));
        for (const std::int64_t visible : {kLen, std::int64_t{29}}) {
          KvState::Operands ops = kv.operands();
          for (std::int64_t h = 0; h < heads; ++h) {
            const std::int64_t col = h * d_head;
            std::vector<float> ref_s(kLen), got_s(kLen);
            std::vector<float> ref_c(static_cast<std::size_t>(d_head));
            std::vector<float> got_c(ref_c.size());
            decode_then_attend(q.data() + col, dec_k.data() + col,
                               dec_v.data() + col, kD, kLen, visible, d_head,
                               inv_sqrt_dh, ref_s.data(), ref_c.data());
            ops.k.col = ops.v.col = col;
            be->attend_row(q.data() + col, ops.k, ops.v, kLen, visible,
                           d_head, inv_sqrt_dh, got_s.data(), got_c.data());
            EXPECT_EQ(0, std::memcmp(ref_s.data(), got_s.data(),
                                     ref_s.size() * sizeof(float)))
                << "heads " << heads << " visible " << visible << " head "
                << h;
            EXPECT_EQ(0, std::memcmp(ref_c.data(), got_c.data(),
                                     ref_c.size() * sizeof(float)))
                << "heads " << heads << " visible " << visible << " head "
                << h;
          }
        }
      }
    }
  }
}

TEST(Lstm, LongSequenceGradientsStayFinite) {
  ExecutionContext train{.training = true};
  Pcg32 rng(12);
  Lstm lstm(4, 8, 1, rng);
  Tensor x = Tensor::randn({50, 1, 4}, rng);
  Tensor y = lstm.forward(x, train);
  Tensor dy = Tensor::randn(y.shape(), rng);
  Tensor dx = lstm.backward(dy);
  for (std::int64_t i = 0; i < dx.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(dx[i]));
  }
}

}  // namespace
}  // namespace af
