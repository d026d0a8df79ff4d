#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

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

Tensor row_slice(const Tensor& x, std::int64_t t) {
  // x: [B, T, D] -> [B, D] at timestep t (owned copy).
  const std::int64_t b = x.dim(0), tt = x.dim(1), d = x.dim(2);
  Tensor out({b, d});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    std::memcpy(out.data() + bi * d, x.data() + (bi * tt + t) * d,
                static_cast<std::size_t>(d) * sizeof(float));
  }
  return out;
}

bool rows_bit_equal(const Tensor& mono, std::int64_t t, const Tensor& step) {
  // mono: [B, T, D] row t against step: [B, D], exact bits.
  const std::int64_t b = mono.dim(0), tt = mono.dim(1), d = mono.dim(2);
  for (std::int64_t bi = 0; bi < b; ++bi) {
    if (std::memcmp(mono.data() + (bi * tt + t) * d, step.data() + bi * d,
                    static_cast<std::size_t>(d) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(AttentionIncremental, CausalSelfMatchesMonolithicBitExact) {
  // DESIGN.md §15: an fp32 KvState decode_self_step at position i must be
  // bit-identical to row i of the monolithic causal forward — for every
  // batch size, sequence length and thread count.
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

        KvState kv;
        kv.init(b, t, 16);
        for (std::int64_t i = 0; i < t; ++i) {
          Tensor step = mha.decode_self_step(row_slice(x, i), kv, ec);
          EXPECT_TRUE(rows_bit_equal(mono, i, step))
              << "b=" << b << " t=" << t << " i=" << i
              << " threads=" << threads;
        }
      }
    }
  }
  set_num_threads(0);
}

TEST(AttentionIncremental, CrossAttentionMatchesMonolithicBitExact) {
  // Cross attention over a prefilled KvState, with ragged source lengths.
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const std::int64_t b : {std::int64_t{1}, std::int64_t{3}}) {
      Pcg32 rng(200 + static_cast<std::uint64_t>(b));
      MultiHeadAttention mha(16, 2, rng);
      const std::int64_t tq = 7, tk = 5;
      Tensor q = Tensor::randn({b, tq, 16}, rng);
      Tensor enc = Tensor::randn({b, tk, 16}, rng);
      std::vector<std::int64_t> lengths;
      for (std::int64_t bi = 0; bi < b; ++bi) lengths.push_back(3 + bi % 3);

      ExecutionContext ec;
      Tensor mono = mha.forward(q, enc, /*causal=*/false, &lengths, ec);

      KvState kv;
      kv.init(b, tk, 16);
      mha.prefill_cross(enc, kv, ec);
      EXPECT_EQ(kv.len(), tk);
      for (std::int64_t i = 0; i < tq; ++i) {
        Tensor step = mha.decode_cross_step(row_slice(q, i), kv, &lengths, ec);
        EXPECT_TRUE(rows_bit_equal(mono, i, step))
            << "b=" << b << " i=" << i << " threads=" << threads;
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
  // decode(encode(x)) through the lane's codec — the same quantization the
  // paper's accelerator applies to stored activations.
  KvQuantConfig q = af8_quant(2.0f, 3.0f);
  KvState kv;
  kv.init(2, 4, 8, q);
  EXPECT_TRUE(kv.quantized());

  Pcg32 rng(31);
  std::vector<Tensor> ks, vs;
  for (int step = 0; step < 4; ++step) {
    ks.push_back(Tensor::randn({2, 8}, rng));
    vs.push_back(Tensor::randn({2, 8}, rng));
    kv.append(ks.back(), vs.back());
  }
  EXPECT_EQ(kv.len(), 4);

  const KernelBackend& be = active_backend();
  for (std::int64_t bi = 0; bi < 2; ++bi) {
    KvState::Rows rows = kv.rows(bi, be);
    for (std::int64_t j = 0; j < 4; ++j) {
      for (std::int64_t c = 0; c < 8; ++c) {
        const float k_in = ks[static_cast<std::size_t>(j)].at({bi, c});
        const float v_in = vs[static_cast<std::size_t>(j)].at({bi, c});
        EXPECT_EQ(rows.k[j * rows.stride + c],
                  q.k_codec->decode(q.k_codec->encode(k_in)));
        EXPECT_EQ(rows.v[j * rows.stride + c],
                  q.v_codec->decode(q.v_codec->encode(v_in)));
      }
    }
  }
  // 8-bit codes: 1 byte per element, K and V, across both lanes.
  EXPECT_EQ(kv.bytes_per_step(), static_cast<std::size_t>(2 * 2 * 8));
}

TEST(KvCache, CapacityExhaustionThrowsTypedNeverAborts) {
  KvState kv;
  kv.init(1, 2, 4);
  Tensor step({1, 4});
  kv.append(step, step);
  kv.append(step, step);
  try {
    kv.append(step, step);
    FAIL() << "append past capacity must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos);
  }
  // The cache stays usable: reset and decode again.
  kv.reset();
  EXPECT_EQ(kv.len(), 0);
  kv.append(step, step);
  EXPECT_EQ(kv.len(), 1);
}

TEST(KvCache, ReorderGathersLaneHistories) {
  KvState kv;
  kv.init(3, 4, 2);
  for (int step = 0; step < 2; ++step) {
    Tensor k({3, 2}), v({3, 2});
    for (std::int64_t bi = 0; bi < 3; ++bi) {
      k.at({bi, 0}) = static_cast<float>(10 * bi + step);
      k.at({bi, 1}) = 0.5f;
      v.at({bi, 0}) = static_cast<float>(100 * bi + step);
      v.at({bi, 1}) = -0.5f;
    }
    kv.append(k, v);
  }
  kv.reorder({2, 2, 0});
  const KernelBackend& be = active_backend();
  EXPECT_EQ(kv.rows(0, be).k[0], 20.0f);  // lane 0 now carries old lane 2
  EXPECT_EQ(kv.rows(1, be).k[2], 21.0f);  // step 1 of old lane 2
  EXPECT_EQ(kv.rows(2, be).v[0], 0.0f);   // old lane 0
}

TEST(KvCache, MisuseThrowsTypedMalformed) {
  KvState kv;
  EXPECT_THROW(kv.init(0, 4, 8), FaultError);   // no lanes
  EXPECT_THROW(kv.init(1, 0, 8), FaultError);   // no capacity
  kv.init(2, 4, 8);
  Tensor wrong({1, 8});
  EXPECT_THROW(kv.append(wrong, wrong), FaultError);  // lane count mismatch
  Tensor k({2, 8});
  Tensor v_bad({2, 4});
  EXPECT_THROW(kv.append(k, v_bad), FaultError);      // width mismatch

  // Half-configured quantization (K codec only) is malformed.
  KvQuantConfig half;
  half.k_codec = std::shared_ptr<const FormatCodec>(
      make_codec(FormatKind::kAdaptivFloat, 8, 1.0f));
  KvState kv2;
  EXPECT_THROW(kv2.init(1, 4, 8, half), FaultError);
}

TEST(KvCache, AppendBlockMatchesPerStepAppends) {
  // prefill_cross uses append_block; it must land rows exactly where
  // per-step appends would.
  Pcg32 rng(77);
  Tensor k({2 * 3, 4});  // [B*T, D] with B=2, T=3
  Tensor v({2 * 3, 4});
  for (std::int64_t i = 0; i < k.numel(); ++i) {
    k[i] = rng.uniform(-1.0f, 1.0f);
    v[i] = rng.uniform(-1.0f, 1.0f);
  }
  KvState block;
  block.init(2, 3, 4);
  block.append_block(k, v, 3);

  KvState steps;
  steps.init(2, 3, 4);
  for (std::int64_t t = 0; t < 3; ++t) {
    Tensor ks({2, 4}), vs({2, 4});
    for (std::int64_t bi = 0; bi < 2; ++bi) {
      for (std::int64_t c = 0; c < 4; ++c) {
        ks.at({bi, c}) = k.at({bi * 3 + t, c});
        vs.at({bi, c}) = v.at({bi * 3 + t, c});
      }
    }
    steps.append(ks, vs);
  }

  const KernelBackend& be = active_backend();
  for (std::int64_t bi = 0; bi < 2; ++bi) {
    KvState::Rows a = block.rows(bi, be);
    KvState::Rows b = steps.rows(bi, be);
    for (std::int64_t j = 0; j < 3; ++j) {
      for (std::int64_t c = 0; c < 4; ++c) {
        EXPECT_EQ(a.k[j * a.stride + c], b.k[j * b.stride + c]);
        EXPECT_EQ(a.v[j * a.stride + c], b.v[j * b.stride + c]);
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
