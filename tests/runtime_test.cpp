// Inference runtime: Arena bump allocation, arena-backed Tensors,
// ExecutionContext dispatch bit-equality against the training-context
// forward (the cache-pushing, heap-allocating comparator), and
// InferenceSession zero-steady-state-allocation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/models/quantized_mlp.hpp"
#include "src/models/resnet.hpp"
#include "src/models/seq2seq.hpp"
#include "src/models/trainer.hpp"
#include "src/models/transformer.hpp"
#include "src/kernels/gemm_packed.hpp"
#include "src/runtime/batch.hpp"
#include "src/runtime/decode.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/attention.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/embedding.hpp"
#include "src/nn/layernorm.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/lstm.hpp"
#include "src/nn/quant.hpp"
#include "src/nn/quantized_linear.hpp"
#include "src/numerics/registry.hpp"
#include "src/resilience/guard.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/runtime/session.hpp"
#include "src/serve/server.hpp"
#include "src/tensor/arena.hpp"
#include "src/tensor/ops.hpp"
#include "src/tensor/tensor.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace af {
namespace {

Tensor random_tensor(std::initializer_list<std::int64_t> shape,
                     std::uint64_t seed, float scale = 1.0f) {
  Pcg32 rng(seed);
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.uniform(-scale, scale);
  }
  return t;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  if (a.numel() == 0) return true;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * 4) == 0;
}

/// Restores the ambient env-resolved thread count on scope exit.
struct ThreadCountRestorer {
  ~ThreadCountRestorer() { set_num_threads(0); }
};

// ----- Arena ----------------------------------------------------------------

TEST(Arena, AllocationsAre64ByteAligned) {
  Arena arena;
  for (std::int64_t n : {1, 3, 17, 100, 4096}) {
    float* p = arena.alloc(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << "n=" << n;
  }
  EXPECT_EQ(arena.stats().allocs, 5);
}

TEST(Arena, ZeroSizeAllocReturnsNonNull) {
  Arena arena;
  EXPECT_NE(arena.alloc(0), nullptr);
}

TEST(Arena, ResetReusesTheSameBytes) {
  Arena arena;
  float* a = arena.alloc(128);
  arena.alloc(64);
  arena.reset();
  float* b = arena.alloc(128);
  EXPECT_EQ(a, b) << "reset must rewind, not reallocate";
  EXPECT_EQ(arena.stats().resets, 1);
}

TEST(Arena, GrowsWhenExhaustedAndCountsGrowths) {
  Arena arena;
  const std::int64_t before = arena.stats().chunk_growths;
  // Far past any single chunk's initial capacity.
  for (int i = 0; i < 64; ++i) arena.alloc(1 << 16);
  EXPECT_GT(arena.stats().chunk_growths, before);
  EXPECT_GE(arena.stats().reserved_bytes, arena.stats().used_bytes);
}

TEST(Arena, ConsolidateCollapsesToPeakSizedBlock) {
  Arena arena;
  for (int i = 0; i < 8; ++i) arena.alloc(1 << 16);
  const std::int64_t peak = arena.stats().peak_bytes;
  arena.consolidate();
  EXPECT_EQ(arena.stats().used_bytes, 0);
  EXPECT_GE(arena.stats().reserved_bytes, peak);
  // A full peak-sized cycle must now fit without growing.
  const std::int64_t growths = arena.stats().chunk_growths;
  for (int i = 0; i < 8; ++i) arena.alloc(1 << 16);
  EXPECT_EQ(arena.stats().chunk_growths, growths);
}

TEST(Arena, StatsTrackUsedAndPeak) {
  Arena arena;
  arena.alloc(16);
  const std::int64_t used1 = arena.stats().used_bytes;
  EXPECT_GE(used1, 16 * 4);
  arena.alloc(16);
  EXPECT_GT(arena.stats().used_bytes, used1);
  const std::int64_t peak = arena.stats().peak_bytes;
  EXPECT_EQ(peak, arena.stats().used_bytes);
  arena.reset();
  EXPECT_EQ(arena.stats().used_bytes, 0);
  EXPECT_EQ(arena.stats().peak_bytes, peak);
}

// ----- Tensor-in-arena ------------------------------------------------------

TEST(ArenaTensor, ScopeDivertsTensorStorage) {
  Arena arena;
  ArenaScope scope(&arena);
  Tensor t({4, 4});
  EXPECT_TRUE(t.arena_backed());
  EXPECT_GT(arena.stats().allocs, 0);
}

TEST(ArenaTensor, NoHeapAllocsUnderScope) {
  Arena arena;
  // Warm the arena so the chunk itself is pre-grown.
  { ArenaScope scope(&arena); Tensor warm({32, 32}); (void)warm; }
  arena.reset();
  const std::int64_t before = tensor_heap_allocs();
  {
    ArenaScope scope(&arena);
    Tensor a({32, 32});
    Tensor b({16, 8});
    a.fill(1.0f);
    b.fill(2.0f);
  }
  EXPECT_EQ(tensor_heap_allocs(), before);
}

TEST(ArenaTensor, NullScopeSuspendsArena) {
  Arena arena;
  ArenaScope scope(&arena);
  {
    ArenaScope suspend(nullptr);
    Tensor t({8});
    EXPECT_FALSE(t.arena_backed());
  }
  Tensor t({8});
  EXPECT_TRUE(t.arena_backed());
}

TEST(ArenaTensor, ScopeRestoresPreviousArenaOnExit) {
  EXPECT_EQ(ArenaScope::current(), nullptr);
  Arena outer_arena;
  ArenaScope outer(&outer_arena);
  {
    Arena inner_arena;
    ArenaScope inner(&inner_arena);
    EXPECT_EQ(ArenaScope::current(), &inner_arena);
  }
  EXPECT_EQ(ArenaScope::current(), &outer_arena);
}

TEST(ArenaTensor, CopyFromEscapesTheArena) {
  Arena arena;
  Tensor persistent;
  {
    ArenaScope scope(&arena);
    Tensor t = random_tensor({3, 5}, 77);
    persistent.copy_from(t);
  }
  Tensor expected = random_tensor({3, 5}, 77);
  arena.reset();  // invalidates arena pointers; the copy must survive
  EXPECT_FALSE(persistent.arena_backed());
  EXPECT_TRUE(bit_equal(persistent, expected));
}

// ----- Context dispatch bit-equality ----------------------------------------
//
// The reference arm is a training-context forward followed by clear_cache():
// the unplanned, heap-allocating, cache-pushing path. Inference contexts
// must reproduce its bits under every resilience policy and thread count.

struct TinyMlp {
  Linear fc1;
  ReLU relu;
  Linear fc2;

  explicit TinyMlp(std::uint64_t seed)
      : fc1(make_fc1(seed)), fc2(make_fc2(seed)) {}

  static Linear make_fc1(std::uint64_t seed) {
    Pcg32 rng(seed, 1);
    return Linear(24, 32, rng, true, "fc1");
  }
  static Linear make_fc2(std::uint64_t seed) {
    Pcg32 rng(seed, 2);
    return Linear(32, 10, rng, true, "fc2");
  }

  Tensor forward_reference(const Tensor& x) {
    ExecutionContext train{.training = true};
    Tensor y = forward(x, train);
    fc1.clear_cache();
    relu.clear_cache();
    fc2.clear_cache();
    return y;
  }
  Tensor forward(const Tensor& x, ExecutionContext& ctx) {
    return fc2.forward(relu.forward(fc1.forward(x, ctx), ctx), ctx);
  }
  std::int64_t cache_depth() const {
    return fc1.cache_depth() + relu.cache_depth() + fc2.cache_depth();
  }
};

TEST(ContextDispatch, MlpMatchesLegacyAcrossPoliciesAndThreads) {
  ThreadCountRestorer restore;
  TinyMlp model(31);
  Tensor x = random_tensor({6, 24}, 32);
  set_num_threads(1);
  Tensor golden = model.forward_reference(x);

  LayerGuard guard("mlp", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  const ResiliencePolicy policies[] = {
      ResiliencePolicy::kNone, ResiliencePolicy::kGuard,
      ResiliencePolicy::kAbft, ResiliencePolicy::kAbftGuard};
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    ASSERT_TRUE(bit_equal(model.forward_reference(x), golden));
    for (ResiliencePolicy policy : policies) {
      ExecutionContext ctx;
      ctx.resilience = policy;
      ctx.guard = &guard;
      ResilienceReport report;
      ctx.report = &report;
      Tensor y = model.forward(x, ctx);
      EXPECT_TRUE(bit_equal(y, golden))
          << "threads=" << threads << " policy=" << static_cast<int>(policy);
      EXPECT_EQ(model.cache_depth(), 0);
    }
  }
}

TEST(ContextDispatch, QuantizedLinearNumericPolicies) {
  ThreadCountRestorer restore;
  Pcg32 rng(41);
  Linear fc(20, 12, rng);
  QuantizedLinear qfc(fc, 8, 3);
  Tensor x = random_tensor({5, 20}, 42);
  set_num_threads(1);
  Tensor golden_lut = matmul_packed(x, qfc.packed_weight());  // fused GEMM
  add_row_bias_inplace(golden_lut, qfc.bias());
  Tensor golden_fp32 = matmul(x, qfc.decoded_weight(), false, true);
  add_row_bias_inplace(golden_fp32, qfc.bias());

  for (int threads : {1, 4}) {
    set_num_threads(threads);
    ExecutionContext lut_ctx;  // defaults: kNone on the active backend
    EXPECT_TRUE(bit_equal(qfc.forward(x, lut_ctx), golden_lut));

    // ABFT checks the packed product, so a clean protected forward has the
    // LUT forward's bits on every backend ...
    ExecutionContext abft_ctx;
    abft_ctx.resilience = ResiliencePolicy::kAbft;
    ResilienceReport report;
    abft_ctx.report = &report;
    EXPECT_TRUE(bit_equal(qfc.forward(x, abft_ctx), golden_lut));
    EXPECT_EQ(report.abft.detected, 0);
    EXPECT_GT(report.abft.multiplies, 0);
    // ... and the fp32 bits under the scalar backend, where the packed
    // GEMM reproduces matmul over the decoded weights.
    ScopedKernelBackend pin(scalar_backend());
    EXPECT_TRUE(bit_equal(qfc.forward(x, abft_ctx), golden_fp32));
    EXPECT_EQ(report.abft.detected, 0);
  }
}

TEST(ContextDispatch, LstmMatchesLegacyAcrossThreads) {
  ThreadCountRestorer restore;
  Pcg32 rng(51);
  Lstm lstm(10, 14, 2, rng);
  Tensor x = random_tensor({5, 3, 10}, 52);
  set_num_threads(1);
  ExecutionContext train{.training = true};
  Tensor golden = lstm.forward(x, train);
  lstm.clear_cache();

  LayerGuard guard("lstm", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    for (ResiliencePolicy policy :
         {ResiliencePolicy::kNone, ResiliencePolicy::kGuard,
          ResiliencePolicy::kAbft}) {
      ExecutionContext ctx;
      ctx.resilience = policy;
      ctx.guard = &guard;
      Tensor y = lstm.forward(x, ctx);
      EXPECT_TRUE(bit_equal(y, golden))
          << "threads=" << threads << " policy=" << static_cast<int>(policy);
      EXPECT_EQ(lstm.cache_depth(), 0);
    }
  }
}

TEST(ContextDispatch, Conv2dAbftMatchesPlainAcrossThreads) {
  ThreadCountRestorer restore;
  Pcg32 rng(61);
  Conv2d conv(3, 5, 3, 1, 1, rng);
  Tensor x = random_tensor({4, 3, 8, 8}, 62);
  set_num_threads(1);
  ExecutionContext train{.training = true};
  Tensor golden = conv.forward(x, train);
  conv.clear_cache();

  for (int threads : {1, 4}) {
    set_num_threads(threads);
    ExecutionContext ctx;
    ctx.resilience = ResiliencePolicy::kAbft;
    ResilienceReport report;
    ctx.report = &report;
    Tensor y = conv.forward(x, ctx);
    EXPECT_TRUE(bit_equal(y, golden)) << "threads=" << threads;
    EXPECT_EQ(conv.cache_depth(), 0);
    EXPECT_EQ(report.abft.detected, 0);
    EXPECT_EQ(report.abft.multiplies, x.dim(0));  // one GEMM per sample
  }
}

TEST(ContextDispatch, Seq2SeqGreedyDecodeMatchesLegacy) {
  ThreadCountRestorer restore;
  Seq2SeqConfig cfg;
  cfg.feature_dim = 8;
  cfg.hidden = 16;
  cfg.enc_layers = 2;
  cfg.vocab = 12;
  cfg.max_decode_len = 10;
  Seq2SeqAttn model(cfg, 71);
  Tensor frames = random_tensor({6, 1, 8}, 72);

  set_num_threads(1);
  ExecutionContext ctx;
  TokenSeq golden = model.greedy_decode(frames, 1, 2, ctx);

  // Reference: one teacher-forced training-context forward over BOS + the
  // decoded tokens. Each step's argmax must be the token greedy emitted
  // next (and EOS after the last one, unless the length cap stopped it).
  ExecutionContext train{.training = true};
  TokenSeq tgt_in = {1};
  tgt_in.insert(tgt_in.end(), golden.begin(), golden.end());
  const std::vector<std::int64_t> next =
      argmax_rows(model.forward(frames, {tgt_in}, train));
  model.clear_caches();
  for (std::size_t t = 0; t < golden.size(); ++t) {
    EXPECT_EQ(next[t], golden[t]) << "step " << t;
  }
  if (static_cast<std::int64_t>(golden.size()) < cfg.max_decode_len) {
    EXPECT_EQ(next.back(), 2);
  }

  for (int threads : {1, 4}) {
    set_num_threads(threads);
    TokenSeq toks = model.greedy_decode(frames, 1, 2, ctx);
    EXPECT_EQ(toks, golden) << "threads=" << threads;
    EXPECT_EQ(model.cache_depth(), 0);
  }
}

TEST(ContextDispatch, ResNetMatchesLegacyAcrossThreads) {
  ThreadCountRestorer restore;
  ResNetConfig cfg;
  cfg.in_channels = 2;
  cfg.base_width = 4;
  cfg.num_classes = 5;
  cfg.image_size = 8;
  cfg.blocks_per_stage = 1;
  cfg.num_stages = 2;
  ResNetClassifier model(cfg, 81);
  Tensor x = random_tensor({2, 2, 8, 8}, 82);

  // A training context switches BatchNorm to batch statistics, so eval
  // logits have no training-context reference: pin the single-thread
  // heap forward instead.
  set_num_threads(1);
  ExecutionContext ctx;
  Tensor golden = model.forward(x, ctx);

  for (int threads : {1, 4}) {
    set_num_threads(threads);
    Tensor y = model.forward(x, ctx);
    EXPECT_TRUE(bit_equal(y, golden)) << "threads=" << threads;
    EXPECT_EQ(model.cache_depth(), 0);
  }
}

TEST(ContextDispatch, BaseModuleWithoutContextEntryFails) {
  // A module that never grew a context forward must fail loudly, not
  // silently fall back to an uncached path.
  struct Legacy : Module {
    void clear_cache() override {}
  } legacy;
  ExecutionContext ctx;
  Tensor x({1});
  EXPECT_THROW(legacy.forward(x, ctx), Error);
}

// One layer of the contract below: its forward under a given context, the
// adjoint fed an all-zero output gradient, and the module whose cache
// depth is probed.
struct LayerCase {
  std::string name;
  std::function<Tensor(ExecutionContext&)> forward;
  std::function<void(const Tensor& dy)> backward;
  std::shared_ptr<Module> module;
  /// Expected inference output when it differs from the training output by
  /// design (BatchNorm's running vs batch statistics); empty = training's.
  std::function<Tensor()> inference_reference;
};

std::vector<LayerCase> layer_contract_cases() {
  std::vector<LayerCase> cases;
  Pcg32 rng(91);
  {
    auto m = std::make_shared<Linear>(6, 4, rng);
    Tensor x = random_tensor({3, 6}, 92);
    cases.push_back({"Linear", [m, x](ExecutionContext& c) {
                       return m->forward(x, c);
                     },
                     [m](const Tensor& dy) { m->backward(dy); }, m, {}});
  }
  {
    auto m = std::make_shared<Conv2d>(2, 3, 3, 1, 1, rng);
    Tensor x = random_tensor({2, 2, 5, 5}, 93);
    cases.push_back({"Conv2d", [m, x](ExecutionContext& c) {
                       return m->forward(x, c);
                     },
                     [m](const Tensor& dy) { m->backward(dy); }, m, {}});
  }
  {
    auto m = std::make_shared<LayerNorm>(6);
    Tensor x = random_tensor({3, 6}, 94, 3.0f);
    cases.push_back({"LayerNorm", [m, x](ExecutionContext& c) {
                       return m->forward(x, c);
                     },
                     [m](const Tensor& dy) { m->backward(dy); }, m, {}});
  }
  {
    // Fresh running statistics (mean 0, var 1) make the inference map
    // y = g * x + 0 with g = 1 / sqrt(1 + eps), in the layer's own float
    // expression order.
    auto m = std::make_shared<BatchNorm2d>(3);
    Tensor x = random_tensor({2, 3, 2, 2}, 95, 2.0f);
    auto reference = [x] {
      const float g = 1.0f / std::sqrt(1.0f + 1e-5f);
      Tensor y(x.shape());
      for (std::int64_t i = 0; i < x.numel(); ++i) y[i] = g * x[i] + 0.0f;
      return y;
    };
    cases.push_back({"BatchNorm2d", [m, x](ExecutionContext& c) {
                       return m->forward(x, c);
                     },
                     [m](const Tensor& dy) { m->backward(dy); }, m,
                     reference});
  }
  {
    auto m = std::make_shared<ReLU>();
    Tensor x = random_tensor({3, 5}, 96);
    cases.push_back({"ReLU", [m, x](ExecutionContext& c) {
                       return m->forward(x, c);
                     },
                     [m](const Tensor& dy) { m->backward(dy); }, m, {}});
  }
  {
    auto m = std::make_shared<GELU>();
    Tensor x = random_tensor({3, 5}, 97, 3.0f);
    cases.push_back({"GELU", [m, x](ExecutionContext& c) {
                       return m->forward(x, c);
                     },
                     [m](const Tensor& dy) { m->backward(dy); }, m, {}});
  }
  {
    auto m = std::make_shared<Embedding>(10, 4, rng);
    const std::vector<std::int64_t> ids = {3, 7, 3, 0};
    cases.push_back({"Embedding", [m, ids](ExecutionContext& c) {
                       return m->forward(ids, c);
                     },
                     [m](const Tensor& dy) { m->backward(dy); }, m, {}});
  }
  {
    auto m = std::make_shared<Lstm>(3, 5, 2, rng);
    Tensor x = random_tensor({4, 2, 3}, 98);
    cases.push_back({"Lstm", [m, x](ExecutionContext& c) {
                       return m->forward(x, c);
                     },
                     [m](const Tensor& dy) { m->backward(dy); }, m, {}});
  }
  {
    auto m = std::make_shared<MultiHeadAttention>(8, 2, rng);
    Tensor x = random_tensor({2, 3, 8}, 99);
    cases.push_back({"MultiHeadAttention", [m, x](ExecutionContext& c) {
                       return m->forward(x, x, /*causal=*/true, nullptr, c);
                     },
                     [m](const Tensor& dy) { m->backward(dy); }, m, {}});
  }
  return cases;
}

TEST(ContextDispatch, TrainingContextStillCaches) {
  // The one-forward layer contract: the inference context reproduces the
  // training context's bits and pushes nothing; the training context pushes
  // records that exactly one backward consumes.
  for (const LayerCase& c : layer_contract_cases()) {
    SCOPED_TRACE(c.name);
    ExecutionContext infer;
    Tensor y_infer = c.forward(infer);
    EXPECT_EQ(c.module->cache_depth(), 0);

    ExecutionContext train{.training = true};
    Tensor y_train = c.forward(train);
    EXPECT_GT(c.module->cache_depth(), 0);
    EXPECT_TRUE(bit_equal(y_infer, c.inference_reference
                                       ? c.inference_reference()
                                       : y_train));
    c.backward(Tensor(y_train.shape()));
    EXPECT_EQ(c.module->cache_depth(), 0);
  }
}

// ----- InferenceSession -----------------------------------------------------

TEST(Session, SteadyStateRunsAllocateNothing) {
  ThreadCountRestorer restore;
  auto model = std::make_shared<TinyMlp>(101);
  SessionConfig cfg;
  cfg.cache_probe = [model] { return model->cache_depth(); };
  InferenceSession session(
      [model](const Tensor& x, ExecutionContext& ctx) {
        return model->forward(x, ctx);
      },
      cfg);
  Tensor x = random_tensor({8, 24}, 102);
  set_num_threads(1);
  Tensor golden = model->forward_reference(x);

  session.run(x);  // planning pass: allocations expected
  EXPECT_GT(session.arena_stats().peak_bytes, 0);
  for (int i = 0; i < 3; ++i) {
    const Tensor& y = session.run(x);
    EXPECT_EQ(session.last_run_heap_allocs(), 0)
        << "steady-state run " << i << " hit the heap";
    EXPECT_TRUE(bit_equal(y, golden));
    EXPECT_FALSE(y.arena_backed());
  }
  EXPECT_EQ(session.runs(), 4);
  // Consolidation happened after the planning pass; the chunk count no
  // longer grows.
  const std::int64_t growths = session.arena_stats().chunk_growths;
  session.run(x);
  EXPECT_EQ(session.arena_stats().chunk_growths, growths);
}

TEST(Session, MatchesLegacyForEveryPolicyAndThreadCount) {
  ThreadCountRestorer restore;
  auto model = std::make_shared<TinyMlp>(111);
  Tensor x = random_tensor({4, 24}, 112);
  set_num_threads(1);
  Tensor golden = model->forward_reference(x);

  LayerGuard guard("mlp", {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    for (ResiliencePolicy policy :
         {ResiliencePolicy::kNone, ResiliencePolicy::kGuard,
          ResiliencePolicy::kAbft}) {
      SessionConfig cfg;
      cfg.ctx.resilience = policy;
      cfg.ctx.guard = &guard;
      cfg.cache_probe = [model] { return model->cache_depth(); };
      InferenceSession session(
          [model](const Tensor& in, ExecutionContext& ctx) {
            return model->forward(in, ctx);
          },
          cfg);
      session.run(x);
      const Tensor& y = session.run(x);
      EXPECT_TRUE(bit_equal(y, golden))
          << "threads=" << threads << " policy=" << static_cast<int>(policy);
      EXPECT_EQ(session.last_run_heap_allocs(), 0);
    }
  }
}

TEST(Session, QuantizedModelZeroAllocSteadyState) {
  ThreadCountRestorer restore;
  Pcg32 rng(121);
  auto fc = std::make_shared<Linear>(24, 16, rng);
  auto qfc = std::make_shared<QuantizedLinear>(*fc, 8, 3);
  Tensor x = random_tensor({6, 24}, 122);
  set_num_threads(1);
  Tensor golden = matmul_packed(x, qfc->packed_weight());
  add_row_bias_inplace(golden, qfc->bias());

  InferenceSession session(
      [qfc](const Tensor& in, ExecutionContext& ctx) {
        return qfc->forward(in, ctx);
      });
  session.run(x);
  const Tensor& y = session.run(x);
  EXPECT_TRUE(bit_equal(y, golden));
  EXPECT_EQ(session.last_run_heap_allocs(), 0);
}

TEST(Session, AbftQuantizedModelZeroAllocAfterDecodeCache) {
  ThreadCountRestorer restore;
  Pcg32 rng(131);
  auto fc = std::make_shared<Linear>(16, 12, rng);
  auto qfc = std::make_shared<QuantizedLinear>(*fc, 8, 3);
  Tensor x = random_tensor({4, 16}, 132);

  SessionConfig cfg;
  cfg.ctx.resilience = ResiliencePolicy::kAbft;
  InferenceSession session(
      [qfc](const Tensor& in, ExecutionContext& ctx) {
        return qfc->forward(in, ctx);
      },
      cfg);
  // Planning pass also populates the decoded-weight cache (heap-backed by
  // design: it must outlive the arena cycle).
  session.run(x);
  EXPECT_EQ(qfc->decode_count(), 1);
  session.run(x);
  EXPECT_EQ(session.last_run_heap_allocs(), 0);
  EXPECT_EQ(qfc->decode_count(), 1) << "steady state must not re-decode";
  EXPECT_FALSE(qfc->decoded_weight().arena_backed());
}

TEST(Session, LstmSessionZeroAllocSteadyState) {
  ThreadCountRestorer restore;
  Pcg32 rng(141);
  auto lstm = std::make_shared<Lstm>(8, 12, 2, rng);
  Tensor x = random_tensor({5, 2, 8}, 142);
  set_num_threads(1);
  ExecutionContext train{.training = true};
  Tensor golden = lstm->forward(x, train);
  lstm->clear_cache();

  SessionConfig cfg;
  cfg.cache_probe = [lstm] { return lstm->cache_depth(); };
  InferenceSession session(
      [lstm](const Tensor& in, ExecutionContext& ctx) {
        return lstm->forward(in, ctx);
      },
      cfg);
  session.run(x);
  const Tensor& y = session.run(x);
  EXPECT_TRUE(bit_equal(y, golden));
  EXPECT_EQ(session.last_run_heap_allocs(), 0);
}

TEST(Session, ResNetSessionZeroAllocSteadyState) {
  ThreadCountRestorer restore;
  ResNetConfig rcfg;
  rcfg.in_channels = 2;
  rcfg.base_width = 4;
  rcfg.num_classes = 5;
  rcfg.image_size = 8;
  rcfg.blocks_per_stage = 1;
  rcfg.num_stages = 2;
  auto model = std::make_shared<ResNetClassifier>(rcfg, 151);
  Tensor x = random_tensor({2, 2, 8, 8}, 152);
  set_num_threads(1);
  ExecutionContext eval;
  Tensor golden = model->forward(x, eval);

  SessionConfig cfg;
  cfg.cache_probe = [model] { return model->cache_depth(); };
  InferenceSession session(
      [model](const Tensor& in, ExecutionContext& ctx) {
        return model->forward(in, ctx);
      },
      cfg);
  session.run(x);
  const Tensor& y = session.run(x);
  EXPECT_TRUE(bit_equal(y, golden));
  EXPECT_EQ(session.last_run_heap_allocs(), 0);
}

TEST(Session, CleanReentryAfterForwardThrows) {
  // A session must be reusable after a faulted run: the next run with the
  // same shapes produces exactly the bits a never-faulted session produces,
  // and the arena still reaches its zero-alloc steady state.
  auto model = std::make_shared<TinyMlp>(174);
  auto flaky = std::make_shared<int>(2);  // first two runs throw
  SessionConfig cfg;
  InferenceSession session(
      [model, flaky](const Tensor& in, ExecutionContext& ctx) -> Tensor {
        if (*flaky > 0) {
          --*flaky;
          throw FaultError("fc1", FaultKind::kNonFinite, "injected");
        }
        return model->forward(in, ctx);
      },
      cfg);
  InferenceSession steady(
      [model](const Tensor& in, ExecutionContext& ctx) {
        return model->forward(in, ctx);
      },
      cfg);
  Tensor x = random_tensor({2, 24}, 175);
  EXPECT_THROW(session.run(x), FaultError);  // planning run faults
  EXPECT_THROW(session.run(x), FaultError);  // steady-state run faults
  steady.run(x);
  const Tensor golden = steady.run(x);
  session.run(x);
  const Tensor& recovered = session.run(x);
  EXPECT_TRUE(bit_equal(recovered, golden));
  EXPECT_EQ(session.last_run_heap_allocs(), 0)
      << "faulted runs must not wedge the arena plan";
}

TEST(Session, GuardAndReportContextSurviveAThrowingRun) {
  // The dispatch contract: ctx.guard / ctx.report installed by the session
  // config are intact on the run after a throw — the report accumulates
  // events from the successful retry, not garbage from the unwound one.
  LayerGuard guard("fc", GuardConfig{RecoveryPolicy::kCorrect, 1, 0.0f});
  ResilienceReport report;
  auto fc = std::make_shared<Linear>(4, 4, *[] {
    static Pcg32 rng(176);
    return &rng;
  }());
  auto flaky = std::make_shared<int>(1);
  SessionConfig cfg;
  cfg.ctx.resilience = ResiliencePolicy::kGuard;
  cfg.ctx.guard = &guard;
  cfg.ctx.report = &report;
  InferenceSession session(
      [fc, flaky, &guard](const Tensor& in, ExecutionContext& ctx) -> Tensor {
        EXPECT_EQ(&ctx.active_guard(), &guard) << "configured guard in force";
        if (*flaky > 0) {
          --*flaky;
          throw FaultError("fc", FaultKind::kRangeViolation, "injected");
        }
        return fc->forward(in, ctx);
      },
      cfg);
  Tensor x = random_tensor({2, 4}, 177);
  x.data()[1] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(session.run(x), FaultError);
  const Tensor& y = session.run(x);
  EXPECT_GT(report.events.size(), 0u) << "guard must observe the NaN";
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y.data()[i]));
  }
}

TEST(Session, CacheProbeTripsOnLeakedCache) {
  auto fc = std::make_shared<Linear>(4, 3, *[] {
    static Pcg32 rng(171);
    return &rng;
  }());
  SessionConfig cfg;
  // A forward that (wrongly) runs in training mode leaks a cache; the
  // probe must turn that into a hard failure.
  cfg.cache_probe = [fc] { return fc->cache_depth(); };
  InferenceSession session(
      [fc](const Tensor& in, ExecutionContext& ctx) {
        ExecutionContext train_ctx = ctx;
        train_ctx.training = true;
        return fc->forward(in, train_ctx);
      },
      cfg);
  Tensor x = random_tensor({2, 4}, 172);
  EXPECT_THROW(session.run(x), Error);
  fc->clear_cache();
}

// ----- snapshot boot --------------------------------------------------------

TEST(Session, SnapshotBootedSessionMatchesRebuiltBitExactly) {
  // The deployment contract of the snapshot container: a session booted
  // from mmap'd packed weights produces the same bits as one whose model
  // was re-quantized from the FP32 source — across thread counts, with
  // zero steady-state heap allocations on both.
  ThreadCountRestorer restore;
  Pcg32 r1(181, 1), r2(181, 2);
  Linear fc1(32, 48, r1, true, "fc1"), fc2(48, 12, r2, true, "fc2");
  auto built = std::make_shared<QuantizedMlp>(fc1, fc2, 8, 3);

  const std::string path = testing::TempDir() + "/session_boot.afsnap";
  built->save(path);
  const MappedSnapshot snap = MappedSnapshot::open(path);
  ASSERT_TRUE(snap.report().clean());
  auto booted = std::make_shared<QuantizedMlp>(snap);

  Tensor x = random_tensor({8, 32}, 183);
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    SessionConfig cfg_a, cfg_b;
    cfg_a.cache_probe = [built] { return built->cache_depth(); };
    cfg_b.cache_probe = [booted] { return booted->cache_depth(); };
    InferenceSession rebuilt_session(
        [built](const Tensor& in, ExecutionContext& ctx) {
          return built->forward(in, ctx);
        },
        cfg_a);
    InferenceSession snapshot_session(
        [booted](const Tensor& in, ExecutionContext& ctx) {
          return booted->forward(in, ctx);
        },
        cfg_b);
    rebuilt_session.run(x);
    snapshot_session.run(x);
    const Tensor& a = rebuilt_session.run(x);
    const Tensor& b = snapshot_session.run(x);
    EXPECT_TRUE(bit_equal(a, b)) << "threads=" << threads;
    EXPECT_EQ(rebuilt_session.last_run_heap_allocs(), 0);
    EXPECT_EQ(snapshot_session.last_run_heap_allocs(), 0);
  }
}

// ----- batch pack / scatter -------------------------------------------------

TEST(BatchPack, PackRowsConcatenatesAndScatterRoundTrips) {
  Tensor a = random_tensor({2, 5}, 901);
  Tensor b = random_tensor({1, 5}, 902);
  Tensor c = random_tensor({3, 5}, 903);
  std::vector<std::int64_t> offsets;
  Tensor packed = pack_rows({&a, &b, &c}, &offsets);
  ASSERT_EQ(packed.dim(0), 6);
  ASSERT_EQ(packed.dim(1), 5);
  ASSERT_EQ(offsets, (std::vector<std::int64_t>{0, 2, 3}));

  EXPECT_TRUE(bit_equal(copy_row_block(packed, offsets[0], 2), a));
  EXPECT_TRUE(bit_equal(copy_row_block(packed, offsets[1], 1), b));
  EXPECT_TRUE(bit_equal(copy_row_block(packed, offsets[2], 3), c));
}

TEST(BatchPack, MismatchedInputsThrowTypedMalformed) {
  Tensor a = random_tensor({2, 5}, 904);
  Tensor narrow = random_tensor({2, 4}, 905);  // width mismatch
  Tensor flat({10});                           // rank mismatch
  try {
    pack_rows({&a, &narrow});
    FAIL() << "width mismatch must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
  }
  try {
    pack_rows({&a, &flat});
    FAIL() << "rank mismatch must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
  }
  EXPECT_THROW(copy_row_block(a, 1, 5), FaultError) << "rows past the end";
}

TEST(BatchPack, PackStagesInAmbientArenaScatterEscapesIt) {
  Arena staging;
  // Warm the staging arena the way a worker does, so steady-state packing
  // grows nothing.
  Tensor a = random_tensor({2, 6}, 906);
  Tensor b = random_tensor({4, 6}, 907);
  {
    ArenaScope scope(&staging);
    Tensor warm = pack_rows({&a, &b});
    (void)warm;
  }
  staging.reset();

  Tensor escaped;
  const std::int64_t before = tensor_heap_allocs();
  {
    ArenaScope scope(&staging);
    Tensor packed = pack_rows({&a, &b});
    EXPECT_TRUE(packed.arena_backed());
    escaped = copy_row_block(packed, 2, 4);
  }
  EXPECT_FALSE(escaped.arena_backed())
      << "scatter output must outlive the arena cycle";
  staging.reset();  // invalidates packed; the scatter copy must survive
  EXPECT_TRUE(bit_equal(escaped, b));
  // Exactly one owned allocation: the scatter copy. The pack itself stayed
  // in the warmed arena.
  EXPECT_EQ(tensor_heap_allocs(), before + 1);
}

TEST(BatchPack, CopyFromWithinCapacityCountsNoAllocation) {
  // The response-reuse path: a persistent output tensor shrinks and regrows
  // across batches of different sizes; only growth past capacity may touch
  // the heap (and the allocation counter).
  Tensor big = random_tensor({8, 4}, 908);
  Tensor small = random_tensor({2, 4}, 909);
  Tensor out;
  out.copy_from(big);  // first copy allocates
  const std::int64_t before = tensor_heap_allocs();
  out.copy_from(small);  // shrink: reuse
  EXPECT_TRUE(bit_equal(out, small));
  out.copy_from(big);  // regrow within capacity: reuse
  EXPECT_TRUE(bit_equal(out, big));
  EXPECT_EQ(tensor_heap_allocs(), before)
      << "copy_from within capacity must not count an allocation";
}

TEST(Session, PlanAtMaxRowsThenSmallerBatchesAllocateNothing) {
  // The batching worker's arena contract: one plan() at the widest batch,
  // then every smaller batch replays through the consolidated arena as a
  // sub-batch footprint with zero steady-state heap allocations.
  Pcg32 r1(911, 1), r2(911, 2);
  Linear fc1(12, 16, r1, true, "fc1"), fc2(16, 6, r2, true, "fc2");
  auto mlp = std::make_shared<QuantizedMlp>(fc1, fc2, 8, 3);
  SessionConfig cfg;
  cfg.cache_probe = [mlp] { return mlp->cache_depth(); };
  InferenceSession session(
      [mlp](const Tensor& in, ExecutionContext& ctx) {
        return mlp->forward(in, ctx);
      },
      cfg);

  session.plan(Tensor({16, 12}));  // zero tensor at the widest batch
  for (const std::int64_t rows : {2, 8, 16, 1, 16}) {
    Tensor x = random_tensor({rows, 12}, 912 + static_cast<unsigned>(rows));
    const Tensor& y = session.run(x);
    EXPECT_EQ(y.dim(0), rows);
    EXPECT_EQ(session.last_run_heap_allocs(), 0)
        << "rows=" << rows << " allocated after planning at 16";
  }
}

// ----- TransformerDecoder (suite DecodeSession) -----------------------------

TransformerConfig tiny_transformer_config() {
  TransformerConfig cfg;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ffn = 64;
  cfg.enc_layers = 1;
  cfg.dec_layers = 2;
  return cfg;
}

/// The pre-KV-cache greedy loop: a teacher-forced forward over the whole
/// growing prefix at every step — the bit-equality reference.
TokenSeq full_recompute_greedy(TransformerMT& model, const TokenSeq& src,
                               std::int64_t eos, std::int64_t max_steps) {
  const std::int64_t vocab = model.config().tgt_vocab;
  std::vector<TokenSeq> src_b = {src};
  std::vector<TokenSeq> tgt_b = {{TranslationTask::kBos}};
  TokenSeq out;
  for (std::int64_t step = 0; step < max_steps; ++step) {
    Tensor logits = model.forward(src_b, tgt_b, TranslationTask::kPad);
    model.clear_caches();
    const std::int64_t t_len = static_cast<std::int64_t>(tgt_b[0].size());
    const float* row = logits.data() + (t_len - 1) * vocab;
    std::int64_t next = 0;
    for (std::int64_t v = 1; v < vocab; ++v) {
      if (row[v] > row[next]) next = v;
    }
    if (next == eos) break;
    out.push_back(next);
    tgt_b[0].push_back(next);
    if (t_len + 1 >= model.config().max_len) break;
  }
  return out;
}

TEST(DecodeSession, GreedyMatchesFullRecomputeAcrossThreads) {
  // greedy_decode now runs incrementally over an fp32 KV cache; its token
  // stream must match the full-recompute loop exactly, for every thread
  // count (eos = -1 forces full-length sequences so every position counts).
  TransformerBundle b(415, tiny_transformer_config());
  Pcg32 rng(416);
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (int i = 0; i < 3; ++i) {
      const TokenSeq src = b.task.sample(rng).source;
      const TokenSeq full =
          full_recompute_greedy(b.model, src, -1, b.cfg.max_len);
      const TokenSeq inc = b.model.greedy_decode(
          src, TranslationTask::kPad, TranslationTask::kBos, -1,
          b.cfg.max_len);
      EXPECT_EQ(full, inc) << "i=" << i << " threads=" << threads;
    }
  }
  set_num_threads(0);
}

TEST(DecodeSession, HonorsActQuantBetweenSteps) {
  // Regression for the decode/act-quant seam: with calibrated activation
  // quantization APPLIED, the incremental decode must keep quantizing at
  // the same sites as the teacher-forced forward — token streams match.
  TransformerBundle b(425, tiny_transformer_config());
  b.model.act_quant().set_quantizer(
      make_quantizer(FormatKind::kAdaptivFloat, 8));
  calibrate_transformer_activations(b, 2, 426);
  b.model.act_quant().set_mode(ActQuantMode::kApply);

  Pcg32 rng(427);
  for (int i = 0; i < 3; ++i) {
    const TokenSeq src = b.task.sample(rng).source;
    const TokenSeq full =
        full_recompute_greedy(b.model, src, -1, b.cfg.max_len);
    const TokenSeq inc =
        b.model.greedy_decode(src, TranslationTask::kPad,
                              TranslationTask::kBos, -1, b.cfg.max_len);
    EXPECT_EQ(full, inc) << "i=" << i;
  }
  b.model.act_quant().set_mode(ActQuantMode::kOff);
}

TEST(DecodeSession, PaddedSourceMatchesFullRecompute) {
  // A source with trailing pad tokens: the decoder's cross-attention steps
  // mask the padded keys through its one source length, as the
  // teacher-forced forward's key padding does, so the token streams match.
  TransformerBundle b(445, tiny_transformer_config());
  Pcg32 rng(446);
  for (const std::size_t pads : {1, 3}) {
    TokenSeq src = b.task.sample(rng).source;
    src.resize(src.size() + pads, TranslationTask::kPad);
    ASSERT_LE(static_cast<std::int64_t>(src.size()), b.cfg.max_len);
    const TokenSeq full =
        full_recompute_greedy(b.model, src, -1, b.cfg.max_len);
    const TokenSeq inc =
        b.model.greedy_decode(src, TranslationTask::kPad,
                              TranslationTask::kBos, -1, b.cfg.max_len);
    EXPECT_EQ(full, inc) << "pads=" << pads;
  }
}

TEST(DecodeSession, QuantizedKvZeroSteadyStateAllocsPerToken) {
  // The headline runtime contract: from the second sequence on, every
  // quantized-KV decode step runs entirely out of the planned arenas —
  // zero owned-buffer heap allocations per emitted token.
  TransformerBundle b(435, tiny_transformer_config());
  calibrate_transformer_kv(b, 2, 436);

  TransformerDecoder::Options opts;
  opts.kv.quantized = true;
  opts.kv.kind = FormatKind::kAdaptivFloat;
  opts.kv.bits = 8;
  TransformerDecoder dec(b.model, opts);

  Pcg32 rng(437);
  for (int seq = 0; seq < 3; ++seq) {
    const TokenSeq src = b.task.sample(rng).source;
    dec.begin(src, TranslationTask::kPad);
    std::vector<std::int64_t> last = {TranslationTask::kBos};
    for (std::int64_t step = 0; step + 1 < b.cfg.max_len; ++step) {
      const Tensor& logits = dec.step(last);
      last[0] = argmax_rows(logits)[0];
      if (seq > 0) {
        EXPECT_EQ(dec.last_step_heap_allocs(), 0)
            << "seq=" << seq << " step=" << step;
      }
    }
  }
  EXPECT_GT(dec.kv_bytes(), 0u);
  EXPECT_EQ(dec.sequences(), 3);
}

TEST(DecodeSession, KvCodecsBuiltOncePerModelAndFormat) {
  // Every quantized decoder of one model and KV format shares one codec
  // set, its decode tables built before it is shared. Threads asking at
  // once (as a server's workers opening streams do) all get the set the
  // first of them built. Another format gets its own set, and
  // recalibrating the model drops them.
  TransformerBundle b(438, tiny_transformer_config());
  calibrate_transformer_kv(b, 2, 439);
  const KvCacheFormat af8{true, FormatKind::kAdaptivFloat, 8};
  std::vector<std::shared_ptr<const TransformerMT::KvCodecs>> seen(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&b, &seen, &af8, t] {
      seen[t] = b.model.kv_codecs(af8);
    });
  }
  for (std::thread& t : threads) t.join();
  const auto shared = b.model.kv_codecs(af8);
  for (const auto& s : seen) EXPECT_EQ(s, shared);
  ASSERT_EQ(shared->self.size(),
            static_cast<std::size_t>(b.cfg.dec_layers));
  ASSERT_EQ(shared->cross.size(), shared->self.size());
  EXPECT_EQ(shared->self[0].k_codec->bits(), 8);

  TransformerDecoder::Options opts;
  opts.kv = af8;
  TransformerDecoder dec(b.model, opts);
  EXPECT_EQ(b.model.kv_codecs(af8), shared);

  const auto af6 =
      b.model.kv_codecs({true, FormatKind::kAdaptivFloat, 6});
  EXPECT_NE(af6, shared);
  EXPECT_EQ(af6->self[0].k_codec->bits(), 6);

  calibrate_transformer_kv(b, 2, 440);
  EXPECT_NE(b.model.kv_codecs(af8), shared);
}

TEST(DecodeSession, CapacityExhaustionIsTypedAndSessionStaysUsable) {
  TransformerBundle b(445, tiny_transformer_config());
  TransformerDecoder::Options opts;
  opts.max_steps = 3;
  TransformerDecoder dec(b.model, opts);

  Pcg32 rng(446);
  const TokenSeq src = b.task.sample(rng).source;
  dec.begin(src, TranslationTask::kPad);
  std::vector<std::int64_t> last = {TranslationTask::kBos};
  for (int step = 0; step < 3; ++step) {
    last[0] = argmax_rows(dec.step(last))[0];
  }
  try {
    dec.step(last);
    FAIL() << "stepping past the planned capacity must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
  }
  // A typed capacity fault must not poison the decoder: a new sequence
  // begins cleanly on the same plan.
  dec.begin(src, TranslationTask::kPad);
  last[0] = TranslationTask::kBos;
  EXPECT_NO_THROW(dec.step(last));
  EXPECT_EQ(dec.position(), 1);
}

TEST(DecodeSession, MalformedConfigurationThrowsTyped) {
  TransformerBundle b(455, tiny_transformer_config());

  // Quantized KV without calibration: the per-layer ranges are unset.
  TransformerDecoder::Options quant;
  quant.kv.quantized = true;
  try {
    TransformerDecoder dec(b.model, quant);
    FAIL() << "uncalibrated quantized decoder must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
    EXPECT_NE(std::string(e.what()).find("calibrate_transformer_kv"),
              std::string::npos);
  }

  // A plan longer than the positional table could never decode.
  TransformerDecoder::Options long_plan;
  long_plan.max_steps = b.cfg.max_len + 1;
  EXPECT_THROW(TransformerDecoder dec(b.model, long_plan), FaultError);

  // Lane-count and step-order misuse.
  TransformerDecoder dec(b.model);
  EXPECT_THROW(dec.step({TranslationTask::kBos}), FaultError);  // no begin()
  Pcg32 rng(456);
  dec.begin(b.task.sample(rng).source, TranslationTask::kPad);
  EXPECT_THROW(dec.step({1, 2}), FaultError);  // two tokens, one lane

  // A negative plan is malformed configuration, rejected before any KV
  // storage is planned.
  TransformerDecoder::Options negative_plan;
  negative_plan.max_steps = -1;
  const std::int64_t allocs_before = tensor_heap_allocs_this_thread();
  try {
    TransformerDecoder bad(b.model, negative_plan);
    FAIL() << "a negative max_steps plan must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
  }
  EXPECT_EQ(tensor_heap_allocs_this_thread(), allocs_before);
}

TEST(DecodeSession, FailedBeginLeavesDecoderUnbegun) {
  // A begin() that throws (here: a source id outside the vocabulary, found
  // by the encoder) must not leave the previous sequence steppable: its
  // caches and position belong to another source, and stepping on from
  // them would run past the positional table.
  TransformerBundle b(457, tiny_transformer_config());
  TransformerDecoder dec(b.model);
  Pcg32 rng(458);
  const TokenSeq src = b.task.sample(rng).source;
  dec.begin(src, TranslationTask::kPad);
  std::vector<std::int64_t> last = {TranslationTask::kBos};
  for (int step = 0; step < 5; ++step) {
    last[0] = argmax_rows(dec.step(last))[0];
  }
  ASSERT_EQ(dec.position(), 5);

  try {
    dec.begin({3, b.cfg.src_vocab}, TranslationTask::kPad);
    FAIL() << "an out-of-vocab source must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
  }
  for (int i = 0; i < 2; ++i) {
    try {
      dec.step({TranslationTask::kBos});
      FAIL() << "a step after a failed begin() must throw";
    } catch (const FaultError& e) {
      EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
    }
  }
  try {
    dec.begin({}, TranslationTask::kPad);
    FAIL() << "an empty source must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput);
  }
  EXPECT_THROW(dec.step({TranslationTask::kBos}), FaultError);
  EXPECT_EQ(dec.sequences(), 1);

  // A later begin() that succeeds decodes exactly what a fresh decoder
  // does, over its whole plan.
  TransformerDecoder fresh(b.model);
  dec.begin(src, TranslationTask::kPad);
  fresh.begin(src, TranslationTask::kPad);
  EXPECT_EQ(dec.position(), 0);
  std::vector<std::int64_t> a = {TranslationTask::kBos};
  std::vector<std::int64_t> c = a;
  for (std::int64_t step = 0; step < dec.max_steps(); ++step) {
    a[0] = argmax_rows(dec.step(a))[0];
    c[0] = argmax_rows(fresh.step(c))[0];
    ASSERT_EQ(a, c) << "step=" << step;
  }
  EXPECT_THROW(dec.step(a), FaultError);  // plan spent, not overrun
  EXPECT_EQ(dec.sequences(), 2);
}

void expect_malformed(const std::function<void()>& fn, const char* what) {
  try {
    fn();
    ADD_FAILURE() << what << " must throw";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kMalformedInput) << what;
  }
}

TEST(DecodeSession, OutOfVocabTokensThrowTypedMalformed) {
  // A client token outside the vocabulary is a malformed request, rejected
  // before any KV append: the stream stays decodable afterwards.
  TransformerBundle b(465, tiny_transformer_config());
  auto make = [&b] {
    return TransformerStreamDecoder(b.model, TransformerDecoder::Options{},
                                    TranslationTask::kPad,
                                    TranslationTask::kBos,
                                    TranslationTask::kEos);
  };
  TransformerStreamDecoder dec = make();
  const std::int64_t src_vocab = b.cfg.src_vocab;
  const std::int64_t tgt_vocab = b.cfg.tgt_vocab;
  expect_malformed([&] { dec.open({3, src_vocab}); }, "open, id == vocab");
  expect_malformed([&] { dec.open({-1, 3}); }, "open, negative id");

  Pcg32 rng(466);
  const TokenSeq src = b.task.sample(rng).source;
  dec.open(src);
  expect_malformed([&] { dec.step(tgt_vocab); }, "step, token == vocab");
  expect_malformed([&] { dec.step(-5); }, "step, negative token");

  TransformerStreamDecoder fresh = make();
  fresh.open(src);
  EXPECT_EQ(dec.step(TranslationTask::kBos), fresh.step(TranslationTask::kBos));
}

TEST(DecodeSession, ServeStreamRejectsOutOfVocabWithoutDegrading) {
  // Through the server, an out-of-vocab token fails its own ticket as
  // kMalformedInput and never feeds the tenant's breaker: more rejections
  // than the step-down threshold still leave the tenant at level 0.
  TransformerBundle b(475, tiny_transformer_config());
  ServerConfig cfg;
  cfg.workers = 1;
  TransformerMT* model = &b.model;
  cfg.decoder_factory = [model]() -> std::unique_ptr<StreamDecoder> {
    return std::make_unique<TransformerStreamDecoder>(
        *model, TransformerDecoder::Options{}, TranslationTask::kPad,
        TranslationTask::kBos, TranslationTask::kEos);
  };
  InferenceServer server(
      [](int) -> InferenceSession::ForwardFn {
        return [](const Tensor& x, ExecutionContext&) { return x; };
      },
      cfg);
  TenantConfig tenant;
  tenant.name = "t";
  tenant.ladder = {ResiliencePolicy::kNone, ResiliencePolicy::kGuard};
  server.add_tenant(tenant);

  Pcg32 rng(476);
  const TokenSeq src = b.task.sample(rng).source;
  auto submit = [&](DecodeOp op, std::vector<std::int64_t> ids,
                    std::int64_t last) {
    DecodeRequest req;
    req.tenant = "t";
    req.stream = "s";
    req.op = op;
    req.src = std::move(ids);
    req.last_token = last;
    return server.submit_decode(std::move(req)).get();
  };
  for (int i = 0; i < 2 * tenant.breaker.fault_threshold; ++i) {
    Response bad_open =
        submit(DecodeOp::kOpen, {3, b.cfg.src_vocab + i}, -1);
    EXPECT_FALSE(bad_open.ok);
    EXPECT_EQ(bad_open.error_kind, FaultKind::kMalformedInput) << i;
    EXPECT_EQ(bad_open.breaker_level, 0) << i;

    ASSERT_TRUE(submit(DecodeOp::kOpen, src, -1).ok) << i;
    Response bad_step = submit(DecodeOp::kStep, {}, b.cfg.tgt_vocab + i);
    EXPECT_FALSE(bad_step.ok);
    EXPECT_EQ(bad_step.error_kind, FaultKind::kMalformedInput) << i;
    EXPECT_EQ(bad_step.breaker_level, 0) << i;
  }
  ASSERT_TRUE(submit(DecodeOp::kOpen, src, -1).ok);
  Response good = submit(DecodeOp::kStep, {}, TranslationTask::kBos);
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.breaker_level, 0);
  EXPECT_FALSE(good.degraded);
  server.shutdown();
}


// ----- DecodeBatch: stacked steps of independent streams ---------------------

/// Every KV format the batched step is pinned under: fp32, each format at
/// 8 bits, and AdaptivFloat at 6 and 4 bits.
std::vector<KvCacheFormat> batch_kv_formats() {
  std::vector<KvCacheFormat> out = {KvCacheFormat{}};
  for (FormatKind kind : all_format_kinds()) out.push_back({true, kind, 8});
  out.push_back({true, FormatKind::kAdaptivFloat, 6});
  out.push_back({true, FormatKind::kAdaptivFloat, 4});
  return out;
}

std::vector<const KernelBackend*> test_backends() {
  std::vector<const KernelBackend*> out = {&scalar_backend()};
  if (const KernelBackend* avx2 = avx2_backend()) out.push_back(avx2);
  return out;
}

bool row_bit_equal(const Tensor& stacked, std::int64_t row,
                   const Tensor& solo) {
  const std::int64_t n = solo.numel();
  return stacked.rank() == 2 && stacked.dim(1) == n &&
         std::memcmp(stacked.data() + row * n, solo.data(),
                     static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

TEST(DecodeBatch, StackedStepsMatchSoloStepsBitForBit) {
  // S streams at staggered positions and source lengths step together;
  // each joins at its own tick, leaves after its own length and rejoins on
  // a new source. Every batched logits row must equal, bit for bit, what
  // the same stream's solo step returns — for every KV format, backend,
  // batch width and thread count.
  ThreadCountRestorer restore;
  TransformerBundle b(481, tiny_transformer_config());
  calibrate_transformer_kv(b, 2, 482);
  Pcg32 rng(483);
  std::vector<TokenSeq> srcs;
  for (int i = 0; i < 40; ++i) srcs.push_back(b.task.sample(rng).source);
  constexpr int kTicks = 12;

  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const KernelBackend* be : test_backends()) {
      for (const KvCacheFormat& kv : batch_kv_formats()) {
        for (const std::size_t s : {1, 2, 3, 16}) {
          TransformerDecoder::Options opts;
          opts.kv = kv;
          opts.max_steps = 10;
          opts.ctx.backend = be;
          std::vector<std::unique_ptr<TransformerDecoder>> solo, batched;
          for (std::size_t r = 0; r < s; ++r) {
            solo.push_back(std::make_unique<TransformerDecoder>(b.model, opts));
            batched.push_back(
                std::make_unique<TransformerDecoder>(b.model, opts));
          }
          // Stream r joins at tick r % 3, runs 2 + (r * 5) % 7 steps,
          // leaves for one tick and rejoins on the next source.
          std::vector<int> left(s, 0), next_src(s, 0);
          std::vector<std::int64_t> last(s, TranslationTask::kBos);
          std::vector<bool> live(s, false);
          Arena scratch;
          int rows_checked = 0;
          for (int tick = 0; tick < kTicks; ++tick) {
            std::vector<TransformerDecoder*> decs;
            std::vector<std::int64_t> ids;
            std::vector<Tensor> expect;
            for (std::size_t r = 0; r < s; ++r) {
              if (!live[r] && tick >= static_cast<int>(r % 3)) {
                const TokenSeq& src =
                    srcs[(r * 3 + static_cast<std::size_t>(next_src[r]++)) %
                         srcs.size()];
                solo[r]->begin(src, TranslationTask::kPad);
                batched[r]->begin(src, TranslationTask::kPad);
                left[r] = 2 + static_cast<int>((r * 5) % 7);
                last[r] = TranslationTask::kBos;
                live[r] = true;
                continue;  // joins at the next tick
              }
              if (!live[r]) continue;
              expect.push_back(solo[r]->step({last[r]}));
              decs.push_back(batched[r].get());
              ids.push_back(last[r]);
              last[r] = argmax_rows(expect.back())[0];
              if (--left[r] == 0) live[r] = false;
            }
            if (decs.empty()) continue;
            const Tensor logits =
                TransformerDecoder::step_batch(decs, ids, scratch);
            ASSERT_EQ(logits.dim(0), static_cast<std::int64_t>(decs.size()));
            for (std::size_t k = 0; k < decs.size(); ++k) {
              ++rows_checked;
              EXPECT_TRUE(row_bit_equal(logits, static_cast<std::int64_t>(k),
                                        expect[k]))
                  << "kv="
                  << (kv.quantized ? format_kind_name(kv.kind) : "fp32")
                  << "/" << kv.bits << " backend=" << be->name
                  << " threads=" << threads << " S=" << s << " tick=" << tick
                  << " row=" << k;
            }
          }
          EXPECT_GT(rows_checked, 0);
        }
      }
    }
  }
}

TEST(DecodeBatch, SteadyStateBatchedStepAllocatesNoTensors) {
  // The stacked forward runs in the caller's scratch arena: once a first
  // sequence has grown it, a batched step makes no tensor heap allocation.
  TransformerBundle b(485, tiny_transformer_config());
  calibrate_transformer_kv(b, 2, 486);
  TransformerDecoder::Options opts;
  opts.kv = {true, FormatKind::kAdaptivFloat, 8};
  std::vector<std::unique_ptr<TransformerDecoder>> decs;
  std::vector<TransformerDecoder*> ptrs;
  for (int r = 0; r < 4; ++r) {
    decs.push_back(std::make_unique<TransformerDecoder>(b.model, opts));
    ptrs.push_back(decs.back().get());
  }
  Pcg32 rng(487);
  Arena scratch;
  for (int seq = 0; seq < 2; ++seq) {
    for (TransformerDecoder* d : ptrs) {
      d->begin(b.task.sample(rng).source, TranslationTask::kPad);
    }
    std::vector<std::int64_t> ids(ptrs.size(), TranslationTask::kBos);
    for (int step = 0; step < 12; ++step) {
      const std::int64_t before = tensor_heap_allocs_this_thread();
      ids = argmax_rows(TransformerDecoder::step_batch(ptrs, ids, scratch));
      const std::int64_t allocs = tensor_heap_allocs_this_thread() - before;
      if (seq > 0) {
        EXPECT_EQ(allocs, 0) << "step=" << step;
        EXPECT_EQ(ptrs.front()->last_step_heap_allocs(), 0);
      }
    }
    for (TransformerDecoder* d : ptrs) EXPECT_EQ(d->position(), 12);
  }
}

TEST(DecodeBatch, MemberDefectsFailOnlyThatMember) {
  // Through TransformerStreamDecoder::step_batch: an out-of-vocab token, a
  // spent plan and a stream never opened fail their own slots typed,
  // before anything is appended; the healthy members step together and a
  // decoder of another model steps on its own. Each healthy token equals a
  // solo step's, and the failed members decode afterwards as if the batch
  // never happened.
  TransformerBundle b(491, tiny_transformer_config());
  TransformerBundle other(492, tiny_transformer_config());
  const auto make = [](TransformerMT& model, std::int64_t max_steps) {
    TransformerDecoder::Options o;
    o.max_steps = max_steps;
    return std::make_unique<TransformerStreamDecoder>(
        model, o, TranslationTask::kPad, TranslationTask::kBos,
        TranslationTask::kEos);
  };
  Pcg32 rng(493);
  const TokenSeq src_a = b.task.sample(rng).source;
  const TokenSeq src_b = b.task.sample(rng).source;

  auto good1 = make(b.model, 0), oov = make(b.model, 0);
  auto spent = make(b.model, 1), unopened = make(b.model, 0);
  auto good2 = make(b.model, 0), foreign = make(other.model, 0);
  good1->open(src_a);
  oov->open(src_b);
  spent->open(src_a);
  good2->open(src_b);
  foreign->open(src_a);
  spent->step(TranslationTask::kBos);  // its one planned step is used up

  std::vector<DecodeStepSlot> slots(6);
  StreamDecoder* members[] = {good1.get(),    oov.get(),   spent.get(),
                              unopened.get(), good2.get(), foreign.get()};
  const std::int64_t tokens[] = {TranslationTask::kBos, b.cfg.tgt_vocab,
                                 TranslationTask::kBos, TranslationTask::kBos,
                                 TranslationTask::kBos, TranslationTask::kBos};
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].decoder = members[i];
    slots[i].last_token = tokens[i];
  }
  Arena scratch;
  good1->step_batch(slots, scratch);

  const auto kind_of = [](const std::exception_ptr& e) {
    try {
      std::rethrow_exception(e);
    } catch (const FaultError& err) {
      return err.kind();
    } catch (...) {
    }
    return FaultKind::kUncorrectable;
  };
  for (const std::size_t bad : {1, 2, 3}) {
    ASSERT_TRUE(slots[bad].error) << bad;
    EXPECT_EQ(kind_of(slots[bad].error), FaultKind::kMalformedInput) << bad;
  }
  const auto solo_first = [&](TransformerMT& model, const TokenSeq& src) {
    auto ref = make(model, 0);
    ref->open(src);
    return ref->step(TranslationTask::kBos);
  };
  for (const std::size_t ok : {0, 4, 5}) EXPECT_FALSE(slots[ok].error) << ok;
  EXPECT_EQ(slots[0].token, solo_first(b.model, src_a));
  EXPECT_EQ(slots[4].token, solo_first(b.model, src_b));
  EXPECT_EQ(slots[5].token, solo_first(other.model, src_a));
  // Nothing was appended for the rejected out-of-vocab member.
  EXPECT_EQ(oov->step(TranslationTask::kBos), solo_first(b.model, src_b));
}

TEST(DecodeBatch, FullCacheRejectedBeforeAnyRowAppends) {
  // The attention step checks every stream's cache before it appends any
  // row, so one full cache leaves the others' lengths untouched.
  Pcg32 rng(495);
  MultiHeadAttention mha(8, 2, rng);
  ExecutionContext ec;
  KvState roomy, full;
  roomy.init(4, 8);
  full.init(1, 8);
  KvState* const only_full[] = {&full};
  mha.decode_self_step(Tensor::randn({1, 8}, rng), only_full, ec);
  KvState* const both[] = {&roomy, &full};
  EXPECT_THROW(mha.decode_self_step(Tensor::randn({2, 8}, rng), both, ec),
               FaultError);
  EXPECT_EQ(roomy.len(), 0);
  EXPECT_EQ(full.len(), 1);

  // The cross step takes one valid length per cache.
  KvState cross;
  cross.init(5, 8);
  mha.prefill_cross(Tensor::randn({1, 5, 8}, rng), cross, ec);
  const KvState* const one[] = {&cross};
  const std::int64_t two_lengths[] = {5, 5};
  EXPECT_THROW(mha.decode_cross_step(Tensor::randn({1, 8}, rng), one,
                                     two_lengths, ec),
               FaultError);
}

}  // namespace
}  // namespace af
