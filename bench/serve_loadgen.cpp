// Load harness for the serving core (src/serve/).
//
// Drives an InferenceServer over a packed AdaptivFloat MLP with seeded
// open-loop traffic — Poisson arrivals plus heavy-tail bursts, the arrival
// process every queueing result in DESIGN.md §13 assumes — and reports the
// latency distribution (p50/p99/p999), achieved throughput, and every shed/
// degrade/fail count the admission and breaker paths produce. A second arm
// replays the same traffic with a seeded FaultInjector wired into every
// worker's MACs, showing the breaker ladder absorbing a fault storm while
// the server keeps answering. A closed-loop drain arm (burst-submit, then
// drain) gives the saturation throughput bench_gate.py trends and floors.
// A many-stream decode arm serves 16 greedy Transformer streams over an
// 8-bit AdaptivFloat KV cache, first one stream at a time and then all 16
// at once, when a worker steps every queued stream in one stacked forward;
// it reports both aggregate tokens/s and the mean decode batch, and
// bench_gate.py floors their ratio.
//
// Modes:
//   serve_loadgen            — all arms, prints tables, writes
//                              BENCH_serve.json (--json PATH to move it).
//   serve_loadgen --verify   — deterministic digest mode: a fixed request
//                              set served with no deadlines and no faults,
//                              once serially and once per coalescing batch
//                              size in {4, 8, 16}; prints one digest line
//                              per request plus per-batch folds. Response
//                              bits are a pure function of the request
//                              (workers are serial-pinned and batch rows
//                              are independent), so the batched digests
//                              must equal the serial ones and CI diffs the
//                              whole output across AF_THREADS and worker
//                              counts. Then 16 decode streams on 3
//                              workers: one token digest per stream and a
//                              fold, each stream checked against a serial
//                              TransformerDecoder replay. Exits nonzero on
//                              any failed request, a batched/serial digest
//                              divergence, a decode stream diverging from
//                              its replay, or a steady-state heap
//                              allocation.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/models/quantized_mlp.hpp"
#include "src/models/trainer.hpp"
#include "src/models/transformer.hpp"
#include "src/nn/linear.hpp"
#include "src/resilience/fault_injector.hpp"
#include "src/resilience/guard.hpp"
#include "src/serve/server.hpp"
#include "src/tensor/ops.hpp"
#include "src/tensor/tensor.hpp"
#include "src/util/hash.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

#include "bench_util.hpp"

namespace af {
namespace {

using bench::tensor_digest;
using Clock = std::chrono::steady_clock;

// ----- model ----------------------------------------------------------------

constexpr std::uint64_t kModelSeed = 71;
constexpr std::int64_t kIn = 128, kHidden = 256, kOut = 32, kBatch = 8;

// One worker's model replica — the deployment-form QuantizedMlp from
// src/models/. Every worker builds from the same seed, so replicas are
// bit-identical and any worker may serve any request; its batched forward
// handles [m, kIn] for any m, the property the coalescing workers pack
// against.
InferenceServer::ForwardFactory make_factory() {
  return [](int /*worker*/) -> InferenceSession::ForwardFn {
    Pcg32 r1(kModelSeed, 1), r2(kModelSeed, 2);
    Linear fc1(kIn, kHidden, r1, true, "fc1");
    Linear fc2(kHidden, kOut, r2, true, "fc2");
    auto m = std::make_shared<QuantizedMlp>(fc1, fc2, 8, 3);
    return [m](const Tensor& x, ExecutionContext& ctx) {
      return m->forward(x, ctx);
    };
  };
}

// A small pool of distinct request payloads; request i sends pool[i % N].
std::vector<Tensor> make_inputs(std::size_t n, std::uint64_t seed) {
  std::vector<Tensor> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Pcg32 rng(seed + i);
    pool.push_back(Tensor::randn({kBatch, kIn}, rng));
  }
  return pool;
}

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto n = static_cast<double>(sorted_us.size());
  auto idx = static_cast<std::size_t>(std::ceil(q * n)) - 1;
  idx = std::min(idx, sorted_us.size() - 1);
  return sorted_us[idx];
}

// ----- decode streams -------------------------------------------------------

constexpr std::uint64_t kDecodeSeed = 83;
constexpr int kDecodeStreams = 16;
constexpr std::int64_t kPad = TranslationTask::kPad;
constexpr std::int64_t kBos = TranslationTask::kBos;
constexpr std::int64_t kEos = TranslationTask::kEos;

/// The seeded Transformer every decode arm serves (the perfbench decode
/// model: d 64, 4 heads, 2+2 layers, 128 positions), its calibrated AF8 KV
/// options and one seeded source per stream.
struct DecodeRig {
  TransformerBundle bundle{kDecodeSeed, [] {
                             TransformerConfig c;
                             c.max_len = 128;
                             return c;
                           }()};
  TransformerDecoder::Options opts;
  std::vector<TokenSeq> srcs;

  DecodeRig() {
    calibrate_transformer_kv(bundle, 4, kDecodeSeed + 1);
    opts.kv = {true, FormatKind::kAdaptivFloat, 8};
    Pcg32 rng(kDecodeSeed, 2);
    for (int i = 0; i < kDecodeStreams; ++i) {
      srcs.push_back(bundle.task.sample(rng).source);
    }
  }
};

/// Greedy tokens of every source through a plain TransformerDecoder, EOS
/// ignored: the serial replay the served streams must equal.
std::vector<TokenSeq> replay_decode(DecodeRig& rig, int steps) {
  TransformerDecoder dec(rig.bundle.model, rig.opts);
  std::vector<TokenSeq> out;
  for (const TokenSeq& src : rig.srcs) {
    dec.begin(src, kPad);
    TokenSeq toks;
    std::vector<std::int64_t> last = {kBos};
    for (int k = 0; k < steps; ++k) {
      last[0] = argmax_rows(dec.step(last))[0];
      toks.push_back(last[0]);
    }
    out.push_back(std::move(toks));
  }
  return out;
}

struct DecodeRun {
  std::vector<TokenSeq> tokens;  ///< per stream, in source order
  double wall_ms = 0.0;
  StatsSnapshot stats;
  bool ok = true;
};

/// Serves every source for `steps` greedy tokens (EOS ignored) through a
/// server with `workers` workers, keeping `live` streams open at once:
/// each stream is opened, stepped as soon as its last token arrives, and
/// closed. live = 1 is serial-stream decoding; with more, the workers'
/// queues hold several streams' steps and each worker steps them together.
DecodeRun serve_decode(DecodeRig& rig, int steps, int live, int workers) {
  ServerConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 4 * kDecodeStreams;
  cfg.queue_shards = 1;
  TransformerMT* model = &rig.bundle.model;
  const TransformerDecoder::Options opts = rig.opts;
  cfg.decoder_factory = [model, opts]() -> std::unique_ptr<StreamDecoder> {
    return std::make_unique<TransformerStreamDecoder>(*model, opts, kPad,
                                                      kBos, kEos);
  };
  // Decode-only traffic: the batch forward is never called.
  InferenceServer server(
      [](int) -> InferenceSession::ForwardFn {
        return [](const Tensor& x, ExecutionContext&) { return x; };
      },
      cfg);
  TenantConfig tenant;
  tenant.name = "decode";
  server.add_tenant(tenant);

  struct InFlight {
    std::size_t stream = 0;
    DecodeOp op = DecodeOp::kOpen;
    std::future<Response> fut;
  };
  DecodeRun run;
  run.tokens.resize(rig.srcs.size());
  std::deque<InFlight> inflight;
  std::size_t next = 0;
  const auto submit = [&](std::size_t stream, DecodeOp op,
                          std::int64_t last) {
    DecodeRequest req;
    req.tenant = "decode";
    req.stream = "s" + std::to_string(stream);
    req.op = op;
    req.last_token = last;
    if (op == DecodeOp::kOpen) req.src = rig.srcs[stream];
    inflight.push_back({stream, op, server.submit_decode(std::move(req))});
  };
  const auto open_next = [&] {
    if (next < rig.srcs.size()) submit(next++, DecodeOp::kOpen, -1);
  };

  const Clock::time_point start = Clock::now();
  for (int i = 0; i < live; ++i) open_next();
  while (!inflight.empty()) {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const Response r = f.fut.get();
    TokenSeq& toks = run.tokens[f.stream];
    if (!r.ok) {
      run.ok = false;
      open_next();
    } else if (f.op == DecodeOp::kClose) {
      open_next();
    } else {
      if (f.op == DecodeOp::kStep) toks.push_back(r.token);
      const bool done = static_cast<int>(toks.size()) >= steps;
      submit(f.stream, done ? DecodeOp::kClose : DecodeOp::kStep, r.token);
    }
  }
  run.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  server.shutdown();
  run.stats = server.stats();
  return run;
}

std::uint64_t digest_tokens(const TokenSeq& toks) {
  return fnv1a64(toks.data(), toks.size() * sizeof(std::int64_t), kFnvOffset);
}

// ----- verify mode ----------------------------------------------------------

constexpr int kVerifyRequests = 48;
constexpr int kVerifyWorkers = 3;

/// Serves the fixed verify request set once and returns the per-request
/// digests (0 for a failed request). With max_batch > 1 the workers
/// coalesce under a generous window; the digests must not change — each
/// response is bit-identical to its serial execution no matter which batch
/// it rode in, so this output is deterministic across batch sizes, worker
/// scheduling and AF_THREADS. Batch occupancy and timing are deliberately
/// NOT printed here (they are scheduling-dependent).
std::vector<std::uint64_t> serve_verify_pass(int max_batch, bool* all_ok,
                                             std::int64_t* steady_allocs) {
  ServerConfig cfg;
  cfg.workers = kVerifyWorkers;
  cfg.queue_capacity = kVerifyRequests;
  cfg.queue_shards = 2;
  cfg.batch.max_batch = max_batch;
  if (max_batch > 1) {
    cfg.batch.coalesce_window = std::chrono::milliseconds(5);
    cfg.batch.plan_rows = static_cast<std::int64_t>(max_batch) * kBatch;
  }
  InferenceServer server(make_factory(), cfg);

  auto guard = std::make_shared<LayerGuard>(
      "serve", GuardConfig{RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  TenantConfig tenant;
  tenant.name = "verify";
  tenant.guard = guard.get();
  server.add_tenant(tenant);

  const std::vector<Tensor> inputs = make_inputs(8, 91);
  std::vector<std::future<Response>> futs;
  futs.reserve(kVerifyRequests);
  for (int i = 0; i < kVerifyRequests; ++i) {
    Request req;
    req.tenant = "verify";
    req.input = inputs[static_cast<std::size_t>(i) % inputs.size()];
    futs.push_back(server.submit(std::move(req)));
  }

  std::vector<std::uint64_t> digests;
  digests.reserve(kVerifyRequests);
  for (auto& f : futs) {
    Response r = f.get();
    if (!r.ok || r.degraded) *all_ok = false;
    digests.push_back(r.ok ? tensor_digest(r.output) : 0);
  }
  server.shutdown();
  *steady_allocs = std::max(*steady_allocs, server.max_steady_state_allocs());
  return digests;
}

int run_verify_only() {
  bool ok = true;
  std::int64_t steady = 0;

  // Serial reference pass: batching off, the PR-8 single-request path.
  const std::vector<std::uint64_t> serial =
      serve_verify_pass(/*max_batch=*/1, &ok, &steady);
  std::uint64_t fold = kFnvOffset;
  for (int i = 0; i < kVerifyRequests; ++i) {
    const std::uint64_t dig = serial[static_cast<std::size_t>(i)];
    fold = fnv1a64(&dig, sizeof(dig), fold);
    ok = ok && dig != 0;
    std::printf("req %02d ok %d degraded 0 digest %s\n", i, dig != 0 ? 1 : 0,
                digest_hex(dig).c_str());
  }

  // Batched passes: every batch size must reproduce the serial digests
  // bit-for-bit, request by request.
  bool batch_equal = true;
  for (const int b : {4, 8, 16}) {
    const std::vector<std::uint64_t> batched =
        serve_verify_pass(b, &ok, &steady);
    bool equal = batched == serial;
    batch_equal = batch_equal && equal;
    std::uint64_t bfold = kFnvOffset;
    for (const std::uint64_t dig : batched) {
      bfold = fnv1a64(&dig, sizeof(dig), bfold);
    }
    std::printf("batch %02d fold %s matches_serial %d\n", b,
                digest_hex(bfold).c_str(), equal ? 1 : 0);
  }

  std::printf("fold %s steady_allocs %lld\n", digest_hex(fold).c_str(),
              static_cast<long long>(steady));

  // Decode streams: 16 live at once on 3 workers, so steps of several
  // streams share stacked forwards. Which streams share a step depends on
  // scheduling; no stream's tokens may.
  constexpr int kVerifySteps = 24;
  DecodeRig rig;
  const std::vector<TokenSeq> replay = replay_decode(rig, kVerifySteps);
  const DecodeRun served =
      serve_decode(rig, kVerifySteps, kDecodeStreams, kVerifyWorkers);
  bool decode_equal = served.ok;
  std::uint64_t decode_fold = kFnvOffset;
  for (std::size_t i = 0; i < replay.size(); ++i) {
    const std::uint64_t dig = digest_tokens(served.tokens[i]);
    const bool equal = served.tokens[i] == replay[i];
    decode_equal = decode_equal && equal;
    decode_fold = fnv1a64(&dig, sizeof(dig), decode_fold);
    std::printf("decode stream %02zu digest %s matches_serial %d\n", i,
                digest_hex(dig).c_str(), equal ? 1 : 0);
  }
  std::printf("decode fold %s matches_serial %d\n",
              digest_hex(decode_fold).c_str(), decode_equal ? 1 : 0);

  if (!ok || !batch_equal || steady != 0 || !decode_equal) {
    std::fprintf(stderr,
                 "serve_loadgen: verify failed (request error, degraded "
                 "clean-path response, batched digests diverging from "
                 "serial, steady-state allocation, or a decode stream "
                 "diverging from its serial replay)\n");
    return 1;
  }
  return 0;
}

// ----- load arms ------------------------------------------------------------

struct ArmResult {
  std::string name;
  int batch = 1;  ///< max_batch the arm served with
  double offered_rps = 0.0;
  double wall_ms = 0.0;
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;
  double throughput_rps = 0.0;
  double speedup_vs_b1 = 0.0;  ///< drain arms: throughput / batch-1 drain
  StatsSnapshot stats;
  std::int64_t breaker_opens = 0;
  std::int64_t breaker_step_downs = 0;
};

struct TrafficConfig {
  int requests = 1500;
  double rate_rps = 4000.0;   ///< open-loop offered rate
  double burst_prob = 0.04;   ///< per-arrival chance of a heavy-tail burst
  int burst_size = 24;        ///< back-to-back submissions per burst
  std::chrono::microseconds deadline{50000};
  std::uint64_t seed = 7;
  double fault_ber = 0.0;     ///< >0 wires a seeded FaultInjector per worker
};

ArmResult run_arm(const std::string& name, const TrafficConfig& t) {
  ServerConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 256;
  cfg.queue_shards = 4;
  if (t.fault_ber > 0.0) {
    const double ber = t.fault_ber;
    const std::uint64_t seed = t.seed;
    cfg.mac_hook_factory =
        [ber, seed](int worker) -> std::unique_ptr<PeFaultHook> {
      FaultConfig fc;
      fc.bit_error_rate = ber;
      fc.seed = seed + static_cast<std::uint64_t>(worker) * 1000003ULL;
      return std::make_unique<FaultInjector>(fc);
    };
  }
  InferenceServer server(make_factory(), cfg);

  // kRecompute guard: ABFT detections beyond the rerun budget throw
  // kUncorrectable (recoverable -> retried -> breaker fault) instead of
  // silently passing corrupted values through.
  auto guard = std::make_shared<LayerGuard>(
      "serve", GuardConfig{RecoveryPolicy::kRecompute, 1, 0.0f});
  TenantConfig tenant;
  tenant.name = "load";
  tenant.guard = guard.get();
  tenant.use_mac_hook = t.fault_ber > 0.0;
  tenant.retry.max_retries = 2;
  tenant.retry.backoff_base = std::chrono::microseconds(100);
  tenant.default_deadline = t.deadline;
  server.add_tenant(tenant);

  const std::vector<Tensor> inputs = make_inputs(16, t.seed + 101);
  Pcg32 arrivals(t.seed, 11);

  std::vector<std::future<Response>> futs;
  futs.reserve(static_cast<std::size_t>(t.requests));
  const Clock::time_point start = Clock::now();
  Clock::time_point next = start;
  int submitted = 0, burst_left = 0;
  while (submitted < t.requests) {
    if (burst_left == 0) {
      // Exponential inter-arrival gap; occasionally a heavy-tail burst
      // lands the next `burst_size` requests back-to-back.
      const double u = std::max(arrivals.next_double(), 1e-12);
      next += std::chrono::microseconds(
          static_cast<std::int64_t>(-std::log(u) / t.rate_rps * 1e6));
      if (arrivals.next_double() < t.burst_prob) burst_left = t.burst_size;
      std::this_thread::sleep_until(next);
    } else {
      --burst_left;
    }
    Request req;
    req.tenant = "load";
    req.input = inputs[static_cast<std::size_t>(submitted) % inputs.size()];
    try {
      futs.push_back(server.submit(std::move(req)));
    } catch (const FaultError&) {
      // Admission shed (overload / breaker open) — already counted in the
      // server stats; the open-loop generator just moves on.
    }
    ++submitted;
  }

  std::vector<double> lat_us;
  lat_us.reserve(futs.size());
  for (auto& f : futs) {
    Response r = f.get();
    if (r.ok) lat_us.push_back(static_cast<double>(r.total_us.count()));
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  // Join the workers before snapshotting: counters are bumped after the
  // response future is delivered, so a live snapshot could run one short.
  server.shutdown();

  ArmResult a;
  a.name = name;
  a.offered_rps = t.rate_rps;
  a.wall_ms = wall_ms;
  a.stats = server.stats();
  std::sort(lat_us.begin(), lat_us.end());
  a.p50_us = percentile(lat_us, 0.50);
  a.p99_us = percentile(lat_us, 0.99);
  a.p999_us = percentile(lat_us, 0.999);
  a.throughput_rps =
      static_cast<double>(a.stats.completed) / (wall_ms / 1000.0);
  const HealthReport h = server.health();
  for (const TenantHealth& th : h.tenants) {
    a.breaker_opens += th.breaker.opens;
    a.breaker_step_downs += th.breaker.step_downs;
  }
  return a;
}

// Closed-loop saturation arm: burst-submit a fixed batch with no pacing and
// no deadlines, then drain. Wall time measures how fast the worker pool can
// chew through a full queue — the perf-trend throughput metric (open-loop
// throughput only echoes the offered rate). With max_batch > 1 the workers
// coalesce the full queue into packed forwards, amortizing the LUT decode
// of the weight panels across batch rows — the micro-batching speedup
// bench_gate.py's batch-8 floor holds ("drain" stays batch=1 for baseline
// continuity; the drain_bN arms sweep the batch sizes).
ArmResult run_drain_arm(const std::string& name, int requests,
                        int max_batch) {
  ServerConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = requests;
  cfg.queue_shards = 4;
  cfg.batch.max_batch = max_batch;
  if (max_batch > 1) {
    // The queue is pre-filled, so matches are found immediately — a tiny
    // window covers pop/push races without adding idle tail latency.
    cfg.batch.coalesce_window = std::chrono::microseconds(500);
    cfg.batch.plan_rows = static_cast<std::int64_t>(max_batch) * kBatch;
  }
  InferenceServer server(make_factory(), cfg);

  auto guard = std::make_shared<LayerGuard>(
      "serve", GuardConfig{RecoveryPolicy::kDegradeToZero, 1, 0.0f});
  TenantConfig tenant;
  tenant.name = "drain";
  tenant.guard = guard.get();
  server.add_tenant(tenant);

  const std::vector<Tensor> inputs = make_inputs(16, 301);
  std::vector<std::future<Response>> futs;
  futs.reserve(static_cast<std::size_t>(requests));
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < requests; ++i) {
    Request req;
    req.tenant = "drain";
    req.input = inputs[static_cast<std::size_t>(i) % inputs.size()];
    futs.push_back(server.submit(std::move(req)));
  }
  for (auto& f : futs) f.get();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();

  server.shutdown();

  ArmResult a;
  a.name = name;
  a.batch = max_batch;
  a.wall_ms = wall_ms;
  a.stats = server.stats();
  a.throughput_rps =
      static_cast<double>(a.stats.completed) / (wall_ms / 1000.0);
  return a;
}

// Many-stream decode arm: aggregate tokens/s of 16 streams decoded one at
// a time against all 16 live at once on one worker, best of kDecodeReps
// runs each, and the mean decode batch of the concurrent run.
struct DecodeArm {
  int streams = kDecodeStreams;
  int steps = 0;
  double serial_tokens_per_s = 0.0;
  double batched_tokens_per_s = 0.0;
  double mean_decode_batch = 0.0;
  bool ok = true;
};

DecodeArm run_decode_arm() {
  constexpr int kSteps = 96;
  constexpr int kDecodeReps = 3;
  DecodeRig rig;
  const std::vector<TokenSeq> replay = replay_decode(rig, kSteps);
  DecodeArm a;
  a.steps = kSteps;
  const double tokens = static_cast<double>(kDecodeStreams) * kSteps;
  for (int rep = 0; rep < kDecodeReps; ++rep) {
    for (const int live : {1, kDecodeStreams}) {
      const DecodeRun r = serve_decode(rig, kSteps, live, /*workers=*/1);
      a.ok = a.ok && r.ok && r.tokens == replay;
      const double tps = tokens / (r.wall_ms / 1000.0);
      if (live == 1) {
        a.serial_tokens_per_s = std::max(a.serial_tokens_per_s, tps);
      } else if (tps > a.batched_tokens_per_s) {
        a.batched_tokens_per_s = tps;
        a.mean_decode_batch =
            r.stats.decode_batches > 0
                ? static_cast<double>(r.stats.decode_steps) /
                      static_cast<double>(r.stats.decode_batches)
                : 0.0;
      }
    }
  }
  return a;
}

int run_bench(const char* json_path) {
  std::vector<ArmResult> arms;

  TrafficConfig baseline;
  arms.push_back(run_arm("steady", baseline));

  TrafficConfig storm = baseline;
  storm.fault_ber = 2e-4;
  arms.push_back(run_arm("faults", storm));

  // Micro-batching sweep: same closed-loop workload, batch in {1, 4, 8,
  // 16}. "drain" is the batch-1 baseline the perf trend has always
  // tracked; speedup_vs_b1 quantifies the decode-amortization win.
  constexpr int kDrainRequests = 512;
  arms.push_back(run_drain_arm("drain", kDrainRequests, 1));
  const double drain_b1_tput = arms.back().throughput_rps;
  for (const int b : {4, 8, 16}) {
    arms.push_back(
        run_drain_arm("drain_b" + std::to_string(b), kDrainRequests, b));
    arms.back().speedup_vs_b1 =
        drain_b1_tput > 0.0 ? arms.back().throughput_rps / drain_b1_tput : 0.0;
  }

  TextTable table("serve_loadgen: open-loop Poisson+burst traffic");
  table.set_header({"Arm", "Batch", "Offered rps", "Done", "Shed", "Degraded",
                    "Failed", "p50 us", "p99 us", "p99.9 us", "Tput rps",
                    "Speedup"});
  for (const ArmResult& a : arms) {
    const std::int64_t shed = a.stats.rejected_overload +
                              a.stats.rejected_open + a.stats.shed_deadline;
    table.add_row({a.name, std::to_string(a.batch),
                   a.offered_rps > 0 ? fmt_fixed(a.offered_rps, 0) : "closed",
                   std::to_string(a.stats.completed), std::to_string(shed),
                   std::to_string(a.stats.degraded),
                   std::to_string(a.stats.failed), fmt_fixed(a.p50_us, 0),
                   fmt_fixed(a.p99_us, 0), fmt_fixed(a.p999_us, 0),
                   fmt_fixed(a.throughput_rps, 0),
                   a.speedup_vs_b1 > 0.0 ? fmt_fixed(a.speedup_vs_b1, 2)
                                         : "-"});
  }
  table.print();
  std::printf("\n");

  const DecodeArm dec = run_decode_arm();
  const double dec_speedup =
      dec.serial_tokens_per_s > 0.0
          ? dec.batched_tokens_per_s / dec.serial_tokens_per_s
          : 0.0;
  TextTable dec_table("serve_loadgen: " + std::to_string(dec.streams) +
                      " decode streams x " + std::to_string(dec.steps) +
                      " steps, AF8 KV, one worker");
  dec_table.set_header({"Streams live", "Tokens/s", "Mean decode batch",
                        "Speedup"});
  dec_table.add_row({"1 (serial)", fmt_fixed(dec.serial_tokens_per_s, 0), "1",
                     "-"});
  dec_table.add_row({std::to_string(dec.streams),
                     fmt_fixed(dec.batched_tokens_per_s, 0),
                     fmt_fixed(dec.mean_decode_batch, 2),
                     fmt_fixed(dec_speedup, 2)});
  dec_table.print();
  std::printf("\n");

  std::string json = "  \"bench\": \"serve_loadgen\",\n";
  {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  \"decode\": {\"streams\": %d, \"steps\": %d, "
                  "\"serial_tokens_per_s\": %.1f, "
                  "\"batched_tokens_per_s\": %.1f, "
                  "\"speedup_vs_serial\": %.3f, "
                  "\"mean_decode_batch\": %.2f},\n",
                  dec.streams, dec.steps, dec.serial_tokens_per_s,
                  dec.batched_tokens_per_s, dec_speedup,
                  dec.mean_decode_batch);
    json += buf;
  }
  json += "  \"arms\": [\n";
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const ArmResult& a = arms[i];
    const double mean_occupancy =
        a.stats.batches_executed > 0
            ? static_cast<double>(a.stats.batched_requests) /
                  static_cast<double>(a.stats.batches_executed)
            : 0.0;
    char buf[960];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"batch\": %d, \"offered_rps\": %.1f, "
        "\"wall_ms\": %.1f, "
        "\"submitted\": %lld, \"completed\": %lld, \"rejected_overload\": "
        "%lld, \"rejected_open\": %lld, \"shed_deadline\": %lld, "
        "\"deadline_missed\": %lld, \"degraded\": %lld, \"failed\": %lld, "
        "\"retries\": %lld, \"breaker_opens\": %lld, \"breaker_step_downs\": "
        "%lld, \"p50_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, "
        "\"queue_wait_p50_us\": %lld, \"queue_wait_p99_us\": %lld, "
        "\"mean_occupancy\": %.2f, \"coalesce_wait_us\": %lld, "
        "\"throughput_rps\": %.1f, \"drain_speedup_vs_b1\": %.3f}%s\n",
        a.name.c_str(), a.batch, a.offered_rps, a.wall_ms,
        static_cast<long long>(a.stats.submitted),
        static_cast<long long>(a.stats.completed),
        static_cast<long long>(a.stats.rejected_overload),
        static_cast<long long>(a.stats.rejected_open),
        static_cast<long long>(a.stats.shed_deadline),
        static_cast<long long>(a.stats.deadline_missed),
        static_cast<long long>(a.stats.degraded),
        static_cast<long long>(a.stats.failed),
        static_cast<long long>(a.stats.retries),
        static_cast<long long>(a.breaker_opens),
        static_cast<long long>(a.breaker_step_downs), a.p50_us, a.p99_us,
        a.p999_us,
        static_cast<long long>(a.stats.queue_wait_percentile_us(0.50)),
        static_cast<long long>(a.stats.queue_wait_percentile_us(0.99)),
        mean_occupancy, static_cast<long long>(a.stats.coalesce_wait_us),
        a.throughput_rps, a.speedup_vs_b1, i + 1 < arms.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n";
  const bool wrote = bench::write_artifact(json_path, json);

  // The no-fault arms must not fail a single request; the storm arm must
  // keep completing (the whole point of the ladder); every decode stream
  // must emit its serial replay's tokens. The batch-8 drain and decode
  // speedup floors are checked on the artifact by bench_gate.py.
  const ArmResult& steady = arms[0];
  const ArmResult& faults = arms[1];
  bool drain_failed = false;
  for (const ArmResult& a : arms) {
    if (a.name.rfind("drain", 0) == 0 && a.stats.failed > 0) {
      drain_failed = true;
    }
  }
  if (steady.stats.failed - steady.stats.shed_deadline -
              steady.stats.deadline_missed >
          0 ||
      drain_failed || faults.stats.completed == 0 || !dec.ok) {
    std::fprintf(stderr,
                 "serve_loadgen: clean-arm failures, zero completions under "
                 "faults, or a decode stream failing or diverging from its "
                 "serial replay\n");
    return 1;
  }
  return wrote ? 0 : 1;
}

}  // namespace
}  // namespace af

int main(int argc, char** argv) {
  return af::bench::bench_main(argc, argv, "BENCH_serve.json",
                               af::run_verify_only, af::run_bench);
}
