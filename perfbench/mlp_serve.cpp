// Workload mlp_serve: two tenants share one InferenceServer over an
// AF<8,3> MLP booted from a snapshot. Three of every four requests go to
// "fast" (ladder {kNone}: the LUT packed GEMM), one in four to "protected"
// (default {kAbftGuard, kGuard} ladder: ABFT over decoded FP32), so CPU
// splits roughly evenly between the kernel and resilience layers while the
// batcher, pack/scatter and queue stay saturated by a closed loop of 64
// outstanding requests.
#include <array>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <unordered_map>

#include "harness.hpp"
#include "src/models/quantized_mlp.hpp"
#include "src/nn/linear.hpp"
#include "src/serve/server.hpp"
#include "src/snapshot/snapshot.hpp"
#include "src/util/rng.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kModelSeed = 71;
constexpr std::int64_t kIn = 128, kHidden = 256, kOut = 32, kRows = 8;
constexpr int kMaxBatch = 8;
constexpr int kOutstanding = 64;
// Larger than kOutstanding: the closed loop keeps a window of 64
// consecutive request ids in flight, so a pool slot names exactly one
// in-flight request — which is how the traced forward finds its requests.
constexpr std::size_t kPool = 256;

bool is_protected(std::int64_t op) { return op % 4 == 3; }
// Traced slices record spans for one request group of four in eight
// (every group holds both tenants), which keeps the span store small.
bool sampled(std::int64_t op) { return op / 4 % 8 == 0; }
const char* tenant_of(std::int64_t op) {
  return is_protected(op) ? "protected" : "fast";
}

std::uint32_t bits_of(float f) {
  std::uint32_t u = 0;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// Traced-mode state shared with the forward wrappers on the workers.
struct ForwardTrace {
  WorkerTrace spans;
  /// First element of a request's input -> its pool slot (const after setup).
  std::unordered_map<std::uint32_t, std::size_t> slot_of;
  /// Pool slot -> id of the request currently using it.
  std::array<std::atomic<std::int64_t>, kPool> live_op{};

  std::mutex mu;  // guards the per-policy forward totals below
  std::int64_t rows[2] = {0, 0};     // [fast, protected]
  std::int64_t ns[2] = {0, 0};
};

/// Wraps the model forward; in traced slices records one forward span per
/// member request of the batch and per-policy forward time per row.
af::InferenceSession::ForwardFn traced_forward(
    std::shared_ptr<af::QuantizedMlp> m, ForwardTrace* trace) {
  return [m, trace](const af::Tensor& x, af::ExecutionContext& ctx) {
    if (!trace->spans.active()) return m->forward(x, ctx);
    const std::int64_t t0 = now_ns();
    af::Tensor y = m->forward(x, ctx);
    const std::int64_t t1 = now_ns();
    const std::int64_t rows = x.rank() == 2 ? x.dim(0) : 0;
    int matched = 0;
    for (std::int64_t r = 0; r + kRows <= rows; r += kRows) {
      auto it = trace->slot_of.find(bits_of(x.data()[r * kIn]));
      if (it == trace->slot_of.end()) continue;  // planning run on zeros
      const std::int64_t op =
          trace->live_op[it->second].load(std::memory_order_relaxed);
      if (sampled(op)) trace->spans.add({kSpanForward, t0, t1, op});
      ++matched;
    }
    if (matched > 0) {
      const int k = ctx.resilience == af::ResiliencePolicy::kNone ? 0 : 1;
      std::lock_guard<std::mutex> lk(trace->mu);
      trace->rows[k] += rows;
      trace->ns[k] += t1 - t0;
    }
    return y;
  };
}

struct Rig {
  std::shared_ptr<af::MappedSnapshot> snap;
  std::unique_ptr<af::InferenceServer> server;  // destroyed first
};

struct InFlight {
  std::int64_t op = 0;
  std::size_t slot = 0;
  std::int64_t slice_seq = -1;
  std::future<af::Response> fut;
  std::int64_t s0 = 0, s1 = 0;
};

class MlpLoop final : public ClosedLoop {
 public:
  explicit MlpLoop(const Options& opt)
      : snap_path_(opt.workdir + "/mlp_serve.afsnap") {
    // Model: quantized once on the "build machine" and persisted; every
    // cold start boots from the snapshot. The quantize-path model is the
    // solo reference the served outputs must match bit for bit.
    af::Pcg32 r1(kModelSeed, 1), r2(kModelSeed, 2);
    af::Linear fc1(kIn, kHidden, r1, true, "fc1");
    af::Linear fc2(kHidden, kOut, r2, true, "fc2");
    af::QuantizedMlp reference(fc1, fc2, 8, 3);
    reference.save(snap_path_);

    pool_.reserve(kPool);
    for (std::size_t p = 0; p < kPool; ++p) {
      for (std::uint64_t stream = 0;; ++stream) {
        af::Pcg32 rng(opt.seed, 0x1000 + p + stream * kPool);
        af::Tensor x = af::Tensor::randn({kRows, kIn}, rng);
        if (trace.slot_of.emplace(bits_of(x.data()[0]), p).second) {
          pool_.push_back(std::move(x));
          break;
        }
      }
    }

    // Solo references: one InferenceSession per tenant policy. Slot p
    // always serves the same tenant because kPool is a multiple of 4.
    auto fwd = [&reference](const af::Tensor& x, af::ExecutionContext& ctx) {
      return reference.forward(x, ctx);
    };
    af::SessionConfig fast_cfg, prot_cfg;
    fast_cfg.ctx.resilience = af::ResiliencePolicy::kNone;
    prot_cfg.ctx.resilience = af::ResiliencePolicy::kAbftGuard;
    af::InferenceSession fast(fwd, fast_cfg), prot(fwd, prot_cfg);
    for (std::size_t p = 0; p < kPool; ++p) {
      af::InferenceSession& s =
          is_protected(static_cast<std::int64_t>(p)) ? prot : fast;
      expected_.push_back(s.run(pool_[p]));
    }

    cfg_.workers = 2;
    cfg_.queue_capacity = 2 * kOutstanding;
    cfg_.queue_shards = 1;
    cfg_.batch.max_batch = kMaxBatch;
    cfg_.batch.coalesce_window = std::chrono::microseconds(500);
    cfg_.batch.plan_rows = kMaxBatch * kRows;
    split_cpus(cfg_.workers);
    boot(rig_);
  }

  bool idle() const override { return inflight_.empty(); }

  void fill(const LoopState& st) override {
    while (inflight_.size() < static_cast<std::size_t>(kOutstanding)) {
      if (!submit_next(st)) break;
    }
  }

  void complete_oldest(const LoopState& st) override {
    InFlight f = std::move(inflight_.front());
    inflight_.pop_front();
    const af::Response r = f.fut.get();
    const std::int64_t done = now_ns();
    check(r, f.slot);
    if (SliceSamples* s = st.slice) {
      // A one-shot response is its own first output: ttft is the latency.
      s->latency_us.add(r.total_us.count());
      s->ttft_us.add(r.total_us.count());
      s->queue_us.add(r.queue_us.count());
      s->coalesce_us.add(r.coalesce_us.count());
      s->submit_ns += static_cast<double>(f.s1 - f.s0);
      ++s->requests;
      ++s->ops;
    }
    if (st.keeps_spans(f.slice_seq) && sampled(f.op)) {
      timings.push_back({f.op, f.s0, f.s1, done, r.queue_us.count(),
                         r.coalesce_us.count(), r.total_us.count()});
    }
    if (st.follow == LoopState::kSubmit) submit_next(st);
  }

  double cold_start() override {
    Rig rig;
    return boot(rig);
  }

  af::InferenceServer& server() { return *rig_.server; }

  ForwardTrace trace;
  std::vector<OpTiming> timings;
  std::vector<double> open_ms;
  std::int64_t attempted = 0, wrong = 0, failed = 0;
  bool load_clean = true;
  af::SnapshotLoadReport last_load;

 private:
  void check(const af::Response& r, std::size_t slot) {
    ++attempted;
    const af::Tensor& want = expected_[slot];
    if (!r.ok) {
      ++failed;
    } else if (r.output.numel() != want.numel() ||
               std::memcmp(r.output.data(), want.data(),
                           static_cast<std::size_t>(want.numel()) *
                               sizeof(float)) != 0) {
      ++wrong;
    }
  }

  /// Cold start: open the snapshot, boot a QuantizedMlp per worker, start
  /// the server, and wait for the first response of each tenant.
  double boot(Rig& rig) {
    const std::int64_t t0 = now_ns();
    rig.snap = std::make_shared<af::MappedSnapshot>(
        af::MappedSnapshot::open(snap_path_));
    open_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    std::shared_ptr<af::MappedSnapshot> snap = rig.snap;
    ForwardTrace* tr = &trace;
    rig.server = std::make_unique<af::InferenceServer>(
        [snap, tr](int) {
          return traced_forward(std::make_shared<af::QuantizedMlp>(*snap), tr);
        },
        cfg_);
    af::TenantConfig fast;
    fast.name = "fast";
    fast.ladder = {af::ResiliencePolicy::kNone};
    rig.server->add_tenant(fast);
    af::TenantConfig prot;
    prot.name = "protected";
    rig.server->add_tenant(prot);

    std::future<af::Response> first[2];
    const std::size_t slots[2] = {0, 3};  // one fast, one protected
    for (int i = 0; i < 2; ++i) {
      af::Request req;
      req.tenant = tenant_of(static_cast<std::int64_t>(slots[i]));
      req.input = pool_[slots[i]];
      first[i] = rig.server->submit(std::move(req));
    }
    for (int i = 0; i < 2; ++i) check(first[i].get(), slots[i]);
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    last_load = rig.snap->report();
    load_clean = load_clean && last_load.clean();
    return s;
  }

  bool submit_next(const LoopState& st) {
    const std::int64_t op = next_op_++;
    const std::size_t slot = static_cast<std::size_t>(op) % kPool;
    trace.live_op[slot].store(op, std::memory_order_relaxed);
    af::Request req;
    req.tenant = tenant_of(op);
    req.input = pool_[slot];
    InFlight f;
    f.op = op;
    f.slot = slot;
    f.slice_seq = st.slice_seq;
    f.s0 = now_ns();
    try {
      f.fut = rig_.server->submit(std::move(req));
    } catch (const af::FaultError&) {
      ++attempted;
      ++failed;  // refused
      return false;
    }
    f.s1 = now_ns();
    inflight_.push_back(std::move(f));
    return true;
  }

  std::string snap_path_;
  std::vector<af::Tensor> pool_, expected_;
  af::ServerConfig cfg_;
  Rig rig_;
  std::deque<InFlight> inflight_;
  std::int64_t next_op_ = 0;
};

}  // namespace

Result run_mlp_serve(const Options& opt) {
  Result res;
  MlpLoop loop(opt);
  const LoopResult lr = run_loop(opt, loop, loop.trace.spans);
  af::InferenceServer& server = loop.server();
  server.shutdown();

  report_common(res, opt,
                {loop.attempted, loop.wrong, loop.failed, loop.load_clean,
                 "request"},
                lr);
  char line[160];
  std::snprintf(line, sizeof(line),
                "snapshot load: sections_repaired %lld sections_degraded "
                "%lld at every cold start (must be 0)",
                static_cast<long long>(loop.last_load.sections_repaired),
                static_cast<long long>(loop.last_load.sections_degraded));
  res.note(line);
  if (!opt.trace) return res;

  report_serving(res, lr, server.stats());
  std::int64_t clipped_ns = 0;
  const std::vector<Span> spans =
      build_spans(loop.timings, loop.trace.spans.take(), &clipped_ns);
  const SpanSummary sum = summarize_spans(spans, clipped_ns);
  res.add("runtime.batch_overhead_us",
          sum.self_us[kSpanExec] /
              static_cast<double>(std::max<std::int64_t>(sum.roots, 1)),
          "us");
  res.add("runtime.steady_state_allocs",
          static_cast<double>(server.max_steady_state_allocs()), "count");
  res.add("runtime.decoder_build_us", 0.0, "us");
  res.add("runtime.prefill_us", 0.0, "us");
  res.add("runtime.step_us_p50", 0.0, "us");
  const ForwardTrace& tr = loop.trace;
  const double fwd_row[2] = {
      tr.rows[0] > 0 ? static_cast<double>(tr.ns[0]) / 1e3 /
                           static_cast<double>(tr.rows[0])
                     : 0.0,
      tr.rows[1] > 0 ? static_cast<double>(tr.ns[1]) / 1e3 /
                           static_cast<double>(tr.rows[1])
                     : 0.0};
  res.add("models.forward_us_per_row.fast", fwd_row[0], "us");
  res.add("models.forward_us_per_row.protected", fwd_row[1], "us");
  res.add("models.kv_bytes_per_stream", 0.0, "B");
  res.add("kernels.kv_decode_bytes_per_token", 0.0, "B");
  res.add("kernels.gemm_flops_per_op",
          2.0 * kRows * (kIn * kHidden + kHidden * kOut), "flop");
  res.add("resilience.abft_extra_us_per_row", fwd_row[1] - fwd_row[0], "us");
  res.add("snapshot.open_ms", median(loop.open_ms), "ms");
  report_trace(res, opt, lr, kOutstanding, spans, sum);
  return res;
}

}  // namespace perfbench
