// Decode workloads: 16 concurrent greedy streams through
// InferenceServer::submit_decode, each stream open -> N steps -> close,
// every step resubmitted as soon as its token arrives.
//
//   decode_long_af8   — max_len 128, AdaptivFloat 8-bit packed KV cache,
//                       120 steps per stream: per-token cost is attention
//                       over a long quantized history (KvState::rows
//                       re-decodes the cache every step).
//   decode_short_fp32 — max_len 48, fp32 KV, 12 steps per stream: stream
//                       churn dominated by decoder construction, encoder
//                       prefill and the first token; no quantized decode.
#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "harness.hpp"
#include "src/models/trainer.hpp"
#include "src/models/transformer.hpp"
#include "src/serve/server.hpp"
#include "src/tensor/ops.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kModelSeed = 29;
constexpr std::uint64_t kCalibSeed = 31;
constexpr int kCalibBatches = 4;
constexpr int kStreams = 16;
// Sources per stream slot: slot j uses sources j, j+16, ... so two live
// streams never share a source (the traced decoder finds its stream by it).
constexpr int kSrcRounds = 8;
constexpr std::size_t kSrcPool = kStreams * kSrcRounds;
// Traced slices record the spans of one stream in this many.
constexpr int kTraceEveryStream = 4;
constexpr std::int64_t kPad = af::TranslationTask::kPad;
constexpr std::int64_t kBos = af::TranslationTask::kBos;
constexpr std::int64_t kEos = af::TranslationTask::kEos;

struct Spec {
  std::int64_t max_len;
  bool quantized;
  int steps;
};

Spec spec_of(const std::string& workload) {
  if (workload == "decode_long_af8") return {128, true, 120};
  return {48, false, 12};  // decode_short_fp32
}

af::TransformerConfig model_config(const Spec& s) {
  af::TransformerConfig cfg;  // d=64, 4 heads, ffn 128, 2+2 layers
  cfg.max_len = s.max_len;
  return cfg;
}

af::TransformerDecoder::Options decoder_options(const Spec& s) {
  af::TransformerDecoder::Options o;
  o.kv.quantized = s.quantized;
  o.kv.kind = af::FormatKind::kAdaptivFloat;
  o.kv.bits = 8;
  return o;
}

/// Operation ids are a pure function of (stream instance, position):
/// open, steps 1..N, close — so worker spans can name their operation.
std::int64_t op_id(std::int64_t instance, int steps, int k) {
  return instance * (steps + 2) + k;
}

/// Traced-mode state shared with the decoder wrappers on the workers.
struct DecodeTrace {
  WorkerTrace spans;
  int steps = 0;
  std::map<af::TokenSeq, std::size_t> slot_of;  // source -> pool index
  std::array<std::atomic<std::int64_t>, kSrcPool> live_instance{};

  std::mutex mu;  // guards kv_bytes
  std::vector<double> kv_bytes;  // cache_bytes() of full streams at close
};

/// StreamDecoder wrapper timing the calls into the runtime layer.
class TracedStreamDecoder final : public af::StreamDecoder {
 public:
  TracedStreamDecoder(std::unique_ptr<af::StreamDecoder> inner,
                      DecodeTrace& trace, std::int64_t build_start,
                      std::int64_t build_end)
      : inner_(std::move(inner)),
        trace_(trace),
        build_start_(build_start),
        build_end_(build_end) {}

  ~TracedStreamDecoder() override {
    if (steps_done_ == trace_.steps && instance_ >= 0) {
      std::lock_guard<std::mutex> lk(trace_.mu);
      trace_.kv_bytes.push_back(static_cast<double>(inner_->cache_bytes()));
    }
  }

  void open(const std::vector<std::int64_t>& src) override {
    const std::int64_t t0 = now_ns();
    inner_->open(src);
    const std::int64_t t1 = now_ns();
    auto it = trace_.slot_of.find(src);
    if (it != trace_.slot_of.end()) {
      instance_ =
          trace_.live_instance[it->second].load(std::memory_order_relaxed);
    }
    if (instance_ < 0 || instance_ % kTraceEveryStream != 0) {
      instance_ = -1;  // not a sampled stream
      return;
    }
    const std::int64_t op = op_id(instance_, trace_.steps, 0);
    trace_.spans.add({kSpanDecoderBuild, build_start_, build_end_, op});
    trace_.spans.add({kSpanPrefill, t0, t1, op});
  }

  std::int64_t step(std::int64_t last_token) override {
    const std::int64_t t0 = now_ns();
    const std::int64_t tok = inner_->step(last_token);
    const std::int64_t t1 = now_ns();
    ++steps_done_;
    if (instance_ >= 0 && trace_.spans.active()) {
      trace_.spans.add(
          {kSpanStep, t0, t1, op_id(instance_, trace_.steps, steps_done_)});
    }
    return tok;
  }

  std::int64_t bos_token() const override { return inner_->bos_token(); }
  std::int64_t eos_token() const override { return inner_->eos_token(); }
  std::size_t cache_bytes() const override { return inner_->cache_bytes(); }

 private:
  std::unique_ptr<af::StreamDecoder> inner_;
  DecodeTrace& trace_;
  std::int64_t build_start_, build_end_;
  std::int64_t instance_ = -1;
  int steps_done_ = 0;
};

struct Rig {
  std::unique_ptr<af::TransformerBundle> bundle;  // outlives the server
  std::unique_ptr<af::InferenceServer> server;
};

struct Slot {
  std::int64_t instance = -1;
  std::size_t src = 0;
  int target_steps = 0;  ///< steps this stream runs (shorter at the start)
  int steps = 0;         ///< tokens received so far
  std::int64_t last = 0;
  std::int64_t open_s0 = 0;
  bool measured = false;  ///< span trees kept for this stream
};

struct InFlight {
  int slot = 0;
  af::DecodeOp op = af::DecodeOp::kStep;
  std::int64_t op_id = 0;
  std::int64_t slice_seq = -1;
  std::future<af::Response> fut;
  std::int64_t s0 = 0, s1 = 0;
};

class DecodeLoop final : public ClosedLoop {
 public:
  explicit DecodeLoop(const Options& opt)
      : spec_(spec_of(opt.workload)),
        mcfg_(model_config(spec_)),
        dopts_(decoder_options(spec_)) {
    trace.steps = spec_.steps;
    for (auto& a : trace.live_instance) a.store(-1, std::memory_order_relaxed);

    // Seeded, pairwise-distinct sources (5-9 tokens).
    af::TranslationTask task(mcfg_.src_vocab, 5, 9, kModelSeed);
    af::Pcg32 rng(opt.seed, 0xdec0de);
    while (srcs_.size() < kSrcPool) {
      af::TokenSeq s = task.sample(rng).source;
      if (trace.slot_of.emplace(s, srcs_.size()).second) srcs_.push_back(s);
    }

    // Offline references: an independently built copy of the seeded model
    // and KV format through a plain TransformerDecoder, greedy, EOS ignored
    // (fixed work per stream).
    af::TransformerBundle ref(kModelSeed, mcfg_);
    af::calibrate_transformer_kv(ref, kCalibBatches, kCalibSeed);
    af::TransformerDecoder dec(ref.model, dopts_);
    for (const af::TokenSeq& src : srcs_) {
      dec.begin(src, kPad);
      af::TokenSeq toks;
      std::vector<std::int64_t> last = {kBos};
      for (int k = 0; k < spec_.steps; ++k) {
        last[0] = af::argmax_rows(dec.step(last))[0];
        toks.push_back(last[0]);
      }
      expected_.push_back(std::move(toks));
    }

    // One worker: on a shared 4-vCPU host, two decode workers slowed each
    // other by an amount that changed from run to run (CPU per token
    // spread about 40% across runs with two workers against under 20% with
    // one).
    cfg_.workers = 1;
    cfg_.queue_capacity = 4 * kStreams;
    cfg_.queue_shards = 1;
    split_cpus(cfg_.workers);
    boot(rig_);
  }

  bool idle() const override { return inflight_.empty(); }

  void fill(const LoopState& st) override {
    if (!started_) {
      // Staggered first streams: slot j's first stream is cut to (16-j)/16
      // of the full length, so the streams' positions — and with them the
      // per-token attention cost — are spread evenly from the start
      // instead of moving in lockstep.
      started_ = true;
      for (int si = 0; si < kStreams; ++si) {
        open_stream(st, si,
                    std::max(1, spec_.steps * (kStreams - si) / kStreams));
      }
      return;
    }
    std::vector<std::pair<int, af::DecodeOp>> held;
    held.swap(held_);
    for (const auto& [si, op] : held) issue(st, si, op);
  }

  void complete_oldest(const LoopState& st) override {
    InFlight f = std::move(inflight_.front());
    inflight_.pop_front();
    const af::Response r = f.fut.get();
    const std::int64_t done = now_ns();
    Slot& s = slots_[static_cast<std::size_t>(f.slot)];
    ++attempted;
    SliceSamples* sl = st.slice;
    if (sl != nullptr) {
      sl->queue_us.add(r.queue_us.count());
      sl->submit_ns += static_cast<double>(f.s1 - f.s0);
      ++sl->requests;
    }
    // A stream's decoder wrapper records spans only when its open ran in
    // a traced slice; the open's own tree tells.
    const bool keep = st.keeps_spans(f.slice_seq);
    if (f.op == af::DecodeOp::kOpen) {
      s.measured = keep && r.ok && s.instance % kTraceEveryStream == 0;
    }
    if (keep && s.measured) {
      timings.push_back({f.op_id, f.s0, f.s1, done, r.queue_us.count(),
                         r.coalesce_us.count(), r.total_us.count()});
    }

    const bool winding = st.follow == LoopState::kWindDown;
    if (!r.ok) {
      // The server evicts a failed stream; start a fresh one.
      ++failed;
      if (!winding) follow(st, f.slot, af::DecodeOp::kOpen);
    } else if (f.op == af::DecodeOp::kOpen) {
      if (r.token != kBos) ++wrong;
      s.last = r.token;
      follow(st, f.slot, winding ? af::DecodeOp::kClose : af::DecodeOp::kStep);
    } else if (f.op == af::DecodeOp::kStep) {
      if (r.token != expected_[s.src][static_cast<std::size_t>(s.steps)]) {
        ++wrong;
      }
      s.last = r.token;
      ++s.steps;
      if (sl != nullptr) {
        sl->latency_us.add(r.total_us.count());
        if (s.steps == 1) {
          sl->ttft_us.add((f.s0 + r.total_us.count() * 1000 - s.open_s0) /
                          1000);
        }
        ++sl->ops;
      }
      const bool last = winding || s.steps >= s.target_steps;
      follow(st, f.slot, last ? af::DecodeOp::kClose : af::DecodeOp::kStep);
    } else if (!winding) {
      follow(st, f.slot, af::DecodeOp::kOpen);
    }
  }

  double cold_start() override {
    Rig rig;
    return boot(rig);
  }

  af::InferenceServer& server() { return *rig_.server; }
  const Spec& spec() const { return spec_; }
  const af::TransformerConfig& model_cfg() const { return mcfg_; }
  const std::vector<af::TokenSeq>& sources() const { return srcs_; }

  DecodeTrace trace;
  std::vector<OpTiming> timings;
  std::int64_t attempted = 0, wrong = 0, failed = 0;

 private:
  /// Cold start: build the seeded model, calibrate the KV ranges, start
  /// the server, open a stream and take its first token.
  double boot(Rig& rig) {
    const std::int64_t t0 = now_ns();
    rig.bundle = std::make_unique<af::TransformerBundle>(kModelSeed, mcfg_);
    af::calibrate_transformer_kv(*rig.bundle, kCalibBatches, kCalibSeed);
    af::ServerConfig c = cfg_;
    af::TransformerMT* model = &rig.bundle->model;
    DecodeTrace* tr = &trace;
    const af::TransformerDecoder::Options dopts = dopts_;
    c.decoder_factory = [model, dopts,
                         tr]() -> std::unique_ptr<af::StreamDecoder> {
      const std::int64_t b0 = now_ns();
      auto dec = std::make_unique<af::TransformerStreamDecoder>(
          *model, dopts, kPad, kBos, kEos);
      if (!tr->spans.active()) return dec;
      return std::make_unique<TracedStreamDecoder>(std::move(dec), *tr, b0,
                                                   now_ns());
    };
    // Decode-only traffic: the batch forward is never called.
    rig.server = std::make_unique<af::InferenceServer>(
        [](int) {
          return [](const af::Tensor& x, af::ExecutionContext&) { return x; };
        },
        c);
    af::TenantConfig tenant;
    tenant.name = "decode";
    rig.server->add_tenant(tenant);

    af::DecodeRequest open;
    open.tenant = "decode";
    open.stream = "cold";
    open.op = af::DecodeOp::kOpen;
    open.src = srcs_[0];
    const af::Response ro = rig.server->submit_decode(std::move(open)).get();
    af::DecodeRequest step;
    step.tenant = "decode";
    step.stream = "cold";
    step.last_token = ro.token;
    const af::Response rs = rig.server->submit_decode(std::move(step)).get();
    const double s = static_cast<double>(now_ns() - t0) / 1e9;
    attempted += 2;
    if (!ro.ok || ro.token != kBos) ++failed;
    if (!rs.ok) ++failed;
    else if (rs.token != expected_[0][0]) ++wrong;

    af::DecodeRequest close;
    close.tenant = "decode";
    close.stream = "cold";
    close.op = af::DecodeOp::kClose;
    ++attempted;
    if (!rig.server->submit_decode(std::move(close)).get().ok) ++failed;
    return s;
  }

  /// Issues the follow-up now, or keeps it for fill() over an intermission.
  void follow(const LoopState& st, int si, af::DecodeOp op) {
    if (st.follow == LoopState::kHold) {
      held_.emplace_back(si, op);
    } else {
      issue(st, si, op);
    }
  }

  void issue(const LoopState& st, int si, af::DecodeOp op) {
    if (op == af::DecodeOp::kOpen) {
      open_stream(st, si, spec_.steps);
    } else {
      submit(st, si, op);
    }
  }

  void open_stream(const LoopState& st, int si, int target_steps) {
    Slot& s = slots_[static_cast<std::size_t>(si)];
    s.instance = next_instance_++;
    // Stream slot si cycles through sources si, si+16, ...
    s.src = static_cast<std::size_t>(si) +
            static_cast<std::size_t>(kStreams) *
                static_cast<std::size_t>(s.instance / kStreams % kSrcRounds);
    s.target_steps = target_steps;
    s.steps = 0;
    s.measured = false;
    submit(st, si, af::DecodeOp::kOpen);
  }

  void submit(const LoopState& st, int si, af::DecodeOp op) {
    Slot& s = slots_[static_cast<std::size_t>(si)];
    af::DecodeRequest req;
    req.tenant = "decode";
    req.stream = "s" + std::to_string(s.instance);
    req.op = op;
    int k = 0;
    if (op == af::DecodeOp::kOpen) {
      trace.live_instance[s.src].store(s.instance, std::memory_order_relaxed);
      req.src = srcs_[s.src];
    } else if (op == af::DecodeOp::kStep) {
      req.last_token = s.last;
      k = s.steps + 1;
    } else {
      k = spec_.steps + 1;
    }
    InFlight f;
    f.slot = si;
    f.op = op;
    f.op_id = op_id(s.instance, spec_.steps, k);
    f.slice_seq = st.slice_seq;
    f.s0 = now_ns();
    try {
      f.fut = rig_.server->submit_decode(std::move(req));
    } catch (const af::FaultError&) {
      ++attempted;
      ++failed;  // refused: the slot's stream is lost; the run is failed
      return;
    }
    f.s1 = now_ns();
    if (op == af::DecodeOp::kOpen) s.open_s0 = f.s0;
    inflight_.push_back(std::move(f));
  }

  Spec spec_;
  af::TransformerConfig mcfg_;
  af::TransformerDecoder::Options dopts_;
  std::vector<af::TokenSeq> srcs_;
  std::vector<af::TokenSeq> expected_;
  af::ServerConfig cfg_;
  Rig rig_;
  std::array<Slot, kStreams> slots_;
  std::deque<InFlight> inflight_;
  std::vector<std::pair<int, af::DecodeOp>> held_;
  std::int64_t next_instance_ = 0;
  bool started_ = false;
};

}  // namespace

Result run_decode(const Options& opt) {
  Result res;
  DecodeLoop loop(opt);
  const LoopResult lr = run_loop(opt, loop, loop.trace.spans);
  af::InferenceServer& server = loop.server();
  server.shutdown();

  report_common(res, opt, {loop.attempted, loop.wrong, loop.failed, true,
                           "token"},
                lr);
  if (!opt.trace) return res;

  report_serving(res, lr, server.stats());
  const std::vector<WorkerSpan> worker = loop.trace.spans.take();
  std::vector<double> build_us, prefill_us, step_us;
  for (const WorkerSpan& ws : worker) {
    const double us = static_cast<double>(ws.end_ns - ws.start_ns) / 1e3;
    if (ws.name == kSpanDecoderBuild) build_us.push_back(us);
    if (ws.name == kSpanPrefill) prefill_us.push_back(us);
    if (ws.name == kSpanStep) step_us.push_back(us);
  }
  std::int64_t clipped_ns = 0;
  const std::vector<Span> spans = build_spans(loop.timings, worker, &clipped_ns);
  const SpanSummary sum = summarize_spans(spans, clipped_ns);

  // Batch overhead per token: exec time outside the decoder call, over the
  // step operations only (opens and closes are stream churn, not steps).
  const Spec& spec = loop.spec();
  auto is_step = [&](std::int64_t op) {
    const std::int64_t k = op % (spec.steps + 2);
    return k >= 1 && k <= spec.steps;
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  double step_exec_ns = 0.0;
  std::int64_t step_ops = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!is_step(spans[i].op)) continue;
    if (spans[i].name == kSpanExec) step_exec_ns += static_cast<double>(self[i]);
    if (spans[i].parent < 0) ++step_ops;
  }
  res.add("runtime.batch_overhead_us",
          step_exec_ns / 1e3 /
              static_cast<double>(std::max<std::int64_t>(step_ops, 1)),
          "us");
  res.add("runtime.steady_state_allocs",
          static_cast<double>(server.max_steady_state_allocs()), "count");
  res.add("runtime.decoder_build_us", mean(build_us), "us");
  res.add("runtime.prefill_us", mean(prefill_us), "us");
  res.add("runtime.step_us_p50", percentile(step_us, 0.5), "us");
  res.add("models.forward_us_per_row.fast", 0.0, "us");
  res.add("models.forward_us_per_row.protected", 0.0, "us");
  {
    std::lock_guard<std::mutex> lk(loop.trace.mu);
    res.add("models.kv_bytes_per_stream", mean(loop.trace.kv_bytes), "B");
  }

  // Computed from shapes, averaged over a stream's steps and the sources.
  // Per step and decoder layer the quantized cache decodes len x D codes
  // for self K and V and src_len x D for cross K and V (KvState::rows),
  // moving 1 code byte in and 4 float bytes out per element.
  const af::TransformerConfig& mcfg = loop.model_cfg();
  const double d = static_cast<double>(mcfg.d_model);
  const double layers = static_cast<double>(mcfg.dec_layers);
  double src_len = 0.0;
  for (const af::TokenSeq& s : loop.sources()) {
    src_len += static_cast<double>(s.size());
  }
  src_len /= static_cast<double>(loop.sources().size());
  const double mean_len = (spec.steps + 1) / 2.0;
  const double kv_elems = layers * 2.0 * (mean_len + src_len) * d;
  res.add("kernels.kv_decode_bytes_per_token",
          spec.quantized ? kv_elems * (1.0 + 4.0) : 0.0, "B");
  // Per token: self q/k/v/o + cross q/o + FFN per layer, attention scores
  // and mixes over self and cross history, and the output projection.
  const double ffn = static_cast<double>(mcfg.d_ffn);
  const double macs =
      layers * (6.0 * d * d + 2.0 * d * ffn + 2.0 * (mean_len + src_len) * d) +
      d * static_cast<double>(mcfg.tgt_vocab);
  res.add("kernels.gemm_flops_per_op", 2.0 * macs, "flop");
  res.add("resilience.abft_extra_us_per_row", 0.0, "us");
  res.add("snapshot.open_ms", 0.0, "ms");
  report_trace(res, opt, lr, kStreams, spans, sum);
  return res;
}

}  // namespace perfbench
