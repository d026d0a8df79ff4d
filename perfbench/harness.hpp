// Shared plumbing of the benchmark program: command options, the result
// record every workload fills, the closed-loop runner that walks each
// workload through warm-up, a sliced measured window and drain, and the
// span tree the traced mode builds around the calls into each layer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/serve/server.hpp"
#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";  ///< scratch files (snapshot image, span dump)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< failed + refused + wrong-output operations
  std::vector<Metric> metrics;
  std::vector<std::string> info;  ///< human-readable lines printed first

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { info.push_back(line); }
};

// ----- tracing ---------------------------------------------------------------

enum SpanName : int {
  kSpanOp,            ///< one operation: submit start -> generator sees it
  kSpanSubmit,        ///< inside InferenceServer::submit / submit_decode
  kSpanQueue,         ///< admitted, waiting in the server queue
  kSpanCoalesce,      ///< batch being widened by the worker
  kSpanExec,          ///< worker executing: pack, forward, copy-out, scatter
  kSpanForward,       ///< the model's ForwardFn
  kSpanDecoderBuild,  ///< ServerConfig::decoder_factory
  kSpanPrefill,       ///< StreamDecoder::open
  kSpanStep,          ///< StreamDecoder::step
  kSpanNameCount,
};
const char* span_name(int name);

/// A span recorded on a server worker thread by the benchmark's wrappers,
/// keyed by the operation it served.
struct WorkerSpan {
  int name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t op = -1;
};

/// Collects worker-side spans while active. Appends are mutex-guarded: the
/// wrappers run on the server's workers, the collector on the generator.
class WorkerTrace {
 public:
  void set_active(bool on) { active_.store(on, std::memory_order_release); }
  bool active() const { return active_.load(std::memory_order_acquire); }
  void add(const WorkerSpan& s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
  }
  std::vector<WorkerSpan> take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<bool> active_{false};
  std::mutex mu_;
  std::vector<WorkerSpan> spans_;
};

/// What the generator saw of one operation: its submit call and the moment
/// it received the response, on the benchmark clock, plus the server's
/// Response timings.
struct OpTiming {
  std::int64_t op = -1;
  std::int64_t submit_begin_ns = 0;
  std::int64_t submit_end_ns = 0;
  std::int64_t done_ns = 0;      ///< the generator's fut.get() returned
  std::int64_t queue_us = 0;     ///< Response::queue_us (includes coalesce)
  std::int64_t coalesce_us = 0;  ///< Response::coalesce_us
  std::int64_t total_us = 0;     ///< Response::total_us
};

/// Builds every operation's span tree in one vector. The root runs from
/// the submit call's start to the generator's completion stamp, both on
/// the benchmark's clock. Under it: submit, then queue, coalesce and exec
/// cut from the Response timings, which are anchored at the submit call's
/// start (admission happens inside it). Worker spans hang under exec. Every
/// child is clipped into its parent, so the children of a span are
/// disjoint and inside it; the time clipped off is counted in `clipped_ns`.
std::vector<Span> build_spans(const std::vector<OpTiming>& ops,
                              std::vector<WorkerSpan> worker,
                              std::int64_t* clipped_ns);

/// Self time per span name summed over all spans, and the summed duration
/// of the roots they add up to.
struct SpanSummary {
  std::vector<double> self_us;  ///< indexed by SpanName
  double root_us = 0.0;         ///< summed root (operation) durations
  std::int64_t roots = 0;
  std::int64_t spans = 0;
  double clipped_us = 0.0;      ///< server-reported time past the root
};
SpanSummary summarize_spans(const std::vector<Span>& spans,
                            std::int64_t clipped_ns);

/// Writes the spans as CSV (name,start_ns,end_ns,parent,op; times relative
/// to the first span) to `path`. Returns false when the file cannot be
/// written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

// ----- the closed loop ---------------------------------------------------------

/// Samples a workload records per completed operation into the current
/// slice of the measured window.
struct SliceSamples {
  UsHistogram latency_us, ttft_us, queue_us, coalesce_us;
  std::int64_t ops = 0;       ///< requests (mlp) or tokens (decode)
  std::int64_t requests = 0;  ///< server operations
  double submit_ns = 0.0;     ///< time inside submit calls

  void clear();
};

/// What run_loop() tells the workload about the moment a response arrives.
struct LoopState {
  enum Follow { kSubmit, kHold, kWindDown };
  Follow follow = kSubmit;        ///< what to do with the follow-up operation
  SliceSamples* slice = nullptr;  ///< null outside the measured window
  std::int64_t slice_seq = -1;    ///< id of the current slice
  bool traced = false;            ///< the current slice records spans

  /// An operation's spans are complete when it was submitted and answered
  /// inside one traced slice: tracing was on for all of its server time.
  bool keeps_spans(std::int64_t submitted_in) const {
    return traced && submitted_in == slice_seq;
  }
};

/// One workload's saturated closed loop: a fixed number of operations is
/// kept outstanding, and the generator blocks on the oldest response before
/// issuing its follow-up. run_loop() drives it.
class ClosedLoop {
 public:
  ClosedLoop() = default;
  ClosedLoop(const ClosedLoop&) = delete;  // the server's threads hold it
  ClosedLoop& operator=(const ClosedLoop&) = delete;
  virtual ~ClosedLoop() = default;
  /// Issues operations until the loop's depth is outstanding: the first
  /// ones, or the follow-ups held over an intermission.
  virtual void fill(const LoopState& state) = 0;
  virtual bool idle() const = 0;
  /// Waits for the oldest outstanding operation, checks its output, records
  /// its samples and span timing per `state`, and submits, holds or winds
  /// down its follow-up per `state.follow`.
  virtual void complete_oldest(const LoopState& state) = 0;
  /// Cold-starts a fresh rig beside the running one up to its first
  /// answer, checks the answer, and tears the rig down. Returns the time to
  /// the first answer in seconds.
  virtual double cold_start() = 0;
};

struct LoopResult {
  std::vector<SliceRecord> slices;
  std::vector<double> cold_start_s;  ///< every intermission's cold starts
  // Pooled over the traced slices:
  UsHistogram queue_us, coalesce_us;
  double submit_ns = 0.0;
  std::int64_t requests = 0;
};

/// Gives the load generator and the served rig fixed CPUs of their own.
/// The calling thread, and every thread it starts until run_loop() begins,
/// runs on the `server_threads` allowed CPUs after the first (fewer when
/// fewer are left). run_loop() then moves the generator alone onto the
/// first, where the cold starts run too. Does nothing with fewer than two
/// allowed CPUs.
void split_cpus(int server_threads);

/// Warm-up, then the measured window of `opt.seconds` in slices of
/// kSliceSeconds, then drain. Every few slices an intermission holds the
/// follow-ups until the pipeline is empty, runs cold starts and refills,
/// so the cold starts spread over the run instead of sampling one moment of
/// the host. In a traced run every second slice records spans.
LoopResult run_loop(const Options& opt, ClosedLoop& loop, WorkerTrace& trace);

/// What a workload's checks counted over the whole run.
struct Report {
  std::int64_t attempted = 0, wrong = 0, failed = 0;  ///< failed incl. refused
  bool extra_ok = true;  ///< workload-specific checks passed
  std::string per;       ///< the throughput unit: "request" or "token"
};
/// The correctness summary and window lines, and in an untraced run the
/// end-to-end metrics, estimated over the undisturbed slices.
void report_common(Result& res, const Options& opt, const Report& rep,
                   const LoopResult& loop);
/// The serve.* metrics and kernels.dispatches_per_op of a traced run.
void report_serving(Result& res, const LoopResult& loop,
                    const af::StatsSnapshot& final_stats);
/// Self-time lines, the reconciliation of the span roots against the
/// per-operation time Little's law gives for the traced slices
/// (`depth` outstanding x traced wall time / completed operations), the
/// unattributed_share and trace.overhead_share metrics, and the span dump.
void report_trace(Result& res, const Options& opt, const LoopResult& loop,
                  int depth, const std::vector<Span>& spans,
                  const SpanSummary& sum);

// ----- workloads ---------------------------------------------------------------

Result run_mlp_serve(const Options& opt);
Result run_decode(const Options& opt);

/// Fixed-input checks of the statistics helpers; prints each failure and
/// returns false when any check fails.
bool selftest();

}  // namespace perfbench
