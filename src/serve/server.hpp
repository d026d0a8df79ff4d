// Fault-contained concurrent serving core over InferenceSession.
//
// The process-survival contract: nothing a client can submit — a malformed
// tensor, a poisoned input, a fault storm tripping ABFT on every forward, a
// stuck worker — may kill the server. Every failure is a typed FaultError
// kind delivered either synchronously from submit() (admission control) or
// through the request's future (execution-time faults), and every degrade
// decision is visible in ServerStats / HealthReport.
//
// Architecture (DESIGN.md §13):
//
//   submit() --admission--> ShardedBoundedQueue --pop--> worker pool
//     |  queue full   -> throw FaultError(kOverloaded)      |
//     |  breaker open -> throw FaultError(kCircuitOpen)     v
//     |  draining     -> throw FaultError(kShutdown)   InferenceSession
//     |                                                (one per worker,
//     +-- tenant CircuitBreaker picks the ladder level  arena pre-planned,
//         and marks half-open probes                    serial-pinned)
//
//   watchdog thread: scans worker heartbeats; a worker wedged past the
//   timeout has its in-flight request failed typed (kWorkerWedged) and a
//   replacement worker spawned; the wedged thread retires itself when (if)
//   its forward ever returns.
//
// Each worker executes forwards under a ScopedSerialExecution pin: the
// whole forward runs inline on the worker's thread in the fixed chunk
// order, so concurrent workers neither contend on the shared pool nor
// perturb each other's bits — response payloads are a pure function of the
// request (the determinism contract serve_loadgen --verify enforces across
// AF_THREADS).
//
// Deadlines are enforced twice: an expired request popped from the queue is
// shed before the forward (kDeadlineExceeded, never executed), and a
// response finishing past its deadline is failed typed rather than
// silently returned stale. Recoverable FaultErrors (the ABFT/guard ladder
// kinds) are retried with exponential backoff inside the remaining
// deadline budget; malformed-input and storage kinds fail immediately.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/hw/fault_hook.hpp"
#include "src/runtime/decode.hpp"
#include "src/runtime/session.hpp"
#include "src/serve/breaker.hpp"
#include "src/serve/queue.hpp"
#include "src/serve/stats.hpp"
#include "src/tensor/tensor.hpp"
#include "src/util/fault.hpp"

namespace af {

/// Fault kinds the retry loop may re-execute: transient compute-ladder
/// symptoms. Malformed requests and at-rest corruption are deterministic —
/// retrying cannot help — and the serving-control kinds are not execution
/// faults at all.
inline bool fault_kind_recoverable(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNonFinite:
    case FaultKind::kRangeViolation:
    case FaultKind::kChecksumMismatch:
    case FaultKind::kAccumulatorOverflow:
    case FaultKind::kUncorrectable:
      return true;
    case FaultKind::kMalformedInput:
    case FaultKind::kStorageCorruption:
    case FaultKind::kOverloaded:
    case FaultKind::kDeadlineExceeded:
    case FaultKind::kCircuitOpen:
    case FaultKind::kWorkerWedged:
    case FaultKind::kShutdown:
      return false;
  }
  return false;
}

struct RetryConfig {
  int max_retries = 2;  ///< re-executions after the first attempt
  /// First backoff sleep; attempt k sleeps base * 2^k, always clipped to
  /// the request's remaining deadline budget. 0 disables sleeping (tests).
  std::chrono::microseconds backoff_base{200};
};

struct TenantConfig {
  std::string name;
  /// Resilience policies from most protected to most degraded; the
  /// breaker's closed levels index into this ladder.
  std::vector<ResiliencePolicy> ladder{ResiliencePolicy::kAbftGuard,
                                       ResiliencePolicy::kGuard};
  /// Guard driving the kGuard/kAbftGuard policies (nullptr = ctx default).
  const LayerGuard* guard = nullptr;
  /// Attach the worker's PeFaultHook (ServerConfig::mac_hook_factory) to
  /// this tenant's ABFT forwards — the seeded fault-storm seam.
  bool use_mac_hook = false;
  BreakerConfig breaker;
  RetryConfig retry;
  /// Applied when a request carries no deadline; 0 = no deadline.
  std::chrono::microseconds default_deadline{0};
};

struct Request {
  std::string tenant;
  Tensor input;
  /// Time budget from submission; 0 = tenant default.
  std::chrono::microseconds deadline{0};
};

/// What a decode-stream request asks the server to do.
enum class DecodeOp {
  kOpen,   ///< build a StreamDecoder, run the prefill on `src`
  kStep,   ///< advance one token from `last_token`
  kClose,  ///< free the stream's KV cache state
};

/// One request against a decode stream. Streams are keyed per tenant by
/// `stream` — two tenants never collide on an id, and shedding or a fault
/// frees exactly one stream's cache.
struct DecodeRequest {
  std::string tenant;
  std::string stream;  ///< caller-chosen stream id, unique per tenant
  DecodeOp op = DecodeOp::kStep;
  std::vector<std::int64_t> src;   ///< kOpen: source token ids
  std::int64_t last_token = -1;    ///< kStep: last emitted token
  /// Time budget from submission; 0 = tenant default. A step shed or
  /// finishing past its deadline evicts the whole stream: a sequence with
  /// a hole in it cannot be continued, so its cache is freed immediately.
  std::chrono::microseconds deadline{0};
};

/// Adaptive micro-batching (DESIGN.md §14). A worker that popped a request
/// keeps coalescing same-tenant, shape-compatible requests until the batch
/// is full, the coalesce window closes, or waiting any longer would risk a
/// member's deadline — the wait bound is
///   min(pop_time + coalesce_window, tightest member deadline - 1 ms)
/// (the fixed margin covers pack + forward + scatter), so coalescing never
/// converts an on-time request into a late one. The batch runs as ONE
/// packed forward; rows are independent in every kernel on the path, so
/// each member's response is bit-identical to its serial single-request
/// execution (enforced in tests and serve_loadgen --verify).
struct BatchConfig {
  /// Max requests coalesced into one forward. 1 disables batching: every
  /// request then runs solo.
  int max_batch = 1;
  /// How long a worker holding a non-full batch waits for more work.
  std::chrono::microseconds coalesce_window{0};
  /// Activation rows to pre-plan each worker session at per resilience
  /// policy (typically max_batch * rows-per-request): the planning forward
  /// runs on a zero tensor at this row count, before the first coalesce
  /// wait at that policy, so every subsequent batch at or below it replays
  /// through the consolidated arena with zero steady-state heap
  /// allocations. 0 = plan lazily from observed shapes.
  std::int64_t plan_rows = 0;
};

struct Response {
  bool ok = false;
  FaultKind error_kind = FaultKind::kUncorrectable;  ///< valid when !ok
  std::string error;
  Tensor output;  ///< owned copy, valid when ok
  std::uint64_t id = 0;
  int retries = 0;
  int breaker_level = 0;  ///< ladder level the request executed at
  ResiliencePolicy policy = ResiliencePolicy::kNone;
  bool probe = false;     ///< executed as a half-open probe
  /// Completed, but the resilience ladder intervened (scrubbed/clamped/
  /// zero-degraded values, ABFT repairs) or the breaker had stepped the
  /// tenant down the ladder.
  bool degraded = false;
  std::chrono::microseconds queue_us{0};  ///< admission -> execution start
  std::chrono::microseconds total_us{0};  ///< admission -> completion
  /// Requests in the forward that produced this response (1 = ran solo).
  int batch_size = 1;
  /// Time the executing worker spent widening this response's batch.
  std::chrono::microseconds coalesce_us{0};
  /// Decode responses: the token emitted by this step (kOpen returns the
  /// stream's BOS token — the value to feed the first kStep).
  std::int64_t token = -1;
};

struct WatchdogConfig {
  bool enabled = true;
  std::chrono::milliseconds check_interval{5};
  /// An in-flight request older than this on a silent worker is failed
  /// typed and its worker replaced.
  std::chrono::milliseconds wedge_timeout{1000};
};

struct ServerConfig {
  int workers = 2;
  std::int64_t queue_capacity = 64;
  int queue_shards = 4;
  WatchdogConfig watchdog;
  BatchConfig batch;
  /// Per-worker fault hook (a seeded FaultInjector in the storm tests and
  /// the loadgen fault arm). Owned by the worker; one instance per worker
  /// so injection streams never race.
  std::function<std::unique_ptr<PeFaultHook>(int worker)> mac_hook_factory;
  /// Builds the StreamDecoder behind each decode stream (kOpen calls it
  /// once per stream). Decoders for different streams may be stepped
  /// concurrently by different workers, so the factory must hand out
  /// decoders that are safe side by side — same contract as
  /// ForwardFactory: replicate mutable model state, or share immutable
  /// state only. Unset = submit_decode rejects typed (kMalformedInput).
  std::function<std::unique_ptr<StreamDecoder>()> decoder_factory;
};

class InferenceServer {
 public:
  /// Builds the model forward a worker serves. Called once per worker
  /// (including watchdog replacements) with the worker's index; the
  /// returned closure must be safe to run on that worker's thread
  /// concurrently with the other workers' closures (give each worker its
  /// own model replica, or share immutable state only).
  using ForwardFactory =
      std::function<InferenceSession::ForwardFn(int worker)>;

  InferenceServer(ForwardFactory factory, ServerConfig cfg);
  ~InferenceServer();  ///< graceful drain (shutdown())

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Registers a tenant before traffic. Unknown-tenant submissions are
  /// rejected typed (kMalformedInput).
  void add_tenant(TenantConfig cfg);

  /// Admission control. Returns the future carrying the typed Response, or
  /// throws fail-fast:
  ///   FaultError(kOverloaded)  — queue at capacity
  ///   FaultError(kCircuitOpen) — tenant breaker rejecting
  ///   FaultError(kShutdown)    — server draining
  ///   FaultError(kMalformedInput) — unregistered tenant
  std::future<Response> submit(Request req);

  /// Admission control for decode-stream requests — same synchronous
  /// typed rejections as submit(), plus FaultError(kMalformedInput) when
  /// no decoder_factory is configured or the stream id is empty. Decode
  /// requests ride the same queue and worker pool as batch requests. A
  /// worker that pops a step also takes every other queued step of the
  /// same tenant and ladder level (one per stream, no probes) and runs
  /// them as one stacked forward (DESIGN.md §15.5); each stream's token is
  /// the one its solo step would emit. Decode requests are never retried:
  /// a step is stateful (it appends to the stream's KV cache), so
  /// re-executing one after a fault could double-append — the stream is
  /// evicted instead.
  std::future<Response> submit_decode(DecodeRequest req);

  /// Stops intake, serves every queued request (deadlines still enforced),
  /// joins workers and watchdog, then frees every live decode stream's
  /// cache state. Idempotent.
  void shutdown();

  HealthReport health() const;
  StatsSnapshot stats() const { return stats_.snapshot(); }

  int workers() const;
  std::int64_t queue_depth() const { return queue_.size(); }
  /// Live decode streams currently holding KV cache state.
  std::int64_t decode_streams() const;

  /// Largest per-run heap-allocation count any worker's session reported
  /// after its planning run at each ladder level — 0 proves the arena
  /// zero-steady-state-alloc contract holds under concurrent serving.
  std::int64_t max_steady_state_allocs() const;

 private:
  struct Ticket;
  struct TenantState;
  struct WorkerSlot;
  struct StreamEntry;
  struct Outcome;

  using Clock = std::chrono::steady_clock;

  void worker_main(std::shared_ptr<WorkerSlot> slot);
  void watchdog_main();
  /// Counts one submission and resolves its tenant; an unknown name is
  /// rejected typed (kMalformedInput).
  TenantState& submitted_tenant(const std::string& name);
  /// The one admission body behind submit() and submit_decode(): shutdown
  /// check, breaker admit, id/level/probe/deadline stamping, bounded push.
  std::future<Response> enqueue(TenantState& tenant,
                                std::chrono::microseconds deadline,
                                std::shared_ptr<Ticket> ticket);
  /// Runs a kOpen (returns the BOS token) or a kClose.
  std::int64_t open_or_close(const Ticket& ticket);
  /// Unlinks one stream from the map (never waiting on its entry mutex);
  /// returns whether it existed.
  bool evict_stream(const std::string& key);
  /// Runs the BatchConfig::plan_rows planning forward for the lead's policy
  /// once per worker, before the coalesce wait.
  void plan(WorkerSlot& slot, const std::shared_ptr<Ticket>& lead);
  /// Widens `batch` (seeded with one popped ticket) with one predicate pop
  /// per pass: same kind, tenant and level, no probes; requests rank-2 at
  /// the lead's width, up to max_batch, waiting until full / window closed
  /// / tightest-deadline bound hit; steps one per stream, up to
  /// kMaxDecodeBatch, never waiting. Opens, closes, probes and malformed
  /// request leads stay solo. Returns the time spent widening.
  std::chrono::microseconds widen(WorkerSlot& slot,
                                  std::vector<std::shared_ptr<Ticket>>& batch);
  /// Sheds the expired members of `batch` typed and publishes the rest to
  /// the watchdog as executing; returns the members still to run.
  std::vector<std::shared_ptr<Ticket>> start_execution(
      WorkerSlot& slot, const std::vector<std::shared_ptr<Ticket>>& batch);
  /// start_execution, then the kind's runner (run_forward, step_streams or
  /// open_or_close) fills one Outcome per live member, then finish().
  void execute(WorkerSlot& slot,
               const std::vector<std::shared_ptr<Ticket>>& batch,
               std::chrono::microseconds coalesce_us);
  /// Packs the members into one forward, retries recoverable FaultErrors
  /// within the tightest deadline (base.retries counts them) and scatters
  /// each member's rows, or gives every member the forward's error.
  /// Returns whether the ResilienceReport was clean.
  bool run_forward(WorkerSlot& slot,
                   const std::vector<std::shared_ptr<Ticket>>& live,
                   std::vector<Outcome>& outs, Response& base);
  /// Steps every live member's stream through one StreamDecoder::step_batch
  /// call under the worker's decode scratch, writing each member's token or
  /// error to outs[i]. An unknown stream or a member's own fault fails only
  /// that member; a fault of the shared forward fails them all. Returns how
  /// many members stepped.
  int step_streams(WorkerSlot& slot,
                   const std::vector<std::shared_ptr<Ticket>>& live,
                   std::vector<Outcome>& outs);
  /// Breaker feedback for every member, then each member's completion: its
  /// payload, its typed error, or a typed late-completion failure.
  /// `clean` = false marks every completed member degraded.
  void finish(const std::vector<std::shared_ptr<Ticket>>& live,
              std::vector<Outcome>& outs, bool clean, const Response& base);
  void spawn_worker_locked();
  /// Single-completion gate: stamps and delivers `r` unless the ticket was
  /// already completed. A failed decode ticket's stream is unlinked before
  /// delivery, so a client that sees the error never finds it live.
  bool complete(const std::shared_ptr<Ticket>& ticket, Response&& r);
  /// The one failure path: completes `ticket` with a typed `kind` error on
  /// top of `r` and counts it in `failed`, `failed_by_kind` and `extra`.
  void fail(const std::shared_ptr<Ticket>& ticket, FaultKind kind,
            std::string error, std::atomic<std::int64_t>* extra = nullptr,
            Response r = {});

  ForwardFactory factory_;
  ServerConfig cfg_;
  ShardedBoundedQueue<std::shared_ptr<Ticket>> queue_;
  ServerStats stats_;

  mutable std::mutex tenants_mu_;
  std::vector<std::unique_ptr<TenantState>> tenants_;

  /// Live decode streams, keyed "<tenant>#<stream>". The map mutex covers
  /// only lookup/insert/erase; each stream's decoder runs under its own
  /// entry mutex so a long prefill never blocks other streams.
  mutable std::mutex streams_mu_;
  std::map<std::string, std::shared_ptr<StreamEntry>> streams_;

  mutable std::mutex workers_mu_;
  std::vector<std::unique_ptr<std::thread>> threads_;
  std::vector<std::shared_ptr<WorkerSlot>> slots_;
  int next_worker_index_ = 0;

  std::thread watchdog_;
  std::atomic<bool> accepting_{true};
  std::atomic<bool> running_{true};
  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace af
