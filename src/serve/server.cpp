#include "src/serve/server.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "src/resilience/guard.hpp"
#include "src/runtime/batch.hpp"
#include "src/tensor/arena.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace af {

using Clock = std::chrono::steady_clock;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::chrono::microseconds since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0);
}

}  // namespace

// One request in flight through the serving core. Shared between the
// submitting client (future), the queue, the executing worker and the
// watchdog; `completed` is the single-completion gate — whoever wins the
// exchange delivers the response, every other completion attempt is a
// no-op (a wedged worker's late result is discarded, never double-set).
struct InferenceServer::Ticket {
  std::promise<Response> promise;
  std::atomic<bool> completed{false};
  Tensor input;
  TenantState* tenant = nullptr;
  std::uint64_t id = 0;
  int level = 0;  ///< breaker level; indexes the tenant's policy ladder
  bool probe = false;
  Clock::time_point submit_tp;
  Clock::time_point deadline_tp = Clock::time_point::max();  ///< max = none
  /// Set by the worker when execution starts (guarded by the slot mutex
  /// that also publishes the ticket to the watchdog).
  Clock::time_point exec_tp;
  bool executing = false;

  // Decode-stream requests (is_decode): never coalesced, never retried.
  bool is_decode = false;
  DecodeOp op = DecodeOp::kStep;
  std::string stream_key;  ///< "<tenant>#<stream>"
  std::vector<std::int64_t> src;
  std::int64_t last_token = -1;
};

/// One live decode stream. The entry mutex serializes steps against the
/// stream's decoder (clients must sequence their own steps anyway — step
/// N+1 needs step N's token — but the server stays safe under misuse).
struct InferenceServer::StreamEntry {
  std::mutex mu;
  std::unique_ptr<StreamDecoder> decoder;
};

struct InferenceServer::TenantState {
  TenantConfig cfg;
  CircuitBreaker breaker;
  explicit TenantState(TenantConfig c)
      : cfg(std::move(c)), breaker([&] {
          BreakerConfig b = cfg.breaker;
          b.ladder_levels = static_cast<int>(cfg.ladder.size());
          return b;
        }()) {}
};

struct InferenceServer::WorkerSlot {
  int index = 0;
  std::atomic<std::int64_t> heartbeat_ns{0};
  std::atomic<bool> wedged{false};
  std::atomic<bool> alive{true};
  std::atomic<std::int64_t> max_steady_allocs{0};

  std::mutex mu;  ///< guards inflight (worker publishes, watchdog reads)
  /// Every ticket of the batch being executed: a wedged worker has ALL of
  /// its in-flight batch members failed typed, not just one.
  std::vector<std::shared_ptr<Ticket>> inflight;

  // Worker-thread-only state below (never touched by the watchdog).
  std::unique_ptr<InferenceSession> session;
  std::unique_ptr<PeFaultHook> mac_hook;
  /// Staging arena the batched activation tensor is packed into. Separate
  /// from the session's arena (which resets at the start of every run), so
  /// the packed input stays valid across the forward.
  Arena staging;
  /// Per-ResiliencePolicy largest activation row count whose planning run
  /// already happened — later runs at or below a planned row count must
  /// not allocate (the arena holds the larger peak and owned buffers
  /// shrink in place). Generalizes the PR-8 per-policy planned bitmask to
  /// variable batch shapes.
  std::array<std::int64_t,
             static_cast<std::size_t>(ResiliencePolicy::kAbftGuard) + 1>
      planned_rows{};
};

InferenceServer::InferenceServer(ForwardFactory factory, ServerConfig cfg)
    : factory_(std::move(factory)),
      cfg_(cfg),
      queue_(cfg.queue_capacity, cfg.queue_shards) {
  AF_CHECK(static_cast<bool>(factory_), "server needs a forward factory");
  AF_CHECK(cfg_.workers >= 1, "server needs at least one worker");
  {
    std::lock_guard<std::mutex> lk(workers_mu_);
    for (int i = 0; i < cfg_.workers; ++i) spawn_worker_locked();
  }
  if (cfg_.watchdog.enabled) {
    watchdog_ = std::thread([this] { watchdog_main(); });
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::add_tenant(TenantConfig cfg) {
  AF_CHECK(!cfg.name.empty(), "tenant needs a name");
  AF_CHECK(!cfg.ladder.empty(), "tenant needs a non-empty policy ladder");
  std::lock_guard<std::mutex> lk(tenants_mu_);
  for (const auto& t : tenants_) {
    AF_CHECK(t->cfg.name != cfg.name, "tenant already registered: " + cfg.name);
  }
  tenants_.push_back(std::make_unique<TenantState>(std::move(cfg)));
}

InferenceServer::TenantState& InferenceServer::submitted_tenant(
    const std::string& name) {
  stats_.submitted.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    for (const auto& t : tenants_) {
      if (t->cfg.name == name) return *t;
    }
  }
  throw FaultError("serve", FaultKind::kMalformedInput,
                   "unknown tenant '" + name + "'");
}

bool InferenceServer::complete(const std::shared_ptr<Ticket>& ticket,
                               Response&& r) {
  bool expected = false;
  if (!ticket->completed.compare_exchange_strong(expected, true)) {
    return false;  // someone (the watchdog) already responded
  }
  // A failed decode ticket frees its stream before the client can see the
  // error. Only the winner of the gate unlinks, so a loser finishing late
  // never evicts a stream the client has since reopened.
  if (!r.ok && ticket->is_decode && evict_stream(ticket->stream_key)) {
    stats_.decode_evicted.fetch_add(1, std::memory_order_relaxed);
    r.error += "; stream '" + ticket->stream_key + "' evicted";
  }
  r.id = ticket->id;
  r.probe = ticket->probe;
  const Clock::time_point done = Clock::now();
  r.total_us = since(ticket->submit_tp, done);
  if (ticket->executing) {
    r.queue_us = since(ticket->submit_tp, ticket->exec_tp);
  } else {
    r.queue_us = r.total_us;
  }
  stats_.record_queue_wait(r.queue_us.count());
  ticket->promise.set_value(std::move(r));
  return true;
}

void InferenceServer::fail(const std::shared_ptr<Ticket>& ticket,
                           FaultKind kind, std::string error,
                           std::atomic<std::int64_t>* extra, Response r) {
  r.ok = false;
  r.error_kind = kind;
  r.error = std::move(error);
  if (!complete(ticket, std::move(r))) return;
  if (extra != nullptr) extra->fetch_add(1, std::memory_order_relaxed);
  stats_.count_failure(kind);
}

std::future<Response> InferenceServer::enqueue(
    TenantState& tenant, std::chrono::microseconds deadline,
    std::shared_ptr<Ticket> ticket) {
  if (!accepting_.load(std::memory_order_acquire)) {
    stats_.rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
    throw FaultError("serve", FaultKind::kShutdown,
                     "server is draining; request rejected");
  }

  const CircuitBreaker::Decision d = tenant.breaker.admit();
  if (!d.admit) {
    stats_.rejected_open.fetch_add(1, std::memory_order_relaxed);
    throw FaultError(
        "serve/" + tenant.cfg.name, FaultKind::kCircuitOpen,
        "tenant breaker open; request rejected without execution");
  }

  ticket->tenant = &tenant;
  ticket->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  ticket->level =
      std::min(d.level, static_cast<int>(tenant.cfg.ladder.size()) - 1);
  ticket->probe = d.probe;
  ticket->submit_tp = Clock::now();
  if (deadline.count() <= 0) deadline = tenant.cfg.default_deadline;
  if (deadline.count() > 0) ticket->deadline_tp = ticket->submit_tp + deadline;

  std::future<Response> fut = ticket->promise.get_future();
  if (!queue_.try_push(std::move(ticket))) {
    stats_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
    throw FaultError("serve", FaultKind::kOverloaded,
                     "request queue at capacity (" +
                         std::to_string(queue_.capacity()) +
                         "); request rejected");
  }
  stats_.admitted.fetch_add(1, std::memory_order_relaxed);
  return fut;
}

std::future<Response> InferenceServer::submit(Request req) {
  TenantState& tenant = submitted_tenant(req.tenant);
  auto ticket = std::make_shared<Ticket>();
  ticket->input = std::move(req.input);
  return enqueue(tenant, req.deadline, std::move(ticket));
}

std::future<Response> InferenceServer::submit_decode(DecodeRequest req) {
  TenantState& tenant = submitted_tenant(req.tenant);
  if (!cfg_.decoder_factory) {
    throw FaultError("serve", FaultKind::kMalformedInput,
                     "server has no decoder_factory; decode rejected");
  }
  if (req.stream.empty()) {
    throw FaultError("serve", FaultKind::kMalformedInput,
                     "decode request needs a stream id");
  }
  auto ticket = std::make_shared<Ticket>();
  ticket->is_decode = true;
  ticket->op = req.op;
  ticket->stream_key = req.tenant + "#" + req.stream;
  ticket->src = std::move(req.src);
  ticket->last_token = req.last_token;
  return enqueue(tenant, req.deadline, std::move(ticket));
}

bool InferenceServer::evict_stream(const std::string& key) {
  std::shared_ptr<StreamEntry> victim;
  {
    std::lock_guard<std::mutex> lk(streams_mu_);
    auto it = streams_.find(key);
    if (it == streams_.end()) return false;
    victim = std::move(it->second);
    streams_.erase(it);
  }
  // Unlink only, never wait on the entry mutex (the watchdog evicts the
  // stream of a step wedged inside it). The decoder and its KV arenas are
  // destroyed with the last reference, outside the map mutex: here, or
  // when a step still running on it lets go.
  return true;
}

void InferenceServer::spawn_worker_locked() {
  auto slot = std::make_shared<WorkerSlot>();
  slot->index = next_worker_index_++;
  slot->heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
  slots_.push_back(slot);
  threads_.push_back(std::make_unique<std::thread>(
      [this, slot] { worker_main(slot); }));
}

void InferenceServer::worker_main(std::shared_ptr<WorkerSlot> slot) {
  // The whole worker runs serial-pinned: every forward executes inline on
  // this thread in the fixed chunk order — N workers make independent
  // progress and bits never depend on AF_THREADS or on each other.
  ScopedSerialExecution serial;

  try {
    slot->session =
        std::make_unique<InferenceSession>(factory_(slot->index));
    if (cfg_.mac_hook_factory) {
      slot->mac_hook = cfg_.mac_hook_factory(slot->index);
    }
  } catch (...) {
    // A worker that cannot build its session serves nothing; the watchdog
    // sees no heartbeat progress only if work was in flight, so just
    // retire quietly — the remaining workers carry the queue.
    slot->alive.store(false, std::memory_order_release);
    return;
  }

  while (true) {
    slot->heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
    std::shared_ptr<Ticket> ticket;
    if (queue_.pop(ticket, std::chrono::milliseconds(2))) {
      std::vector<std::shared_ptr<Ticket>> batch{std::move(ticket)};
      if (batch.front()->is_decode) {
        // Stateful and stream-ordered: a decode request always runs solo.
        process_decode(*slot, batch);
      } else {
        plan(*slot, batch.front());
        std::chrono::microseconds waited{0};
        if (cfg_.batch.max_batch > 1) waited = coalesce(*slot, batch);
        process(*slot, batch, waited);
      }
      std::lock_guard<std::mutex> lk(slot->mu);
      slot->inflight.clear();
    } else if (!running_.load(std::memory_order_acquire) &&
               queue_.size() == 0) {
      break;  // graceful drain complete
    }
    if (slot->wedged.load(std::memory_order_acquire)) {
      break;  // watchdog already failed our request and replaced us
    }
  }
  slot->alive.store(false, std::memory_order_release);
}

void InferenceServer::plan(WorkerSlot& slot,
                           const std::shared_ptr<Ticket>& lead) {
  // Eager pre-plan (BatchConfig::plan_rows): before the first counted run
  // at this policy, grow the arena with a zero-input forward at the
  // configured peak row count, so every real batch at or below it replays
  // alloc-free from its first execution. It runs before the coalesce wait,
  // so its cost never eats into the deadline margin the wait keeps.
  const std::int64_t rows = cfg_.batch.plan_rows;
  const Tensor& x = lead->input;
  const TenantConfig& tcfg = lead->tenant->cfg;
  const ResiliencePolicy policy =
      tcfg.ladder[static_cast<std::size_t>(lead->level)];
  std::int64_t& planned = slot.planned_rows[static_cast<std::size_t>(policy)];
  if (rows <= 0 || planned != 0 || x.rank() != 2 || x.dim(0) >= rows) return;
  {
    std::lock_guard<std::mutex> lk(slot.mu);
    slot.inflight = {lead};  // a wedged planning run fails the lead typed
  }
  ExecutionContext& ctx = slot.session->context();
  ctx.resilience = policy;
  ctx.guard = tcfg.guard;
  ctx.report = nullptr;
  ctx.mac_hook = nullptr;
  try {
    slot.session->plan(Tensor({rows, x.dim(1)}));
    planned = rows;
  } catch (...) {
    // Planning is best-effort (a strict guard could flag the zero
    // exemplar); fall back to lazy shape-driven planning in process().
  }
}

std::chrono::microseconds InferenceServer::coalesce(
    WorkerSlot& slot, std::vector<std::shared_ptr<Ticket>>& batch) {
  // Budget kept between the wait's release and the tightest member
  // deadline: it covers pack + forward + scatter.
  constexpr std::chrono::microseconds kDeadlineMargin{1000};
  const BatchConfig& bc = cfg_.batch;
  const std::shared_ptr<Ticket> lead = batch.front();
  // A half-open probe is the breaker's isolated health check and runs
  // solo; malformed (non-rank-2, empty) inputs must also fail
  // individually, never drag a batch down with them.
  if (lead->probe || lead->input.rank() != 2 || lead->input.dim(0) <= 0) {
    return std::chrono::microseconds{0};
  }
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point window_end = t0 + bc.coalesce_window;
  TenantState* const tenant = lead->tenant;
  const int level = lead->level;
  const std::int64_t d = lead->input.dim(1);
  const auto match = [&](const std::shared_ptr<Ticket>& t) {
    // Never cross-tenant, never across ladder levels (one policy must
    // serve the whole batch), never probes, never decode steps (stateful;
    // they run solo), rank-2 same-width rows only.
    return !t->is_decode && t->tenant == tenant && t->level == level &&
           !t->probe && t->input.rank() == 2 && t->input.dim(1) == d &&
           t->input.dim(0) > 0;
  };
  for (;;) {
    queue_.try_pop_batch(batch, bc.max_batch - static_cast<int>(batch.size()),
                         match);
    if (static_cast<int>(batch.size()) >= bc.max_batch) break;
    const Clock::time_point now = Clock::now();
    // Wait bound: the coalesce window, tightened so the batch never holds
    // a member past the point it could still complete on time.
    Clock::time_point bound = window_end;
    for (const auto& t : batch) {
      bound = std::min(bound, t->deadline_tp - kDeadlineMargin);
    }
    if (now >= bound) break;
    slot.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
    std::this_thread::sleep_for(std::min<Clock::duration>(
        bound - now, std::chrono::microseconds(200)));
  }
  return since(t0, Clock::now());
}

std::vector<std::shared_ptr<InferenceServer::Ticket>>
InferenceServer::start_execution(
    WorkerSlot& slot, const std::vector<std::shared_ptr<Ticket>>& batch) {
  // Already-completed tickets drop silently; members past their deadline
  // are shed typed without execution — queue expiry is a per-request
  // fault, never the batch's (running an expired member could only
  // produce a result its client must not use).
  const Clock::time_point now = Clock::now();
  std::vector<std::shared_ptr<Ticket>> live;
  live.reserve(batch.size());
  for (const auto& ticket : batch) {
    if (ticket->completed.load(std::memory_order_acquire)) continue;
    if (now > ticket->deadline_tp) {
      fail(ticket, FaultKind::kDeadlineExceeded,
           "deadline expired in queue; request shed before execution",
           &stats_.shed_deadline);
      continue;
    }
    live.push_back(ticket);
  }
  {
    std::lock_guard<std::mutex> lk(slot.mu);
    for (const auto& ticket : live) {
      ticket->exec_tp = now;
      ticket->executing = true;
    }
    slot.inflight = live;
  }
  slot.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
  return live;
}

void InferenceServer::process(WorkerSlot& slot,
                              const std::vector<std::shared_ptr<Ticket>>& batch,
                              std::chrono::microseconds coalesce_us) {
  const auto live = start_execution(slot, batch);
  if (live.empty()) return;

  const TenantConfig& tcfg = live.front()->tenant->cfg;
  CircuitBreaker& breaker = live.front()->tenant->breaker;
  const int level = live.front()->level;
  const ResiliencePolicy policy = tcfg.ladder[static_cast<std::size_t>(level)];
  const std::size_t pidx = static_cast<std::size_t>(policy);
  const int batch_size = static_cast<int>(live.size());

  // Pack the members into one [total_rows, d] activation tensor in the
  // worker's staging arena (not the session arena — run() resets that). A
  // solo request executes its input tensor directly: the batch=1 path is
  // the PR-8 single-request path, byte-for-byte.
  const Tensor* input = &live.front()->input;
  Tensor packed;
  std::vector<std::int64_t> row_offsets;
  if (batch_size > 1) {
    std::vector<const Tensor*> inputs;
    inputs.reserve(live.size());
    for (const auto& ticket : live) inputs.push_back(&ticket->input);
    slot.staging.reset();
    ArenaScope scope(&slot.staging);
    packed = pack_rows(inputs, &row_offsets);
    input = &packed;
  }
  stats_.count_batch(batch_size, coalesce_us.count());

  InferenceSession& session = *slot.session;
  int attempt = 0;
  // What every member's response carries, whatever its outcome.
  const auto response = [&] {
    Response r;
    r.retries = attempt;
    r.breaker_level = level;
    r.policy = policy;
    r.batch_size = batch_size;
    r.coalesce_us = coalesce_us;
    return r;
  };
  for (;;) {
    ResilienceReport report;
    ExecutionContext& ctx = session.context();
    ctx.resilience = policy;
    ctx.guard = tcfg.guard;
    ctx.report = &report;
    ctx.mac_hook = tcfg.use_mac_hook ? slot.mac_hook.get() : nullptr;

    try {
      const std::int64_t rows = input->rank() == 2 ? input->dim(0) : 1;
      const bool was_planned =
          slot.planned_rows[pidx] > 0 && rows <= slot.planned_rows[pidx];
      const Tensor& y = session.run(*input);

      // Zero-steady-state-alloc contract: a run at or below the planned
      // row count for its policy must not allocate (the arena holds the
      // larger peak; owned output buffers shrink in place). A larger run
      // is a planning run and raises the planned row count instead.
      if (was_planned) {
        const std::int64_t allocs = session.last_run_heap_allocs();
        std::int64_t prev =
            slot.max_steady_allocs.load(std::memory_order_relaxed);
        while (allocs > prev && !slot.max_steady_allocs.compare_exchange_weak(
                                    prev, allocs, std::memory_order_relaxed)) {
        }
      } else {
        slot.planned_rows[pidx] = std::max(slot.planned_rows[pidx], rows);
      }

      // Deadline recheck: a stale result is failed typed, never returned
      // as if it were fresh.
      // Breaker feedback strictly precedes every completion: a client that
      // awaited a response and then submits again must find the breaker
      // already informed by this outcome (what makes the storm test's
      // transition sequence exactly reproducible). The batch executed as
      // one forward, but the ladder walks request-by-request, exactly as
      // the serial path would have.
      const Clock::time_point done = Clock::now();
      for (const auto& ticket : live) {
        if (done > ticket->deadline_tp || report.clean()) {
          // A late result means the tenant is numerically healthy —
          // lateness is load, not a fault; probes still recover the
          // breaker under pressure.
          breaker.on_success(ticket->probe);
        } else {
          breaker.on_fault(ticket->probe);
        }
      }

      for (std::size_t i = 0; i < live.size(); ++i) {
        const auto& ticket = live[i];
        Response r = response();
        if (done > ticket->deadline_tp) {
          fail(ticket, FaultKind::kDeadlineExceeded,
               "completed after deadline; stale result withheld",
               &stats_.deadline_missed, std::move(r));
          continue;
        }
        r.ok = true;
        if (batch_size == 1) {
          r.output.copy_from(y);
        } else {
          // Scatter: this member's rows, copied out of the batched output
          // into owned storage (bit-identical to its serial execution by
          // row independence of every kernel on the path).
          r.output =
              copy_row_block(y, row_offsets[i], ticket->input.dim(0));
        }
        const bool degraded = !report.clean() || level > 0;
        r.degraded = degraded;
        if (complete(ticket, std::move(r))) {
          stats_.completed.fetch_add(1, std::memory_order_relaxed);
          if (degraded) {
            stats_.degraded.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      return;
    } catch (const std::exception& err) {
      // A FaultError keeps its kind. Anything else (even a programmer-error
      // Error from deep inside a kernel) is contained as kUncorrectable and
      // never retried — typed failed responses, never a dead server.
      const auto* fault = dynamic_cast<const FaultError*>(&err);
      const FaultKind kind =
          fault != nullptr ? fault->kind() : FaultKind::kUncorrectable;
      // Fault attribution: a compute fault surfaced by the batched forward
      // cannot be pinned on one member, so the WHOLE batch retries (and,
      // when retries exhaust, fails) together through the breaker ladder.
      if (fault != nullptr && fault_kind_recoverable(kind) &&
          attempt < tcfg.retry.max_retries) {
        const auto backoff = std::chrono::microseconds(
            tcfg.retry.backoff_base.count() << attempt);
        Clock::time_point tightest = Clock::time_point::max();
        for (const auto& ticket : live) {
          tightest = std::min(tightest, ticket->deadline_tp);
        }
        if (Clock::now() + backoff < tightest) {
          ++attempt;
          stats_.retries.fetch_add(1, std::memory_order_relaxed);
          if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
          slot.heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
          continue;
        }
      }
      // Malformed requests are the client's defect, not the tenant's
      // compute health — they never walk the breaker ladder.
      if (kind != FaultKind::kMalformedInput) {
        for (const auto& ticket : live) breaker.on_fault(ticket->probe);
      }
      for (const auto& ticket : live) {
        fail(ticket, kind, err.what(), nullptr, response());
      }
      return;
    }
  }
}

void InferenceServer::process_decode(
    WorkerSlot& slot, const std::vector<std::shared_ptr<Ticket>>& batch) {
  // A shed step evicts its whole stream (fail() does): the sequence now
  // has a hole no later step could fill, so holding the KV cache would
  // only leak it.
  if (start_execution(slot, batch).empty()) return;
  const std::shared_ptr<Ticket>& ticket = batch.front();
  const TenantConfig& tcfg = ticket->tenant->cfg;
  CircuitBreaker& breaker = ticket->tenant->breaker;
  Response r;
  r.breaker_level = ticket->level;
  r.policy = tcfg.ladder[static_cast<std::size_t>(ticket->level)];

  try {
    std::int64_t token = -1;
    switch (ticket->op) {
      case DecodeOp::kOpen: {
        // Build + prefill outside every lock (the encoder forward is the
        // expensive part); publish to the map only once the stream is
        // usable. Reopening an id replaces (and frees) the old stream.
        auto entry = std::make_shared<StreamEntry>();
        entry->decoder = cfg_.decoder_factory();
        entry->decoder->open(ticket->src);
        token = entry->decoder->bos_token();
        {
          std::lock_guard<std::mutex> lk(streams_mu_);
          // A ticket the watchdog already failed stays unpublished: its
          // error told the client the stream is gone.
          if (!ticket->completed.load(std::memory_order_acquire)) {
            streams_[ticket->stream_key] = std::move(entry);
          }
        }
        stats_.decode_opened.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case DecodeOp::kStep: {
        std::shared_ptr<StreamEntry> entry;
        {
          std::lock_guard<std::mutex> lk(streams_mu_);
          auto it = streams_.find(ticket->stream_key);
          if (it != streams_.end()) entry = it->second;
        }
        if (entry == nullptr) {
          throw FaultError("serve/" + tcfg.name, FaultKind::kMalformedInput,
                           "unknown decode stream '" + ticket->stream_key +
                               "' (never opened, or already evicted)");
        }
        std::lock_guard<std::mutex> lk(entry->mu);
        token = entry->decoder->step(ticket->last_token);
        stats_.decode_steps.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      case DecodeOp::kClose: {
        if (evict_stream(ticket->stream_key)) {
          stats_.decode_closed.fetch_add(1, std::memory_order_relaxed);
        }
        break;
      }
    }

    // Lateness is load, not a compute fault (same rule as process()).
    breaker.on_success(ticket->probe);
    if (Clock::now() > ticket->deadline_tp) {
      fail(ticket, FaultKind::kDeadlineExceeded,
           "decode completed after deadline; stale token withheld",
           &stats_.deadline_missed, std::move(r));
      return;
    }
    r.ok = true;
    r.token = token;
    r.degraded = ticket->level > 0;
    if (complete(ticket, std::move(r))) {
      stats_.completed.fetch_add(1, std::memory_order_relaxed);
      if (ticket->level > 0) {
        stats_.degraded.fetch_add(1, std::memory_order_relaxed);
      }
    }
  } catch (const std::exception& err) {
    // Never retried: a step is stateful (it appended to the KV cache), so
    // re-executing after a fault could double-append — the stream is
    // evicted instead (fail() does) and the client reopens from scratch.
    const auto* fault = dynamic_cast<const FaultError*>(&err);
    const FaultKind kind =
        fault != nullptr ? fault->kind() : FaultKind::kUncorrectable;
    if (kind != FaultKind::kMalformedInput) breaker.on_fault(ticket->probe);
    fail(ticket, kind, err.what(), nullptr, std::move(r));
  }
}

void InferenceServer::watchdog_main() {
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(cfg_.watchdog.check_interval);
    const std::int64_t limit_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            cfg_.watchdog.wedge_timeout)
            .count();

    std::vector<std::shared_ptr<WorkerSlot>> slots;
    {
      std::lock_guard<std::mutex> lk(workers_mu_);
      slots = slots_;
    }
    for (const auto& slot : slots) {
      if (slot->wedged.load(std::memory_order_acquire) ||
          !slot->alive.load(std::memory_order_acquire)) {
        continue;
      }
      const std::int64_t hb = slot->heartbeat_ns.load(std::memory_order_relaxed);
      if (now_ns() - hb < limit_ns) continue;

      std::vector<std::shared_ptr<Ticket>> stuck;
      {
        std::lock_guard<std::mutex> lk(slot->mu);
        stuck = slot->inflight;
      }
      if (stuck.empty()) continue;  // idle worker; stale heartbeat is harmless

      // The worker has been silent past the wedge budget with work in
      // flight: fail EVERY member of its batch typed (a decode member's
      // stream is unlinked first, never waiting on the wedged step) and
      // replace the worker. The wedged thread retires itself when (if) its
      // forward ever returns; its late results lose the completion race
      // and are discarded.
      slot->wedged.store(true, std::memory_order_release);
      for (const auto& ticket : stuck) {
        fail(ticket, FaultKind::kWorkerWedged,
             "worker " + std::to_string(slot->index) +
                 " heartbeat stalled past wedge timeout; request failed",
             &stats_.watchdog_failed);
      }
      {
        std::lock_guard<std::mutex> lk(workers_mu_);
        spawn_worker_locked();
      }
    }
  }
}

void InferenceServer::shutdown() {
  bool was_accepting = accepting_.exchange(false, std::memory_order_acq_rel);
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    (void)was_accepting;
    return;  // already shut down
  }
  queue_.close();
  if (watchdog_.joinable()) watchdog_.join();
  std::vector<std::unique_ptr<std::thread>> threads;
  {
    std::lock_guard<std::mutex> lk(workers_mu_);
    threads.swap(threads_);
  }
  for (auto& t : threads) {
    if (t->joinable()) t->join();
  }
  // Workers are gone: free every live stream's KV cache state. Counted as
  // evictions — a drain is the server letting go, not a client close.
  std::map<std::string, std::shared_ptr<StreamEntry>> streams;
  {
    std::lock_guard<std::mutex> lk(streams_mu_);
    streams.swap(streams_);
  }
  stats_.decode_evicted.fetch_add(static_cast<std::int64_t>(streams.size()),
                                  std::memory_order_relaxed);
}

std::int64_t InferenceServer::decode_streams() const {
  std::lock_guard<std::mutex> lk(streams_mu_);
  return static_cast<std::int64_t>(streams_.size());
}

int InferenceServer::workers() const {
  std::lock_guard<std::mutex> lk(workers_mu_);
  int alive = 0;
  for (const auto& s : slots_) {
    if (s->alive.load(std::memory_order_acquire) &&
        !s->wedged.load(std::memory_order_acquire)) {
      ++alive;
    }
  }
  return alive;
}

std::int64_t InferenceServer::max_steady_state_allocs() const {
  std::lock_guard<std::mutex> lk(workers_mu_);
  std::int64_t worst = 0;
  for (const auto& s : slots_) {
    worst = std::max(worst,
                     s->max_steady_allocs.load(std::memory_order_relaxed));
  }
  return worst;
}

HealthReport InferenceServer::health() const {
  HealthReport h;
  h.stats = stats_.snapshot();
  h.queue_depth = queue_.size();
  h.queue_capacity = queue_.capacity();
  h.decode_streams = decode_streams();
  h.accepting = accepting_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lk(workers_mu_);
    for (const auto& s : slots_) {
      const bool wedged = s->wedged.load(std::memory_order_acquire);
      if (wedged) ++h.workers_wedged;
      if (s->alive.load(std::memory_order_acquire) && !wedged) ++h.workers;
    }
  }
  {
    std::lock_guard<std::mutex> lk(tenants_mu_);
    for (const auto& t : tenants_) {
      TenantHealth th;
      th.name = t->cfg.name;
      th.state = t->breaker.state();
      th.level = t->breaker.level();
      const auto idx = static_cast<std::size_t>(
          std::min(th.level, static_cast<int>(t->cfg.ladder.size()) - 1));
      th.policy = th.state == BreakerState::kOpen
                      ? ResiliencePolicy::kNone
                      : t->cfg.ladder[idx];
      th.breaker = t->breaker.counters();
      th.transitions = t->breaker.transitions();
      h.tenants.push_back(std::move(th));
    }
  }
  return h;
}

std::string HealthReport::to_string() const {
  std::string out;
  out += "serve: workers=" + std::to_string(workers) +
         (workers_wedged > 0
              ? " wedged=" + std::to_string(workers_wedged)
              : "") +
         " queue=" + std::to_string(queue_depth) + "/" +
         std::to_string(queue_capacity) +
         (accepting ? " accepting" : " draining") + "\n";
  out += "serve: admitted=" + std::to_string(stats.admitted) +
         " completed=" + std::to_string(stats.completed) +
         " degraded=" + std::to_string(stats.degraded) +
         " failed=" + std::to_string(stats.failed) +
         " retries=" + std::to_string(stats.retries) +
         " shed[overloaded]=" + std::to_string(stats.rejected_overload) +
         " shed[circuit-open]=" + std::to_string(stats.rejected_open) +
         " shed[deadline-exceeded]=" + std::to_string(stats.shed_deadline) +
         " late[deadline-exceeded]=" + std::to_string(stats.deadline_missed) +
         " failed[worker-wedged]=" + std::to_string(stats.watchdog_failed) +
         "\n";
  out += "serve: queue_wait_p50_us<=" +
         std::to_string(stats.queue_wait_percentile_us(0.50)) +
         " queue_wait_p99_us<=" +
         std::to_string(stats.queue_wait_percentile_us(0.99)) + "\n";
  if (stats.batches_executed > 0) {
    const double mean_occupancy =
        static_cast<double>(stats.batched_requests) /
        static_cast<double>(stats.batches_executed);
    out += "serve: batches=" + std::to_string(stats.batches_executed) +
           " batched_requests=" + std::to_string(stats.batched_requests) +
           " mean_occupancy=" +
           std::to_string(mean_occupancy).substr(0, 5) +
           " coalesce_wait_us=" + std::to_string(stats.coalesce_wait_us) +
           "\n";
    std::string occ;
    for (std::size_t b = 1; b < stats.batch_occupancy.size(); ++b) {
      if (stats.batch_occupancy[b] == 0) continue;
      if (!occ.empty()) occ += " ";
      occ += std::to_string(b) +
             (b == kBatchOccupancyBuckets ? "+" : "") + ":" +
             std::to_string(stats.batch_occupancy[b]);
    }
    if (!occ.empty()) out += "serve: batch_occupancy " + occ + "\n";
  }
  if (stats.decode_opened > 0 || decode_streams > 0) {
    out += "serve: decode streams=" + std::to_string(decode_streams) +
           " opened=" + std::to_string(stats.decode_opened) +
           " steps=" + std::to_string(stats.decode_steps) +
           " closed=" + std::to_string(stats.decode_closed) +
           " evicted=" + std::to_string(stats.decode_evicted) + "\n";
  }
  for (std::size_t k = 0; k < stats.failed_by_kind.size(); ++k) {
    if (stats.failed_by_kind[k] == 0) continue;
    out += "serve: failures[" +
           std::string(fault_kind_name(static_cast<FaultKind>(k))) +
           "]=" + std::to_string(stats.failed_by_kind[k]) + "\n";
  }
  for (const TenantHealth& t : tenants) {
    out += "serve: tenant " + t.name + " breaker=" +
           breaker_state_name(t.state) + " level=" + std::to_string(t.level) +
           " policy=" + resilience_policy_name(t.policy) +
           " opens=" + std::to_string(t.breaker.opens) +
           " step_downs=" + std::to_string(t.breaker.step_downs) +
           " step_ups=" + std::to_string(t.breaker.step_ups) +
           " probes=" + std::to_string(t.breaker.probes) +
           " rejected=" + std::to_string(t.breaker.rejected) + "\n";
    for (const BreakerTransition& tr : t.transitions) {
      out += "serve:   " + std::string(breaker_state_name(tr.from_state)) +
             "(L" + std::to_string(tr.from_level) + ") -> " +
             breaker_state_name(tr.to_state) + "(L" +
             std::to_string(tr.to_level) + "): " + tr.reason + "\n";
    }
  }
  return out;
}

}  // namespace af
