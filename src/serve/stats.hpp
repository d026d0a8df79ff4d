// Serving observability: relaxed-atomic counters and the HealthReport
// snapshot — the deterministic observation point the tests and the load
// bench assert against.
//
// ServerStats counters are written on the request hot paths with relaxed
// atomics (each is an independent monotone event count; no counter orders
// another), and read by snapshot() into a plain-value StatsSnapshot.
// HealthReport composes that snapshot with the per-tenant breaker states
// and the worker/queue liveness picture, and renders log lines that name
// fault kinds via fault_kind_name() — a report says "deadline-exceeded",
// never a raw enum integer.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/execution_context.hpp"
#include "src/serve/breaker.hpp"
#include "src/util/fault.hpp"

namespace af {

inline const char* resilience_policy_name(ResiliencePolicy p) {
  switch (p) {
    case ResiliencePolicy::kNone: return "none";
    case ResiliencePolicy::kGuard: return "guard";
    case ResiliencePolicy::kAbft: return "abft";
    case ResiliencePolicy::kAbftGuard: return "abft+guard";
  }
  return "unknown";
}

/// Log2-bucketed microsecond histogram: bucket b counts samples in
/// [2^b, 2^(b+1)) us (bucket 0 additionally holds 0us samples). 32 buckets
/// cover ~71 minutes — far beyond any deadline the server accepts.
inline constexpr std::size_t kLatencyBuckets = 32;

inline std::size_t latency_bucket_of(std::int64_t us) {
  if (us <= 1) return 0;
  std::size_t b = 0;
  while ((std::int64_t{1} << (b + 1)) <= us && b + 1 < kLatencyBuckets) ++b;
  return b;
}

/// Upper bound (exclusive) of a latency bucket in microseconds — the value
/// percentile queries report, so estimates are conservative (never report a
/// latency smaller than any sample in the bucket).
inline std::int64_t latency_bucket_upper_us(std::size_t bucket) {
  return std::int64_t{1} << (bucket + 1);
}

/// Largest batch size the occupancy histogram resolves exactly; larger
/// batches clamp into the last bucket. Index i counts executions with
/// batch size i (index 0 unused).
inline constexpr std::size_t kBatchOccupancyBuckets = 32;

/// Plain-value copy of the counters, safe to compare and print.
struct StatsSnapshot {
  std::int64_t submitted = 0;         ///< submit() calls
  std::int64_t admitted = 0;          ///< accepted into the queue
  std::int64_t rejected_overload = 0; ///< shed at admission: queue full
  std::int64_t rejected_open = 0;     ///< shed at admission: breaker open
  std::int64_t rejected_shutdown = 0; ///< shed at admission: draining
  std::int64_t shed_deadline = 0;     ///< expired in queue, never executed
  std::int64_t deadline_missed = 0;   ///< executed but finished too late
  std::int64_t completed = 0;         ///< responded ok
  std::int64_t degraded = 0;          ///< ok but non-clean report or level>0
  std::int64_t failed = 0;            ///< responded with a typed error
  std::int64_t retries = 0;           ///< re-executions after recoverable faults
  std::int64_t watchdog_failed = 0;   ///< in-flight requests failed as wedged
  std::array<std::int64_t, kFaultKindCount> failed_by_kind{};

  std::int64_t batches_executed = 0;  ///< batched forwards run (size >= 1)
  std::int64_t batched_requests = 0;  ///< requests carried by those forwards
  std::int64_t coalesce_wait_us = 0;  ///< total time spent widening batches

  std::int64_t decode_opened = 0;   ///< decode streams opened (prefills run)
  std::int64_t decode_steps = 0;    ///< decode steps served (tokens emitted)
  /// Stacked decode forwards run; decode_steps / decode_batches is the
  /// mean decode batch.
  std::int64_t decode_batches = 0;
  std::int64_t decode_closed = 0;   ///< streams closed by kClose requests
  std::int64_t decode_evicted = 0;  ///< streams freed by shed/fault/drain
  std::array<std::int64_t, kBatchOccupancyBuckets + 1> batch_occupancy{};
  std::array<std::int64_t, kLatencyBuckets> queue_wait_hist{};

  /// Conservative percentile (bucket upper bound) over recorded queue
  /// waits, in microseconds. Returns 0 when no waits were recorded.
  std::int64_t queue_wait_percentile_us(double p) const {
    std::int64_t total = 0;
    for (std::int64_t c : queue_wait_hist) total += c;
    if (total == 0) return 0;
    const std::int64_t rank =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(p * total + 0.5));
    std::int64_t seen = 0;
    for (std::size_t b = 0; b < queue_wait_hist.size(); ++b) {
      seen += queue_wait_hist[b];
      if (seen >= rank) return latency_bucket_upper_us(b);
    }
    return latency_bucket_upper_us(queue_wait_hist.size() - 1);
  }
};

/// Relaxed-atomic counters bumped on the request paths.
struct ServerStats {
  std::atomic<std::int64_t> submitted{0};
  std::atomic<std::int64_t> admitted{0};
  std::atomic<std::int64_t> rejected_overload{0};
  std::atomic<std::int64_t> rejected_open{0};
  std::atomic<std::int64_t> rejected_shutdown{0};
  std::atomic<std::int64_t> shed_deadline{0};
  std::atomic<std::int64_t> deadline_missed{0};
  std::atomic<std::int64_t> completed{0};
  std::atomic<std::int64_t> degraded{0};
  std::atomic<std::int64_t> failed{0};
  std::atomic<std::int64_t> retries{0};
  std::atomic<std::int64_t> watchdog_failed{0};
  std::array<std::atomic<std::int64_t>, kFaultKindCount> failed_by_kind{};

  std::atomic<std::int64_t> batches_executed{0};
  std::atomic<std::int64_t> batched_requests{0};
  std::atomic<std::int64_t> coalesce_wait_us{0};

  std::atomic<std::int64_t> decode_opened{0};
  std::atomic<std::int64_t> decode_steps{0};
  std::atomic<std::int64_t> decode_batches{0};
  std::atomic<std::int64_t> decode_closed{0};
  std::atomic<std::int64_t> decode_evicted{0};
  std::array<std::atomic<std::int64_t>, kBatchOccupancyBuckets + 1>
      batch_occupancy{};
  std::array<std::atomic<std::int64_t>, kLatencyBuckets> queue_wait_hist{};

  /// Called once per batched forward, before per-request completion.
  void count_batch(int size, std::int64_t wait_us) {
    batches_executed.fetch_add(1, std::memory_order_relaxed);
    batched_requests.fetch_add(size, std::memory_order_relaxed);
    coalesce_wait_us.fetch_add(wait_us, std::memory_order_relaxed);
    const std::size_t b = std::min<std::size_t>(
        kBatchOccupancyBuckets, static_cast<std::size_t>(std::max(size, 1)));
    batch_occupancy[b].fetch_add(1, std::memory_order_relaxed);
  }

  void record_queue_wait(std::int64_t us) {
    queue_wait_hist[latency_bucket_of(us)].fetch_add(
        1, std::memory_order_relaxed);
  }

  void count_failure(FaultKind kind) {
    failed.fetch_add(1, std::memory_order_relaxed);
    failed_by_kind[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
  }

  StatsSnapshot snapshot() const {
    StatsSnapshot s;
    s.submitted = submitted.load(std::memory_order_relaxed);
    s.admitted = admitted.load(std::memory_order_relaxed);
    s.rejected_overload = rejected_overload.load(std::memory_order_relaxed);
    s.rejected_open = rejected_open.load(std::memory_order_relaxed);
    s.rejected_shutdown = rejected_shutdown.load(std::memory_order_relaxed);
    s.shed_deadline = shed_deadline.load(std::memory_order_relaxed);
    s.deadline_missed = deadline_missed.load(std::memory_order_relaxed);
    s.completed = completed.load(std::memory_order_relaxed);
    s.degraded = degraded.load(std::memory_order_relaxed);
    s.failed = failed.load(std::memory_order_relaxed);
    s.retries = retries.load(std::memory_order_relaxed);
    s.watchdog_failed = watchdog_failed.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < s.failed_by_kind.size(); ++k) {
      s.failed_by_kind[k] =
          failed_by_kind[k].load(std::memory_order_relaxed);
    }
    s.batches_executed = batches_executed.load(std::memory_order_relaxed);
    s.batched_requests = batched_requests.load(std::memory_order_relaxed);
    s.coalesce_wait_us = coalesce_wait_us.load(std::memory_order_relaxed);
    s.decode_opened = decode_opened.load(std::memory_order_relaxed);
    s.decode_steps = decode_steps.load(std::memory_order_relaxed);
    s.decode_batches = decode_batches.load(std::memory_order_relaxed);
    s.decode_closed = decode_closed.load(std::memory_order_relaxed);
    s.decode_evicted = decode_evicted.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < s.batch_occupancy.size(); ++b) {
      s.batch_occupancy[b] = batch_occupancy[b].load(std::memory_order_relaxed);
    }
    for (std::size_t b = 0; b < s.queue_wait_hist.size(); ++b) {
      s.queue_wait_hist[b] = queue_wait_hist[b].load(std::memory_order_relaxed);
    }
    return s;
  }
};

/// One tenant's breaker picture inside a HealthReport.
struct TenantHealth {
  std::string name;
  BreakerState state = BreakerState::kClosed;
  int level = 0;
  ResiliencePolicy policy =
      ResiliencePolicy::kNone;  ///< set by the server from the ladder
  CircuitBreaker::Counters breaker;
  std::vector<BreakerTransition> transitions;
};

/// Point-in-time health of the whole server.
struct HealthReport {
  StatsSnapshot stats;
  std::vector<TenantHealth> tenants;
  int workers = 0;
  int workers_wedged = 0;
  std::int64_t queue_depth = 0;
  std::int64_t queue_capacity = 0;
  std::int64_t decode_streams = 0;  ///< live streams holding KV cache
  bool accepting = false;

  std::string to_string() const;
};

}  // namespace af
