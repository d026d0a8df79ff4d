// Serving core: bounded sharded queue, circuit-breaker state machine,
// admission control, deadline enforcement, retry/backoff, watchdog
// replacement, graceful drain, and the zero-steady-state-allocation
// contract under concurrent workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/nn/linear.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/serve/breaker.hpp"
#include "src/serve/queue.hpp"
#include "src/serve/server.hpp"
#include "src/serve/stats.hpp"
#include "src/tensor/tensor.hpp"
#include "src/util/fault.hpp"
#include "src/util/rng.hpp"

namespace af {
namespace {

using namespace std::chrono_literals;

Tensor random_tensor(std::initializer_list<std::int64_t> shape,
                     std::uint64_t seed) {
  Pcg32 rng(seed);
  return Tensor::randn(shape, rng);
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  if (a.numel() == 0) return true;
  return std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * 4) == 0;
}

// ----- ShardedBoundedQueue --------------------------------------------------

TEST(ServeQueue, PushPopRoundTrip) {
  ShardedBoundedQueue<int> q(8, 2);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(int(i)));
  EXPECT_EQ(q.size(), 5);
  int v = -1;
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_pop(v));
  EXPECT_EQ(q.size(), 0);
  EXPECT_FALSE(q.try_pop(v));
}

TEST(ServeQueue, EnforcesExactCapacityBound) {
  ShardedBoundedQueue<int> q(3, 2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4)) << "push past capacity must be refused";
  int v = 0;
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_TRUE(q.try_push(5)) << "freed slot must be reusable";
}

TEST(ServeQueue, PopTimesOutWhenEmpty) {
  ShardedBoundedQueue<int> q(4, 1);
  int v = 0;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop(v, 10ms));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 5ms);
}

TEST(ServeQueue, CloseDrainsBacklogThenReturnsFalse) {
  // Intake gating is the server's job (accepting_); close() only promises
  // that consumers drain the backlog and then return false immediately
  // instead of waiting out their timeout.
  ShardedBoundedQueue<int> q(4, 2);
  ASSERT_TRUE(q.try_push(7));
  ASSERT_TRUE(q.try_push(8));
  q.close();
  EXPECT_TRUE(q.closed());
  int v = 0;
  EXPECT_TRUE(q.pop(v, 10ms));
  EXPECT_TRUE(q.pop(v, 10ms));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop(v, 500ms)) << "closed and drained";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 400ms)
      << "a drained closed queue must not sit out the timeout";
}

TEST(ServeQueue, ConcurrentProducersConsumersDeliverEverythingOnce) {
  constexpr int kProducers = 4, kPerProducer = 200;
  ShardedBoundedQueue<int> q(64, 4);
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> received{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      int v = 0;
      while (q.pop(v, 50ms)) {
        sum.fetch_add(v);
        received.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int v = p * kPerProducer + i;
        while (!q.try_push(int(v))) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  while (q.size() > 0) std::this_thread::sleep_for(1ms);
  q.close();
  for (auto& t : consumers) t.join();
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(sum.load(), std::int64_t{total} * (total - 1) / 2);
}

// ----- CircuitBreaker -------------------------------------------------------

BreakerConfig small_breaker() {
  BreakerConfig cfg;
  cfg.ladder_levels = 2;
  cfg.fault_threshold = 2;
  cfg.recovery_threshold = 2;
  cfg.open_cooldown = 2;
  cfg.half_open_probes = 2;
  return cfg;
}

TEST(ServeBreaker, StepsDownAfterConsecutiveFaults) {
  CircuitBreaker b(small_breaker());
  EXPECT_EQ(b.level(), 0);
  b.on_fault(false);
  EXPECT_EQ(b.level(), 0) << "one fault is below the threshold";
  b.on_fault(false);
  EXPECT_EQ(b.level(), 1);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.counters().step_downs, 1);
}

TEST(ServeBreaker, SuccessResetsTheFaultStreak) {
  CircuitBreaker b(small_breaker());
  b.on_fault(false);
  b.on_success(false);
  b.on_fault(false);
  EXPECT_EQ(b.level(), 0) << "streak must be consecutive";
}

TEST(ServeBreaker, OpensAtMostDegradedLevelAndRejects) {
  CircuitBreaker b(small_breaker());
  for (int i = 0; i < 4; ++i) b.on_fault(false);  // 2 -> step down, 2 -> open
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  const auto d = b.admit();
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(b.counters().rejected, 1);
  EXPECT_EQ(b.counters().opens, 1);
}

TEST(ServeBreaker, CooldownLeadsToHalfOpenAndProbesRecover) {
  CircuitBreaker b(small_breaker());
  for (int i = 0; i < 4; ++i) b.on_fault(false);
  b.admit();  // rejection 1
  b.admit();  // rejection 2 -> cooldown reached, now half-open
  EXPECT_EQ(b.state(), BreakerState::kHalfOpen);
  auto d = b.admit();
  EXPECT_TRUE(d.admit);
  EXPECT_TRUE(d.probe);
  EXPECT_EQ(d.level, 1) << "probes run at the most degraded level";
  b.on_success(true);
  b.on_success(true);
  EXPECT_EQ(b.state(), BreakerState::kClosed);
  EXPECT_EQ(b.level(), 1) << "recovery closes at the most degraded level";
  EXPECT_EQ(b.counters().closes, 1);
}

TEST(ServeBreaker, ProbeFaultReopens) {
  CircuitBreaker b(small_breaker());
  for (int i = 0; i < 4; ++i) b.on_fault(false);
  b.admit();
  b.admit();
  ASSERT_EQ(b.state(), BreakerState::kHalfOpen);
  b.on_fault(true);
  EXPECT_EQ(b.state(), BreakerState::kOpen);
  EXPECT_EQ(b.counters().opens, 2);
}

TEST(ServeBreaker, StepsUpAfterRecoveryStreak) {
  CircuitBreaker b(small_breaker());
  b.on_fault(false);
  b.on_fault(false);
  ASSERT_EQ(b.level(), 1);
  b.on_success(false);
  b.on_success(false);
  EXPECT_EQ(b.level(), 0);
  EXPECT_EQ(b.counters().step_ups, 1);
}

TEST(ServeBreaker, StaleOutcomesWhileOpenAreIgnored) {
  CircuitBreaker b(small_breaker());
  for (int i = 0; i < 4; ++i) b.on_fault(false);
  ASSERT_EQ(b.state(), BreakerState::kOpen);
  b.on_success(false);  // a pre-open request finishing late
  b.on_fault(false);
  EXPECT_EQ(b.state(), BreakerState::kOpen) << "no transition from stale data";
}

TEST(ServeBreaker, TransitionLogRecordsTheWalk) {
  CircuitBreaker b(small_breaker());
  for (int i = 0; i < 4; ++i) b.on_fault(false);
  const auto log = b.transitions();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].from_level, 0);
  EXPECT_EQ(log[0].to_level, 1);
  EXPECT_EQ(log[1].from_state, BreakerState::kClosed);
  EXPECT_EQ(log[1].to_state, BreakerState::kOpen);
  EXPECT_FALSE(log[1].reason.empty());
}

// ----- server test rig ------------------------------------------------------

// Shared control panel for the test forward: inject typed faults for the
// next N runs, or block every forward on a spin gate.
struct Knobs {
  std::atomic<int> fail_next{0};
  std::atomic<int> fail_kind{static_cast<int>(FaultKind::kChecksumMismatch)};
  /// Injected faults throw std::runtime_error instead of a FaultError.
  std::atomic<bool> foreign{false};
  std::atomic<bool> block{false};
  /// Planning runs (BatchConfig::plan_rows) seen, and how long each takes.
  std::atomic<int> plans{0};
  std::atomic<int> plan_delay_ms{0};
};

constexpr std::uint64_t kSeed = 404;
constexpr std::int64_t kDim = 8;

// Takes the next injected fault, if one is armed.
bool take_fault(std::atomic<int>& fail_next) {
  int n = fail_next.load(std::memory_order_relaxed);
  while (n > 0 && !fail_next.compare_exchange_weak(n, n - 1)) {
  }
  return n > 0;
}

// The server plans on an all-zero exemplar; requests are random normals.
bool is_plan_exemplar(const Tensor& x) {
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (x[i] != 0.0f) return false;
  }
  return x.numel() > 0;
}

// Every worker's replica is built from the same seed, so any worker serves
// any request with identical bits.
InferenceServer::ForwardFactory test_factory(std::shared_ptr<Knobs> knobs) {
  return [knobs](int /*worker*/) -> InferenceSession::ForwardFn {
    auto fc = std::make_shared<Linear>([] {
      Pcg32 r(kSeed);
      return Linear(kDim, kDim, r, true, "fc");
    }());
    return [knobs, fc](const Tensor& x, ExecutionContext& ctx) {
      while (knobs->block.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(1ms);
      }
      // Injected faults target served requests, never the planning run.
      if (is_plan_exemplar(x)) {
        knobs->plans.fetch_add(1);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(knobs->plan_delay_ms.load()));
      } else if (take_fault(knobs->fail_next)) {
        if (knobs->foreign.load()) throw std::runtime_error("injected error");
        throw FaultError("test", static_cast<FaultKind>(knobs->fail_kind.load()),
                         "injected fault");
      }
      return fc->forward(x, ctx);
    };
  };
}

TenantConfig plain_tenant(const std::string& name) {
  TenantConfig t;
  t.name = name;
  t.ladder = {ResiliencePolicy::kNone};
  t.retry.backoff_base = std::chrono::microseconds(0);
  return t;
}

Request make_request(const std::string& tenant, std::uint64_t seed = 1) {
  Request req;
  req.tenant = tenant;
  req.input = random_tensor({2, kDim}, seed);
  return req;
}

FaultKind submit_expecting_rejection(InferenceServer& server, Request req) {
  try {
    server.submit(std::move(req));
  } catch (const FaultError& err) {
    return err.kind();
  }
  ADD_FAILURE() << "submit was expected to throw FaultError";
  return FaultKind::kNonFinite;
}

// ----- admission ------------------------------------------------------------

TEST(ServeAdmission, CompletesAndMatchesTheDirectForward) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), ServerConfig{});
  server.add_tenant(plain_tenant("t"));

  Response r = server.submit(make_request("t", 21)).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.retries, 0);
  EXPECT_EQ(r.breaker_level, 0);

  Pcg32 rng(kSeed);
  Linear direct(kDim, kDim, rng, true, "fc");
  ExecutionContext ctx;
  const Tensor expected = direct.forward(random_tensor({2, kDim}, 21), ctx);
  EXPECT_TRUE(bit_equal(r.output, expected));
}

TEST(ServeAdmission, UnknownTenantRejectedTyped) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), ServerConfig{});
  server.add_tenant(plain_tenant("t"));
  EXPECT_EQ(submit_expecting_rejection(server, make_request("nope")),
            FaultKind::kMalformedInput);
}

TEST(ServeAdmission, OverloadShedsTypedAtAdmission) {
  auto knobs = std::make_shared<Knobs>();
  knobs->block.store(true);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.watchdog.enabled = false;
  InferenceServer server(test_factory(knobs), cfg);
  server.add_tenant(plain_tenant("t"));

  auto first = server.submit(make_request("t"));
  // Let the lone worker pop the first request and park in the gate.
  std::this_thread::sleep_for(20ms);
  auto second = server.submit(make_request("t"));
  auto third = server.submit(make_request("t"));
  EXPECT_EQ(submit_expecting_rejection(server, make_request("t")),
            FaultKind::kOverloaded);

  knobs->block.store(false);
  EXPECT_TRUE(first.get().ok);
  EXPECT_TRUE(second.get().ok);
  EXPECT_TRUE(third.get().ok);
  server.shutdown();
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.rejected_overload, 1);
  EXPECT_EQ(s.admitted, 3);
}

TEST(ServeAdmission, BreakerOpenRejectsTyped) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), ServerConfig{});
  TenantConfig t = plain_tenant("t");
  t.breaker.fault_threshold = 1;
  t.retry.max_retries = 0;  // the injected fault must reach the breaker
  server.add_tenant(t);

  knobs->fail_next.store(1);
  Response r = server.submit(make_request("t")).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(submit_expecting_rejection(server, make_request("t")),
            FaultKind::kCircuitOpen);
  server.shutdown();
  EXPECT_EQ(server.stats().rejected_open, 1);
}

TEST(ServeAdmission, ShutdownRejectsTyped) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), ServerConfig{});
  server.add_tenant(plain_tenant("t"));
  server.shutdown();
  EXPECT_EQ(submit_expecting_rejection(server, make_request("t")),
            FaultKind::kShutdown);
  EXPECT_EQ(server.stats().rejected_shutdown, 1);
}

// ----- deadlines ------------------------------------------------------------

TEST(ServeDeadline, ExpiredInQueueIsShedBeforeExecution) {
  auto knobs = std::make_shared<Knobs>();
  knobs->block.store(true);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.watchdog.enabled = false;
  InferenceServer server(test_factory(knobs), cfg);
  server.add_tenant(plain_tenant("t"));

  auto blocked = server.submit(make_request("t"));
  std::this_thread::sleep_for(10ms);  // worker now parked in the gate
  Request hurried = make_request("t");
  hurried.deadline = std::chrono::microseconds(5000);
  auto doomed = server.submit(std::move(hurried));
  std::this_thread::sleep_for(30ms);  // deadline passes while queued
  knobs->block.store(false);

  EXPECT_TRUE(blocked.get().ok);
  Response r = doomed.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, FaultKind::kDeadlineExceeded);
  server.shutdown();
  EXPECT_EQ(server.stats().shed_deadline, 1);
}

TEST(ServeDeadline, LateCompletionFailsTypedNeverReturnsStale) {
  auto knobs = std::make_shared<Knobs>();
  knobs->block.store(true);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.watchdog.enabled = false;
  InferenceServer server(test_factory(knobs), cfg);
  TenantConfig t = plain_tenant("t");
  t.default_deadline = std::chrono::microseconds(15000);
  server.add_tenant(t);

  auto fut = server.submit(make_request("t"));
  std::this_thread::sleep_for(40ms);  // executing, but past the deadline
  knobs->block.store(false);
  Response r = fut.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, FaultKind::kDeadlineExceeded);
  EXPECT_EQ(r.output.numel(), 0) << "a stale result must be withheld";
  server.shutdown();
  EXPECT_EQ(server.stats().deadline_missed, 1);
  EXPECT_EQ(server.stats().shed_deadline, 0);
}

// ----- retry ----------------------------------------------------------------

TEST(ServeRetry, RecoverableKindsAreExactlyTheComputeLadderKinds) {
  EXPECT_TRUE(fault_kind_recoverable(FaultKind::kNonFinite));
  EXPECT_TRUE(fault_kind_recoverable(FaultKind::kChecksumMismatch));
  EXPECT_TRUE(fault_kind_recoverable(FaultKind::kUncorrectable));
  EXPECT_FALSE(fault_kind_recoverable(FaultKind::kMalformedInput));
  EXPECT_FALSE(fault_kind_recoverable(FaultKind::kStorageCorruption));
  EXPECT_FALSE(fault_kind_recoverable(FaultKind::kOverloaded));
  EXPECT_FALSE(fault_kind_recoverable(FaultKind::kShutdown));
}

TEST(ServeRetry, RecoverableFaultRetriedToSuccess) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), ServerConfig{});
  TenantConfig t = plain_tenant("t");
  t.retry.max_retries = 2;
  server.add_tenant(t);

  knobs->fail_next.store(1);
  Response r = server.submit(make_request("t")).get();
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.retries, 1);
  server.shutdown();
  EXPECT_EQ(server.stats().retries, 1);
  EXPECT_EQ(server.stats().completed, 1);
}

TEST(ServeRetry, ExhaustedBudgetFailsWithTheOriginalKind) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), ServerConfig{});
  TenantConfig t = plain_tenant("t");
  t.retry.max_retries = 2;
  t.breaker.fault_threshold = 100;  // keep the breaker out of this test
  server.add_tenant(t);

  knobs->fail_next.store(100);
  Response r = server.submit(make_request("t")).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, FaultKind::kChecksumMismatch);
  EXPECT_EQ(r.retries, 2);
  knobs->fail_next.store(0);
  server.shutdown();
  EXPECT_EQ(server.stats().retries, 2);
}

TEST(ServeRetry, MalformedInputIsNeverRetried) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), ServerConfig{});
  TenantConfig t = plain_tenant("t");
  t.retry.max_retries = 3;
  server.add_tenant(t);

  Request req;
  req.tenant = "t";
  req.input = random_tensor({2, kDim + 1}, 9);  // wrong inner dimension
  Response r = server.submit(std::move(req)).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, FaultKind::kMalformedInput);
  EXPECT_EQ(r.retries, 0);
  server.shutdown();
  EXPECT_EQ(server.stats().retries, 0);
}

TEST(ServeRetry, ForeignExceptionFailsUncorrectableUnretriedAndFeedsBreaker) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), ServerConfig{});
  TenantConfig t = plain_tenant("t");
  t.retry.max_retries = 2;        // kUncorrectable is a recoverable kind...
  t.breaker.fault_threshold = 1;  // ...yet one breaker fault opens it
  server.add_tenant(t);

  knobs->foreign.store(true);
  knobs->fail_next.store(1);
  Response r = server.submit(make_request("t")).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, FaultKind::kUncorrectable);
  EXPECT_EQ(r.retries, 0) << "a non-FaultError is never retried";
  EXPECT_EQ(submit_expecting_rejection(server, make_request("t")),
            FaultKind::kCircuitOpen)
      << "a non-FaultError always counts against the breaker";
  server.shutdown();
  EXPECT_EQ(server.stats().retries, 0);
}

// ----- malformed input fault containment ------------------------------------

TEST(ServeMalformed, TypedRejectionLeavesServerAndBreakerIntact) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), ServerConfig{});
  TenantConfig t = plain_tenant("t");
  t.breaker.fault_threshold = 1;  // a single *compute* fault would trip it
  server.add_tenant(t);

  // A named string keeps GCC 12's -Wrestrict pass from misfiring on the
  // literal-assignment memcpy under -O2 (same class of false positive as
  // the operator+ chains noted elsewhere).
  const std::string tenant_name("t");
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.tenant = tenant_name;
    req.input = random_tensor({2, kDim + 3}, 50 + static_cast<unsigned>(i));
    Response r = server.submit(std::move(req)).get();
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_kind, FaultKind::kMalformedInput);
  }
  // Malformed requests are the client's defect: the tenant breaker must
  // still be closed and a well-formed request must still serve.
  const HealthReport h = server.health();
  ASSERT_EQ(h.tenants.size(), 1u);
  EXPECT_EQ(h.tenants[0].state, BreakerState::kClosed);
  EXPECT_TRUE(server.submit(make_request("t")).get().ok);
}

// ----- watchdog -------------------------------------------------------------

TEST(ServeWatchdog, WedgedWorkerRequestFailedTypedAndWorkerReplaced) {
  auto knobs = std::make_shared<Knobs>();
  knobs->block.store(true);
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.watchdog.check_interval = 2ms;
  cfg.watchdog.wedge_timeout = 25ms;
  InferenceServer server(test_factory(knobs), cfg);
  server.add_tenant(plain_tenant("t"));

  auto fut = server.submit(make_request("t"));
  Response r = fut.get();  // the watchdog must deliver this, not the worker
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, FaultKind::kWorkerWedged);

  knobs->block.store(false);  // let the wedged thread retire
  Response again = server.submit(make_request("t")).get();
  EXPECT_TRUE(again.ok) << "replacement worker must serve";

  server.shutdown();
  EXPECT_EQ(server.stats().watchdog_failed, 1);
  EXPECT_EQ(server.stats().completed, 1);
}

// ----- drain ----------------------------------------------------------------

TEST(ServeDrain, ShutdownServesTheBacklogThenRejects) {
  auto knobs = std::make_shared<Knobs>();
  ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 32;
  InferenceServer server(test_factory(knobs), cfg);
  server.add_tenant(plain_tenant("t"));

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(server.submit(make_request("t", 100 + static_cast<unsigned>(i))));
  }
  server.shutdown();
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);
  EXPECT_EQ(server.stats().completed, 16);
  EXPECT_EQ(submit_expecting_rejection(server, make_request("t")),
            FaultKind::kShutdown);
  server.shutdown();  // idempotent
}

TEST(ServeDrain, DestructorDrainsOutstandingRequests) {
  auto knobs = std::make_shared<Knobs>();
  std::vector<std::future<Response>> futs;
  {
    InferenceServer server(test_factory(knobs), ServerConfig{});
    server.add_tenant(plain_tenant("t"));
    for (int i = 0; i < 8; ++i) {
      futs.push_back(server.submit(make_request("t")));
    }
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);
}

// ----- steady-state allocations ---------------------------------------------

TEST(ServeSteadyAllocs, ZeroAcrossConcurrentWorkers) {
  auto knobs = std::make_shared<Knobs>();
  ServerConfig cfg;
  cfg.workers = 3;
  cfg.queue_capacity = 64;
  InferenceServer server(test_factory(knobs), cfg);
  server.add_tenant(plain_tenant("t"));

  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 36; ++i) {
    futs.push_back(server.submit(make_request("t")));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);
  server.shutdown();
  EXPECT_EQ(server.max_steady_state_allocs(), 0)
      << "steady-state forwards must be allocation-free on every worker";
}

// ----- health report --------------------------------------------------------

TEST(ServeHealth, ReportNamesKindsStatesAndPolicies) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), ServerConfig{});
  TenantConfig t = plain_tenant("t");
  t.breaker.fault_threshold = 100;
  t.retry.max_retries = 0;  // let the fault surface as a failure
  server.add_tenant(t);

  knobs->fail_next.store(1);
  EXPECT_FALSE(server.submit(make_request("t")).get().ok);
  knobs->fail_next.store(0);
  EXPECT_TRUE(server.submit(make_request("t")).get().ok);
  server.shutdown();

  const std::string text = server.health().to_string();
  EXPECT_NE(text.find("failures[checksum-mismatch]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("breaker=closed"), std::string::npos) << text;
  EXPECT_NE(text.find("policy=none"), std::string::npos) << text;
  EXPECT_NE(text.find("draining"), std::string::npos) << text;
}

TEST(ServeHealth, FaultKindNamesCoverEveryKind) {
  for (int k = 0; k < kFaultKindCount; ++k) {
    const char* name = fault_kind_name(static_cast<FaultKind>(k));
    EXPECT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown") << "kind " << k << " has no name";
  }
}

// ----- queue batch pops -----------------------------------------------------

TEST(ServeQueueBatch, TryPopIfExtractsOnlyMatchingAndPreservesRest) {
  ShardedBoundedQueue<int> q(32, 4);
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(q.try_push(int(i)));
  std::vector<int> evens;
  int v = -1;
  while (q.try_pop_if(v, [](int x) { return x % 2 == 0; })) {
    evens.push_back(v);
  }
  EXPECT_EQ(evens.size(), 6u);
  for (int e : evens) EXPECT_EQ(e % 2, 0);
  EXPECT_EQ(q.size(), 6) << "odd items must stay queued";
  // Nothing matching is a clean miss: the queue is untouched.
  EXPECT_FALSE(q.try_pop_if(v, [](int x) { return x % 2 == 0; }));
  EXPECT_EQ(q.size(), 6);
  std::vector<int> odds;
  while (q.try_pop(v)) odds.push_back(v);
  EXPECT_EQ(odds.size(), 6u);
  for (int o : odds) EXPECT_EQ(o % 2, 1);
}

TEST(ServeQueueBatch, TryPopBatchHonorsMaxItems) {
  ShardedBoundedQueue<int> q(32, 4);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_push(int(i)));
  std::vector<int> got;
  EXPECT_EQ(q.try_pop_batch(got, 4, [](int) { return true; }), 4);
  EXPECT_EQ(got.size(), 4u);
  EXPECT_EQ(q.size(), 6);
  // Appends rather than clobbers, and drains what is left when the queue
  // holds fewer matches than max_items.
  EXPECT_EQ(q.try_pop_batch(got, 100, [](int) { return true; }), 6);
  EXPECT_EQ(got.size(), 10u);
  EXPECT_EQ(q.size(), 0);
}

TEST(ServeQueueBatch, ConcurrentBatchPopsDeliverEverythingExactlyOnce) {
  // Exactly-once across shards under contention: every pushed value must
  // surface in exactly one consumer's batch vector, and the capacity
  // accounting must return to zero.
  constexpr int kTotal = 800;
  ShardedBoundedQueue<int> q(kTotal, 4);
  std::vector<std::vector<int>> got(4);
  std::atomic<int> remaining{kTotal};
  std::thread producer([&] {
    for (int i = 0; i < kTotal; ++i) {
      while (!q.try_push(int(i))) std::this_thread::yield();
    }
  });
  std::vector<std::thread> consumers;
  for (int c = 0; c < 4; ++c) {
    consumers.emplace_back([&, c] {
      // Each consumer coalesces only its own congruence class — the same
      // shape as same-tenant batching, where predicates partition the queue.
      while (remaining.load(std::memory_order_acquire) > 0) {
        const int n = q.try_pop_batch(got[static_cast<std::size_t>(c)], 8,
                                      [c](int x) { return x % 4 == c; });
        if (n > 0) {
          remaining.fetch_sub(n, std::memory_order_acq_rel);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  producer.join();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(q.size(), 0) << "capacity accounting must drain to zero";
  std::set<int> seen;
  for (int c = 0; c < 4; ++c) {
    for (int v : got[static_cast<std::size_t>(c)]) {
      EXPECT_EQ(v % 4, c) << "a consumer popped outside its predicate";
      EXPECT_TRUE(seen.insert(v).second) << "value " << v << " popped twice";
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), kTotal);
  // The drained queue's capacity is fully reusable.
  for (int i = 0; i < kTotal; ++i) EXPECT_TRUE(q.try_push(int(i)));
  EXPECT_FALSE(q.try_push(0));
}

// ----- adaptive micro-batching ----------------------------------------------

ServerConfig batching_config(int max_batch) {
  ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 64;
  cfg.watchdog.enabled = false;
  cfg.batch.max_batch = max_batch;
  cfg.batch.coalesce_window = 200ms;
  cfg.batch.plan_rows = static_cast<std::int64_t>(max_batch) * 2;
  return cfg;
}

TEST(ServeBatch, BatchedResponsesBitIdenticalToSerialExecution) {
  auto knobs = std::make_shared<Knobs>();
  constexpr int kReqs = 8;

  // Serial oracle: the same requests, one at a time, batching disabled.
  std::vector<Tensor> serial(kReqs);
  {
    InferenceServer server(test_factory(knobs), batching_config(1));
    server.add_tenant(plain_tenant("t"));
    for (int i = 0; i < kReqs; ++i) {
      Response r =
          server.submit(make_request("t", 300 + static_cast<unsigned>(i)))
              .get();
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(r.batch_size, 1);
      serial[static_cast<std::size_t>(i)] = r.output;
    }
  }

  // Batched run: park the lone worker, queue all requests, release — the
  // worker pops one and coalesces the rest into a single forward.
  knobs->block.store(true);
  InferenceServer server(test_factory(knobs), batching_config(kReqs));
  server.add_tenant(plain_tenant("t"));
  std::vector<std::future<Response>> futs;
  futs.push_back(server.submit(make_request("t", 300)));
  std::this_thread::sleep_for(20ms);  // worker holds request 0 in the gate
  for (int i = 1; i < kReqs; ++i) {
    futs.push_back(server.submit(make_request("t", 300 + static_cast<unsigned>(i))));
  }
  std::this_thread::sleep_for(20ms);  // the rest are queued behind it
  knobs->block.store(false);

  int max_batch_seen = 1;
  for (int i = 0; i < kReqs; ++i) {
    Response r = futs[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(bit_equal(r.output, serial[static_cast<std::size_t>(i)]))
        << "request " << i << " diverged from its serial execution";
    max_batch_seen = std::max(max_batch_seen, r.batch_size);
  }
  EXPECT_GT(max_batch_seen, 1) << "coalescing never happened";
  server.shutdown();
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.completed, kReqs);
  EXPECT_GT(s.batches_executed, 0);
  EXPECT_LT(s.batches_executed, kReqs) << "every forward ran solo";
}

TEST(ServeBatch, CrossTenantRequestsNeverCoalesce) {
  auto knobs = std::make_shared<Knobs>();
  knobs->block.store(true);
  InferenceServer server(test_factory(knobs), batching_config(8));
  server.add_tenant(plain_tenant("a"));
  server.add_tenant(plain_tenant("b"));

  std::vector<std::future<Response>> futs;
  futs.push_back(server.submit(make_request("a", 400)));
  std::this_thread::sleep_for(20ms);
  // 3 more per tenant, interleaved in the queue. max_batch is 8, so only
  // the tenant predicate can keep batches at 4 or below.
  for (int i = 1; i < 4; ++i) {
    futs.push_back(server.submit(make_request("a", 400 + static_cast<unsigned>(i))));
    futs.push_back(server.submit(make_request("b", 500 + static_cast<unsigned>(i))));
  }
  futs.push_back(server.submit(make_request("b", 500)));
  std::this_thread::sleep_for(20ms);
  knobs->block.store(false);

  for (auto& f : futs) {
    Response r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_LE(r.batch_size, 4)
        << "a batch wider than one tenant's backlog must be cross-tenant";
  }
  server.shutdown();
}

TEST(ServeBatch, CoalesceNeverOutwaitsTheTightestDeadline) {
  // A lone request with a tight deadline against a huge coalesce window:
  // the wait bound min(window, deadline - margin) must release the batch
  // in time for the request to complete ok.
  auto knobs = std::make_shared<Knobs>();
  ServerConfig cfg = batching_config(8);
  cfg.batch.coalesce_window = 2000ms;  // far beyond the deadline
  InferenceServer server(test_factory(knobs), cfg);
  server.add_tenant(plain_tenant("t"));

  Request req = make_request("t", 600);
  req.deadline = std::chrono::microseconds(150000);  // 150ms
  const auto t0 = std::chrono::steady_clock::now();
  Response r = server.submit(std::move(req)).get();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_LT(elapsed, 1000ms)
      << "the coalesce wait sat out the window past the deadline";
  server.shutdown();
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.deadline_missed, 0);
  EXPECT_EQ(s.shed_deadline, 0);
}

TEST(ServeBatch, EagerPlanRunsBeforeTheCoalesceWait) {
  // The coalesce wait releases the lone request 1 ms before its deadline.
  // A 5 ms planning forward run after the wait would spend that margin
  // and make it late; run before the wait, it only shortens the wait.
  auto knobs = std::make_shared<Knobs>();
  knobs->plan_delay_ms.store(5);
  ServerConfig cfg = batching_config(8);
  cfg.batch.coalesce_window = 2000ms;
  InferenceServer server(test_factory(knobs), cfg);
  server.add_tenant(plain_tenant("t"));

  Request req = make_request("t", 610);
  req.deadline = std::chrono::microseconds(150000);  // 150ms
  Response r = server.submit(std::move(req)).get();
  server.shutdown();
  EXPECT_EQ(knobs->plans.load(), 1);
  EXPECT_EQ(server.stats().deadline_missed, 0)
      << "the planning forward ran inside the deadline margin: " << r.error;
}

TEST(ServeBatch, ComputeFaultRetriesTheWholeBatchToSuccess) {
  auto knobs = std::make_shared<Knobs>();
  knobs->block.store(true);
  ServerConfig cfg = batching_config(4);
  InferenceServer server(test_factory(knobs), cfg);
  TenantConfig t = plain_tenant("t");
  t.retry.max_retries = 2;
  t.breaker.fault_threshold = 100;
  server.add_tenant(t);

  std::vector<std::future<Response>> futs;
  futs.push_back(server.submit(make_request("t", 700)));
  std::this_thread::sleep_for(20ms);
  for (int i = 1; i < 4; ++i) {
    futs.push_back(server.submit(make_request("t", 700 + static_cast<unsigned>(i))));
  }
  std::this_thread::sleep_for(20ms);
  knobs->fail_next.store(1);  // first batched forward faults, retry succeeds
  knobs->block.store(false);

  int batched = 0;
  for (auto& f : futs) {
    Response r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    if (r.batch_size == 4) {
      ++batched;
      EXPECT_EQ(r.retries, 1) << "every member re-executed with its batch";
    }
  }
  EXPECT_EQ(batched, 4) << "the parked backlog should coalesce into one batch";
  server.shutdown();
  EXPECT_EQ(server.stats().retries, 1)
      << "one batch re-execution, not one retry per member";
}

TEST(ServeBatch, OccupancyHistogramAccountsEveryBatchedRequest) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), batching_config(4));
  server.add_tenant(plain_tenant("t"));
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 20; ++i) {
    futs.push_back(server.submit(make_request("t", 800 + static_cast<unsigned>(i))));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);
  server.shutdown();

  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.completed, 20);
  EXPECT_EQ(s.batched_requests, 20)
      << "every executed request flows through count_batch";
  std::int64_t by_occupancy = 0, batches = 0;
  for (std::size_t b = 1; b < s.batch_occupancy.size(); ++b) {
    by_occupancy += static_cast<std::int64_t>(b) * s.batch_occupancy[b];
    batches += s.batch_occupancy[b];
  }
  EXPECT_EQ(by_occupancy, s.batched_requests)
      << "sum of size x count must equal the requests carried";
  EXPECT_EQ(batches, s.batches_executed);
}

TEST(ServeBatch, HealthReportShowsQueueWaitPercentilesAndOccupancy) {
  auto knobs = std::make_shared<Knobs>();
  InferenceServer server(test_factory(knobs), batching_config(4));
  server.add_tenant(plain_tenant("t"));
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 8; ++i) {
    futs.push_back(server.submit(make_request("t")));
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().ok);
  server.shutdown();

  const std::string text = server.health().to_string();
  EXPECT_NE(text.find("queue_wait_p50_us"), std::string::npos) << text;
  EXPECT_NE(text.find("queue_wait_p99_us"), std::string::npos) << text;
  EXPECT_NE(text.find("batch_occupancy"), std::string::npos) << text;
  EXPECT_NE(text.find("batches="), std::string::npos) << text;

  const StatsSnapshot s = server.stats();
  EXPECT_GT(s.queue_wait_percentile_us(0.5), 0);
  EXPECT_GE(s.queue_wait_percentile_us(0.99), s.queue_wait_percentile_us(0.5))
      << "p99 must dominate p50";
}

// ----- decode streams -------------------------------------------------------

struct DecodeKnobs {
  std::atomic<int> fail_next{0};
  /// Faults the next batched step as a whole, as a shared forward would.
  std::atomic<int> fail_next_batch{0};
  /// Set when one batched step held two slots of one stream.
  std::atomic<bool> stream_twice_in_batch{false};
  /// Injected faults throw std::runtime_error instead of a FaultError.
  std::atomic<bool> foreign{false};
  std::atomic<bool> block{false};
  /// Steps that have entered step(), counted before the `block` gate.
  std::atomic<int> entered{0};
  /// Decoders currently alive — eviction must free the KV-holding object.
  std::atomic<int> live{0};
};

// Deterministic stand-in for TransformerStreamDecoder (serve_test does not
// link af_models): open() folds the source into a sum, step() is a pure
// function of (sum, last_token), so expected tokens are computable inline.
// A negative token is out of its vocabulary; kPoisonToken faults the step.
constexpr std::int64_t kPoisonToken = 666;

class FakeStreamDecoder : public StreamDecoder {
 public:
  explicit FakeStreamDecoder(std::shared_ptr<DecodeKnobs> knobs)
      : knobs_(std::move(knobs)) {
    knobs_->live.fetch_add(1, std::memory_order_relaxed);
  }
  ~FakeStreamDecoder() override {
    knobs_->live.fetch_sub(1, std::memory_order_relaxed);
  }

  void open(const std::vector<std::int64_t>& src) override {
    sum_ = 0;
    for (std::int64_t s : src) sum_ += s;
  }

  std::int64_t step(std::int64_t last_token) override {
    knobs_->entered.fetch_add(1, std::memory_order_acq_rel);
    while (knobs_->block.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(1ms);
    }
    if (take_fault(knobs_->fail_next)) {
      if (knobs_->foreign.load()) throw std::runtime_error("injected error");
      throw FaultError("decode-test", FaultKind::kNonFinite,
                       "injected step fault");
    }
    if (last_token < 0) {
      throw FaultError("decode-test", FaultKind::kMalformedInput,
                       "token out of vocab");
    }
    if (last_token == kPoisonToken) {
      throw FaultError("decode-test", FaultKind::kNonFinite,
                       "poisoned step");
    }
    return sum_ + last_token + 1;
  }

  void step_batch(std::span<DecodeStepSlot> slots, Arena& scratch) override {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      for (std::size_t j = i + 1; j < slots.size(); ++j) {
        if (slots[i].decoder == slots[j].decoder) {
          knobs_->stream_twice_in_batch.store(true);
        }
      }
    }
    if (take_fault(knobs_->fail_next_batch)) {
      throw FaultError("decode-test", FaultKind::kNonFinite,
                       "injected batch fault");
    }
    StreamDecoder::step_batch(slots, scratch);
  }

  std::int64_t bos_token() const override { return 1; }
  std::int64_t eos_token() const override { return 2; }
  std::size_t cache_bytes() const override { return 64; }

 private:
  std::shared_ptr<DecodeKnobs> knobs_;
  std::int64_t sum_ = 0;
};

ServerConfig decode_config(std::shared_ptr<DecodeKnobs> knobs) {
  ServerConfig cfg;
  cfg.decoder_factory = [knobs]() -> std::unique_ptr<StreamDecoder> {
    return std::make_unique<FakeStreamDecoder>(knobs);
  };
  return cfg;
}

DecodeRequest make_decode(const std::string& tenant, const std::string& stream,
                          DecodeOp op, std::int64_t last_token = -1) {
  DecodeRequest req;
  req.tenant = tenant;
  req.stream = stream;
  req.op = op;
  req.last_token = last_token;
  if (op == DecodeOp::kOpen) req.src = {3, 4};
  return req;
}

TEST(ServeDecode, OpenStepCloseRoundTrip) {
  auto knobs = std::make_shared<DecodeKnobs>();
  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         decode_config(knobs));
  server.add_tenant(plain_tenant("t"));

  Response opened = server.submit_decode(make_decode("t", "s", DecodeOp::kOpen))
                        .get();
  ASSERT_TRUE(opened.ok) << opened.error;
  EXPECT_EQ(opened.token, 1) << "kOpen returns the stream's BOS token";
  EXPECT_EQ(server.decode_streams(), 1);

  // sum(src)=7; step(last) = 7 + last + 1.
  Response s1 =
      server.submit_decode(make_decode("t", "s", DecodeOp::kStep, opened.token))
          .get();
  ASSERT_TRUE(s1.ok) << s1.error;
  EXPECT_EQ(s1.token, 9);
  Response s2 =
      server.submit_decode(make_decode("t", "s", DecodeOp::kStep, s1.token))
          .get();
  ASSERT_TRUE(s2.ok) << s2.error;
  EXPECT_EQ(s2.token, 17);

  Response closed =
      server.submit_decode(make_decode("t", "s", DecodeOp::kClose)).get();
  EXPECT_TRUE(closed.ok) << closed.error;
  EXPECT_EQ(server.decode_streams(), 0);
  EXPECT_EQ(knobs->live.load(), 0) << "close must free the decoder's cache";

  server.shutdown();
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.decode_opened, 1);
  EXPECT_EQ(s.decode_steps, 2);
  EXPECT_EQ(s.decode_closed, 1);
  EXPECT_EQ(s.decode_evicted, 0);
}

TEST(ServeDecode, StepOnUnknownStreamFailsTypedNotTheServer) {
  auto knobs = std::make_shared<DecodeKnobs>();
  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         decode_config(knobs));
  server.add_tenant(plain_tenant("t"));

  Response r =
      server.submit_decode(make_decode("t", "ghost", DecodeOp::kStep, 1)).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, FaultKind::kMalformedInput);

  // The malformed step neither fed the breaker nor wedged the server: a
  // proper open on the same tenant still succeeds at level 0.
  Response opened =
      server.submit_decode(make_decode("t", "s", DecodeOp::kOpen)).get();
  ASSERT_TRUE(opened.ok) << opened.error;
  EXPECT_EQ(opened.breaker_level, 0);
  server.shutdown();
}

TEST(ServeDecode, SubmitRejectsMisconfigurationTyped) {
  auto knobs = std::make_shared<DecodeKnobs>();

  // No decoder_factory configured at all.
  InferenceServer bare(test_factory(std::make_shared<Knobs>()), ServerConfig{});
  bare.add_tenant(plain_tenant("t"));
  try {
    bare.submit_decode(make_decode("t", "s", DecodeOp::kOpen));
    ADD_FAILURE() << "submit_decode without a factory must throw";
  } catch (const FaultError& err) {
    EXPECT_EQ(err.kind(), FaultKind::kMalformedInput);
  }

  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         decode_config(knobs));
  server.add_tenant(plain_tenant("t"));
  try {
    server.submit_decode(make_decode("nope", "s", DecodeOp::kOpen));
    ADD_FAILURE() << "unknown tenant must throw";
  } catch (const FaultError& err) {
    EXPECT_EQ(err.kind(), FaultKind::kMalformedInput);
  }
  try {
    server.submit_decode(make_decode("t", "", DecodeOp::kOpen));
    ADD_FAILURE() << "empty stream id must throw";
  } catch (const FaultError& err) {
    EXPECT_EQ(err.kind(), FaultKind::kMalformedInput);
  }
}

TEST(ServeDecode, StepFaultEvictsTheStreamAndFreesItsCache) {
  auto knobs = std::make_shared<DecodeKnobs>();
  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         decode_config(knobs));
  server.add_tenant(plain_tenant("t"));

  ASSERT_TRUE(
      server.submit_decode(make_decode("t", "s", DecodeOp::kOpen)).get().ok);
  EXPECT_EQ(knobs->live.load(), 1);

  knobs->fail_next.store(1);
  Response r =
      server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 1)).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, FaultKind::kNonFinite);
  EXPECT_EQ(server.decode_streams(), 0)
      << "a faulted stream has a hole in its sequence; its cache is freed";
  EXPECT_EQ(knobs->live.load(), 0);

  // Never retried, so the stream is simply gone: the next step is typed
  // unknown and the client must reopen from scratch.
  Response gone =
      server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 1)).get();
  EXPECT_FALSE(gone.ok);
  EXPECT_EQ(gone.error_kind, FaultKind::kMalformedInput);

  // Any other exception out of a step is contained the same way, typed
  // kUncorrectable.
  ASSERT_TRUE(
      server.submit_decode(make_decode("t", "s", DecodeOp::kOpen)).get().ok);
  knobs->foreign.store(true);
  knobs->fail_next.store(1);
  Response foreign =
      server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 1)).get();
  EXPECT_EQ(foreign.error_kind, FaultKind::kUncorrectable);
  EXPECT_EQ(server.decode_streams(), 0);
  EXPECT_EQ(knobs->live.load(), 0);
  server.shutdown();
  EXPECT_GE(server.stats().decode_evicted, 2);
}

TEST(ServeDecode, WedgedStepEvictsTheStream) {
  auto knobs = std::make_shared<DecodeKnobs>();
  ServerConfig cfg = decode_config(knobs);
  cfg.workers = 1;
  cfg.watchdog.check_interval = 2ms;
  cfg.watchdog.wedge_timeout = 25ms;
  InferenceServer server(test_factory(std::make_shared<Knobs>()), cfg);
  server.add_tenant(plain_tenant("t"));

  ASSERT_TRUE(
      server.submit_decode(make_decode("t", "s", DecodeOp::kOpen)).get().ok);
  knobs->block.store(true);
  Response r =
      server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 1)).get();
  EXPECT_EQ(r.error_kind, FaultKind::kWorkerWedged);
  // The watchdog unlinked the stream without waiting on the wedged step,
  // which still holds the decoder.
  EXPECT_EQ(server.decode_streams(), 0)
      << "a client that sees the error must not find the stream live";
  EXPECT_EQ(knobs->live.load(), 1);

  knobs->block.store(false);
  for (int i = 0; i < 2000 && knobs->live.load() != 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(knobs->live.load(), 0)
      << "the decoder is freed when the returning step lets go of it";
  server.shutdown();
  EXPECT_EQ(server.stats().watchdog_failed, 1);
  EXPECT_EQ(server.stats().decode_evicted, 1);
}

TEST(ServeDecode, BreakerOpenRejectsTyped) {
  auto knobs = std::make_shared<DecodeKnobs>();
  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         decode_config(knobs));
  TenantConfig t = plain_tenant("t");
  t.breaker.fault_threshold = 1;
  server.add_tenant(t);

  ASSERT_TRUE(
      server.submit_decode(make_decode("t", "s", DecodeOp::kOpen)).get().ok);
  knobs->fail_next.store(1);
  EXPECT_FALSE(
      server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 1)).get().ok);
  try {
    server.submit_decode(make_decode("t", "s", DecodeOp::kOpen));
    ADD_FAILURE() << "an open breaker must reject decode requests";
  } catch (const FaultError& err) {
    EXPECT_EQ(err.kind(), FaultKind::kCircuitOpen);
  }
  server.shutdown();
  EXPECT_EQ(server.stats().rejected_open, 1);
}

TEST(ServeDecode, OverloadRejectsTyped) {
  auto knobs = std::make_shared<DecodeKnobs>();
  ServerConfig cfg = decode_config(knobs);
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  cfg.watchdog.enabled = false;
  InferenceServer server(test_factory(std::make_shared<Knobs>()), cfg);
  server.add_tenant(plain_tenant("t"));

  ASSERT_TRUE(
      server.submit_decode(make_decode("t", "s", DecodeOp::kOpen)).get().ok);
  knobs->block.store(true);
  auto parked = server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 1));
  std::this_thread::sleep_for(20ms);  // the lone worker parks in the step
  auto second = server.submit_decode(make_decode("t", "a", DecodeOp::kOpen));
  auto third = server.submit_decode(make_decode("t", "b", DecodeOp::kOpen));
  try {
    server.submit_decode(make_decode("t", "c", DecodeOp::kOpen));
    ADD_FAILURE() << "a full queue must reject decode requests";
  } catch (const FaultError& err) {
    EXPECT_EQ(err.kind(), FaultKind::kOverloaded);
  }

  knobs->block.store(false);
  EXPECT_TRUE(parked.get().ok);
  EXPECT_TRUE(second.get().ok);
  EXPECT_TRUE(third.get().ok);
  server.shutdown();
  EXPECT_EQ(server.stats().rejected_overload, 1);
  EXPECT_EQ(server.stats().admitted, 4);
}

TEST(ServeDecode, ReopeningAStreamIdReplacesAndFreesTheOldStream) {
  auto knobs = std::make_shared<DecodeKnobs>();
  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         decode_config(knobs));
  server.add_tenant(plain_tenant("t"));

  ASSERT_TRUE(
      server.submit_decode(make_decode("t", "s", DecodeOp::kOpen)).get().ok);
  DecodeRequest reopen = make_decode("t", "s", DecodeOp::kOpen);
  reopen.src = {10};
  ASSERT_TRUE(server.submit_decode(std::move(reopen)).get().ok);

  EXPECT_EQ(server.decode_streams(), 1);
  EXPECT_EQ(knobs->live.load(), 1) << "the replaced decoder must be freed";
  // Steps run against the new source: sum(src)=10, step(1) = 12.
  Response s1 =
      server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 1)).get();
  ASSERT_TRUE(s1.ok) << s1.error;
  EXPECT_EQ(s1.token, 12);
  server.shutdown();
  EXPECT_EQ(server.stats().decode_opened, 2);
}

TEST(ServeDecode, DeadlineExpiredInQueueShedsTheStepAndEvictsTheStream) {
  auto knobs = std::make_shared<DecodeKnobs>();
  ServerConfig cfg = decode_config(knobs);
  cfg.workers = 1;
  cfg.watchdog.enabled = false;
  InferenceServer server(test_factory(std::make_shared<Knobs>()), cfg);
  server.add_tenant(plain_tenant("t"));

  ASSERT_TRUE(
      server.submit_decode(make_decode("t", "s", DecodeOp::kOpen)).get().ok);

  knobs->block.store(true);
  auto blocked =
      server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 1));
  std::this_thread::sleep_for(10ms);  // worker parked inside the step
  DecodeRequest hurried = make_decode("t", "s", DecodeOp::kStep, 1);
  hurried.deadline = std::chrono::microseconds(5000);
  auto doomed = server.submit_decode(std::move(hurried));
  std::this_thread::sleep_for(30ms);  // deadline passes while queued
  knobs->block.store(false);

  EXPECT_TRUE(blocked.get().ok);
  Response r = doomed.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, FaultKind::kDeadlineExceeded);
  EXPECT_EQ(server.decode_streams(), 0)
      << "a shed step leaves a hole; the stream's cache must be freed";
  server.shutdown();
  EXPECT_EQ(server.stats().shed_deadline, 1);
}

TEST(ServeDecode, LateStepWithholdsTheTokenAndEvicts) {
  auto knobs = std::make_shared<DecodeKnobs>();
  ServerConfig cfg = decode_config(knobs);
  cfg.workers = 1;
  cfg.watchdog.enabled = false;
  InferenceServer server(test_factory(std::make_shared<Knobs>()), cfg);
  TenantConfig t = plain_tenant("t");
  t.default_deadline = std::chrono::microseconds(15000);
  server.add_tenant(t);

  ASSERT_TRUE(
      server.submit_decode(make_decode("t", "s", DecodeOp::kOpen)).get().ok);
  knobs->block.store(true);
  auto fut = server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 1));
  std::this_thread::sleep_for(40ms);  // executing, but past the deadline
  knobs->block.store(false);
  Response r = fut.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_kind, FaultKind::kDeadlineExceeded);
  EXPECT_EQ(r.token, -1) << "a stale token must be withheld";
  EXPECT_EQ(server.decode_streams(), 0);
  server.shutdown();
  EXPECT_EQ(server.stats().deadline_missed, 1);
}

TEST(ServeDecode, DrainFreesEveryStreamAndRejectsNewDecodes) {
  auto knobs = std::make_shared<DecodeKnobs>();
  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         decode_config(knobs));
  server.add_tenant(plain_tenant("t"));

  for (int i = 0; i < 4; ++i) {
    // Built with += rather than operator+ chains: GCC 12's -Wrestrict pass
    // misfires on the temporary-string concatenation under -O2.
    std::string stream_id = "s";
    stream_id += std::to_string(i);
    ASSERT_TRUE(
        server.submit_decode(make_decode("t", stream_id, DecodeOp::kOpen))
            .get()
            .ok);
  }
  EXPECT_EQ(server.decode_streams(), 4);

  server.shutdown();
  EXPECT_EQ(server.decode_streams(), 0);
  EXPECT_EQ(knobs->live.load(), 0) << "drain must free every stream's cache";
  EXPECT_EQ(server.stats().decode_evicted, 4);
  try {
    server.submit_decode(make_decode("t", "s", DecodeOp::kOpen));
    ADD_FAILURE() << "decode after shutdown must be rejected";
  } catch (const FaultError& err) {
    EXPECT_EQ(err.kind(), FaultKind::kShutdown);
  }
}

TEST(ServeDecode, HealthReportCountsStreams) {
  auto knobs = std::make_shared<DecodeKnobs>();
  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         decode_config(knobs));
  server.add_tenant(plain_tenant("t"));
  ASSERT_TRUE(
      server.submit_decode(make_decode("t", "s", DecodeOp::kOpen)).get().ok);
  ASSERT_TRUE(
      server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 1)).get().ok);

  HealthReport h = server.health();
  EXPECT_EQ(h.decode_streams, 1);
  EXPECT_EQ(h.stats.decode_batches, 1);
  const std::string text = h.to_string();
  EXPECT_NE(text.find("decode streams=1"), std::string::npos) << text;
  EXPECT_NE(text.find("opened=1"), std::string::npos) << text;
  EXPECT_NE(text.find("steps=1 batches=1 mean_batch=1.000"),
            std::string::npos)
      << text;
  server.shutdown();
}

/// Opens `ids` on tenant "t" (sum(src) = 7 each) and parks the lone worker
/// inside a step of stream "park", so the requests submitted next queue up
/// behind it and the worker pops them as one batch once `knobs->block`
/// clears. Returns the parked step's future.
std::future<Response> park_worker(InferenceServer& server, DecodeKnobs& knobs,
                                  const std::vector<std::string>& ids) {
  for (const std::string& id : ids) {
    EXPECT_TRUE(
        server.submit_decode(make_decode("t", id, DecodeOp::kOpen)).get().ok);
  }
  knobs.block.store(true);
  const int before = knobs.entered.load();
  auto parked =
      server.submit_decode(make_decode("t", "park", DecodeOp::kStep, 1));
  // The lone worker parks in the step.
  for (int i = 0; i < 5000 && knobs.entered.load() == before; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GT(knobs.entered.load(), before) << "the worker never parked";
  return parked;
}

ServerConfig one_worker_decode_config(std::shared_ptr<DecodeKnobs> knobs) {
  ServerConfig cfg = decode_config(std::move(knobs));
  cfg.workers = 1;
  cfg.watchdog.enabled = false;
  return cfg;
}

TEST(ServeDecode, BatchedStepFailsOnlyTheBadMember) {
  // Steps of five streams queue behind a parked one and run as one batch.
  // A member's own defect — an unknown stream, a token its decoder
  // rejects, a faulting step — fails that ticket alone and evicts only its
  // stream; the others get the tokens their solo steps would emit.
  auto knobs = std::make_shared<DecodeKnobs>();
  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         one_worker_decode_config(knobs));
  server.add_tenant(plain_tenant("t"));

  auto parked = park_worker(server, *knobs, {"park", "a", "bad", "sick", "d"});
  auto a = server.submit_decode(make_decode("t", "a", DecodeOp::kStep, 1));
  auto ghost =
      server.submit_decode(make_decode("t", "ghost", DecodeOp::kStep, 1));
  auto bad = server.submit_decode(make_decode("t", "bad", DecodeOp::kStep, -3));
  auto sick = server.submit_decode(
      make_decode("t", "sick", DecodeOp::kStep, kPoisonToken));
  auto d = server.submit_decode(make_decode("t", "d", DecodeOp::kStep, 5));
  knobs->block.store(false);
  ASSERT_TRUE(parked.get().ok);

  const Response ra = a.get(), rd = d.get();
  ASSERT_TRUE(ra.ok) << ra.error;
  ASSERT_TRUE(rd.ok) << rd.error;
  EXPECT_EQ(ra.token, 9);
  EXPECT_EQ(rd.token, 13);
  EXPECT_EQ(ra.batch_size, 4) << "a, bad, sick and d stepped together";
  EXPECT_EQ(rd.batch_size, 4);
  const Response rg = ghost.get(), rb = bad.get(), rs = sick.get();
  EXPECT_FALSE(rg.ok);
  EXPECT_EQ(rg.error_kind, FaultKind::kMalformedInput);
  EXPECT_FALSE(rb.ok);
  EXPECT_EQ(rb.error_kind, FaultKind::kMalformedInput);
  EXPECT_FALSE(rs.ok);
  EXPECT_EQ(rs.error_kind, FaultKind::kNonFinite);

  // park and the two healthy members stay live; the bad-token member and
  // the faulted one were evicted.
  EXPECT_EQ(server.decode_streams(), 3);
  EXPECT_EQ(knobs->live.load(), 3);
  EXPECT_FALSE(knobs->stream_twice_in_batch.load());
  server.shutdown();
  const StatsSnapshot s = server.stats();
  EXPECT_EQ(s.decode_batches, 2) << "the parked step, then one batch";
  EXPECT_EQ(s.decode_steps, 3);
}

TEST(ServeDecode, BatchedStepSharedFaultFailsEveryMember) {
  // A fault of the forward the members share cannot be pinned on one of
  // them: every member fails typed and is evicted; streams outside the
  // batch are untouched.
  auto knobs = std::make_shared<DecodeKnobs>();
  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         one_worker_decode_config(knobs));
  server.add_tenant(plain_tenant("t"));

  auto parked = park_worker(server, *knobs, {"park", "a", "b"});
  auto a = server.submit_decode(make_decode("t", "a", DecodeOp::kStep, 1));
  auto b = server.submit_decode(make_decode("t", "b", DecodeOp::kStep, 1));
  knobs->fail_next_batch.store(1);
  knobs->block.store(false);
  ASSERT_TRUE(parked.get().ok);
  for (Response r : {a.get(), b.get()}) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.error_kind, FaultKind::kNonFinite);
    EXPECT_EQ(r.batch_size, 2);
  }
  EXPECT_EQ(server.decode_streams(), 1) << "only park is left";
  server.shutdown();
}

TEST(ServeDecode, TwoQueuedStepsOfOneStreamNeverShareABatch) {
  // A stream's next step needs this one's token, so a second queued step
  // of the same stream waits for the next batch; the other stream's step
  // joins the first.
  auto knobs = std::make_shared<DecodeKnobs>();
  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         one_worker_decode_config(knobs));
  server.add_tenant(plain_tenant("t"));

  auto parked = park_worker(server, *knobs, {"park", "s", "u"});
  auto s1 = server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 1));
  auto s2 = server.submit_decode(make_decode("t", "s", DecodeOp::kStep, 9));
  auto u = server.submit_decode(make_decode("t", "u", DecodeOp::kStep, 1));
  knobs->block.store(false);
  ASSERT_TRUE(parked.get().ok);
  const Response r1 = s1.get(), r2 = s2.get(), ru = u.get();
  ASSERT_TRUE(r1.ok && r2.ok && ru.ok) << r1.error << r2.error << ru.error;
  EXPECT_EQ(r1.token, 9);
  EXPECT_EQ(r2.token, 17);
  EXPECT_EQ(ru.token, 9);
  EXPECT_EQ(r1.batch_size + r2.batch_size, 3)
      << "one of s's steps rode with u's, the other ran alone";
  EXPECT_EQ(ru.batch_size, 2);
  EXPECT_FALSE(knobs->stream_twice_in_batch.load());
  server.shutdown();
  EXPECT_EQ(server.stats().decode_batches, 3);
}

TEST(ServeDecode, OpensAndClosesStaySoloBehindABatch) {
  // An open or a close never joins a step batch, and a step never joins
  // an open: each runs in queue order, alone.
  auto knobs = std::make_shared<DecodeKnobs>();
  InferenceServer server(test_factory(std::make_shared<Knobs>()),
                         one_worker_decode_config(knobs));
  server.add_tenant(plain_tenant("t"));

  auto parked = park_worker(server, *knobs, {"park", "a"});
  auto opened = server.submit_decode(make_decode("t", "n", DecodeOp::kOpen));
  auto step = server.submit_decode(make_decode("t", "a", DecodeOp::kStep, 1));
  auto closed = server.submit_decode(make_decode("t", "a", DecodeOp::kClose));
  knobs->block.store(false);
  ASSERT_TRUE(parked.get().ok);
  const Response ro = opened.get(), rs = step.get(), rc = closed.get();
  EXPECT_TRUE(ro.ok);
  EXPECT_EQ(ro.batch_size, 1);
  EXPECT_EQ(rs.batch_size, 1);
  EXPECT_TRUE(rc.ok);
  EXPECT_EQ(rc.batch_size, 1);
  server.shutdown();
}

}  // namespace
}  // namespace af
