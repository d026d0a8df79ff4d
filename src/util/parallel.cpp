#include "src/util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

namespace af {
namespace {

thread_local bool tls_in_worker = false;
thread_local bool tls_serial_pin = false;

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int resolve_thread_count(int n) {
  if (n == 0) return hardware_threads();
  AF_CHECK(n >= 1, "thread count must be >= 1 (or 0 for auto)");
  return n;
}

int env_thread_count() {
  const char* s = std::getenv("AF_THREADS");
  if (s == nullptr || *s == '\0') return hardware_threads();
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  AF_CHECK(end != s && *end == '\0' && v >= 0 && v <= 4096,
           "AF_THREADS must be an integer in [0, 4096]");
  return resolve_thread_count(static_cast<int>(v));
}

// One in-flight chunk range. Workers claim chunks off the shared atomic
// counter; `completed` reaching `chunks` is the only completion signal, so
// the caller never depends on which worker ran what. Kept alive by
// shared_ptr: a worker that wakes late may still probe a drained job after
// run() returned, and must only ever touch the atomics when it does.
struct Job {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t grain = 1;
  std::int64_t chunks = 0;
  const std::function<void(std::int64_t, std::int64_t)>* body = nullptr;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> completed{0};
  std::mutex error_mu;
  std::exception_ptr error;

  void drain() {
    std::int64_t c;
    while ((c = next.fetch_add(1, std::memory_order_relaxed)) < chunks) {
      const std::int64_t b = begin + c * grain;
      const std::int64_t e = std::min(end, b + grain);
      try {
        (*body)(b, e);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error) error = std::current_exception();
      }
      completed.fetch_add(1, std::memory_order_release);
    }
  }
};

class Pool {
 public:
  static Pool& get() {
    static Pool pool;
    return pool;
  }

  int threads() {
    std::lock_guard<std::mutex> lk(config_mu_);
    return target_;
  }

  void set_threads(int n) {
    std::lock_guard<std::mutex> run_lk(run_mu_);
    shutdown_workers();
    std::lock_guard<std::mutex> lk(config_mu_);
    target_ = resolve_thread_count(n);
  }

  void run(std::int64_t begin, std::int64_t end, std::int64_t grain,
           const std::function<void(std::int64_t, std::int64_t)>& body) {
    const std::int64_t chunks = num_chunks(begin, end, grain);
    if (chunks == 0) return;

    // Serial fallback paths run the identical chunk loop inline: one
    // configured thread, a single chunk, a nested call from a worker, or a
    // thread holding a ScopedSerialExecution pin.
    const int nt = threads();
    if (nt == 1 || chunks == 1 || tls_in_worker || tls_serial_pin) {
      Job job;
      job.begin = begin;
      job.end = end;
      job.grain = grain;
      job.chunks = chunks;
      job.body = &body;
      job.drain();
      if (job.error) std::rethrow_exception(job.error);
      return;
    }

    std::lock_guard<std::mutex> run_lk(run_mu_);
    spawn_workers(nt - 1);

    auto job = std::make_shared<Job>();
    job->begin = begin;
    job->end = end;
    job->grain = grain;
    job->chunks = chunks;
    job->body = &body;
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_ = job;
      ++generation_;
    }
    cv_work_.notify_all();

    // The caller is a full participant. It drains flagged as in-worker so a
    // body that nests parallel_for runs serially instead of re-entering
    // run_mu_ (which this thread holds).
    tls_in_worker = true;
    job->drain();
    tls_in_worker = false;
    if (job->completed.load(std::memory_order_acquire) < chunks) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&] {
        return job->completed.load(std::memory_order_acquire) >= chunks;
      });
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      job_.reset();
    }
    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  Pool() {
    std::lock_guard<std::mutex> lk(config_mu_);
    target_ = env_thread_count();
  }

  ~Pool() { shutdown_workers(); }

  void spawn_workers(int n) {
    std::unique_lock<std::mutex> lk(mu_);
    while (static_cast<int>(workers_.size()) < n) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void shutdown_workers() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stopping_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = false;
  }

  void worker_loop() {
    tls_in_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_work_.wait(lk, [&] { return stopping_ || generation_ != seen; });
        if (stopping_) return;
        seen = generation_;
        job = job_;
      }
      if (!job) continue;
      job->drain();
      if (job->completed.load(std::memory_order_acquire) >= job->chunks) {
        // Empty critical section: orders this notify against the caller's
        // predicate-check-then-sleep so the final wakeup cannot be lost.
        { std::lock_guard<std::mutex> lk(mu_); }
        cv_done_.notify_all();
      }
    }
  }

  std::mutex config_mu_;
  int target_ = 1;

  std::mutex run_mu_;  // serializes top-level parallel regions

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  bool stopping_ = false;
};

}  // namespace

int num_threads() { return Pool::get().threads(); }

void set_num_threads(int n) {
  AF_CHECK(!tls_in_worker, "set_num_threads inside a parallel region");
  Pool::get().set_threads(n);
}

bool in_parallel_region() { return tls_in_worker; }

bool serial_execution_pinned() { return tls_serial_pin; }

ScopedSerialExecution::ScopedSerialExecution() : previous_(tls_serial_pin) {
  tls_serial_pin = true;
}

ScopedSerialExecution::~ScopedSerialExecution() {
  tls_serial_pin = previous_;
}

void parallel_for_chunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body) {
  Pool::get().run(begin, end, grain, body);
}

}  // namespace af
