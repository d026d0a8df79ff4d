// Deterministic shared thread pool for the tensor/quantizer hot paths.
//
// The contract that makes parallel results safe to use everywhere golden
// outputs matter (PTQ/QAR sweeps, the resilience bit-flip tables):
//
//  * Chunk boundaries are a pure function of (begin, end, grain) — never of
//    the thread count. Chunk c covers [begin + c*grain, min(begin+(c+1)*grain,
//    end)), so the same range always splits the same way.
//  * parallel_for bodies write disjoint state per chunk (the callers
//    guarantee this: row panels, element ranges, batch images, trials).
//  * parallel_reduce stores one partial per chunk and combines them in
//    ascending chunk order on the calling thread, so a non-associative
//    floating-point combine still yields one fixed association.
//
// Together these make every result bit-identical for any AF_THREADS value,
// including the serial fallback (AF_THREADS=1 runs the identical chunk loop
// inline). Nested calls from inside a worker run serially on that worker, so
// composite kernels (conv2d batch -> matmul) neither deadlock nor
// oversubscribe.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/util/check.hpp"

namespace af {

/// Worker count the pool is configured for (>= 1). Initialized on first use
/// from the AF_THREADS environment variable; when unset or 0, uses the
/// hardware concurrency.
int num_threads();

/// Reconfigures the pool. n >= 1 is an explicit count (1 = exact serial
/// execution); n == 0 re-resolves to the hardware concurrency. Takes effect
/// on the next parallel call; must not be called from inside a parallel body.
void set_num_threads(int n);

/// True when the calling thread is a pool worker (nested parallel calls run
/// serially inline).
bool in_parallel_region();

/// True when the calling thread carries a ScopedSerialExecution pin.
bool serial_execution_pinned();

/// Thread-local serial pin: while alive, every parallel_for/parallel_reduce
/// issued from this thread runs its (thread-count-independent) chunk loop
/// inline on the calling thread, never touching the shared pool or its
/// global configuration. This is how a concurrent serving worker executes a
/// whole model forward on its own thread: N workers each make progress
/// independently instead of serializing on the pool's top-level run mutex,
/// and the results are bit-identical by the fixed-chunking contract.
/// Nestable; restores the previous pin state on destruction.
class ScopedSerialExecution {
 public:
  ScopedSerialExecution();
  ~ScopedSerialExecution();
  ScopedSerialExecution(const ScopedSerialExecution&) = delete;
  ScopedSerialExecution& operator=(const ScopedSerialExecution&) = delete;

 private:
  bool previous_;
};

/// Number of fixed-size chunks the range [begin, end) splits into: a pure
/// function of the range and grain, never of the thread count.
inline std::int64_t num_chunks(std::int64_t begin, std::int64_t end,
                               std::int64_t grain) {
  AF_CHECK(grain > 0, "parallel grain must be positive");
  if (end <= begin) return 0;
  return (end - begin + grain - 1) / grain;
}

/// The type-erased pool entry behind parallel_for.
void parallel_for_chunks(
    std::int64_t begin, std::int64_t end, std::int64_t grain,
    const std::function<void(std::int64_t, std::int64_t)>& body);

/// Runs body(chunk_begin, chunk_end) for every chunk of [begin, end).
/// Chunks may execute on any thread in any order; the body must only write
/// state disjoint per chunk. Exceptions thrown by the body are rethrown on
/// the calling thread (first one wins; remaining chunks still drain).
/// A single chunk runs inline on every path, so it is called directly: a
/// decode step issues dozens of such calls.
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  Body&& body) {
  if (num_chunks(begin, end, grain) == 1) return body(begin, end);
  parallel_for_chunks(begin, end, grain, body);
}

/// Chunked map-reduce with a deterministic combine order: map(chunk_begin,
/// chunk_end) produces one partial per chunk, and partials are folded into
/// `init` in ascending chunk order on the calling thread. T must be
/// default-constructible and movable.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  T init, Map&& map, Combine&& combine) {
  const std::int64_t chunks = num_chunks(begin, end, grain);
  if (chunks == 0) return init;
  std::vector<T> partials(static_cast<std::size_t>(chunks));
  parallel_for(begin, end, grain,
               [&](std::int64_t b, std::int64_t e) {
                 partials[static_cast<std::size_t>((b - begin) / grain)] =
                     map(b, e);
               });
  T acc = std::move(init);
  for (T& p : partials) acc = combine(std::move(acc), std::move(p));
  return acc;
}

}  // namespace af
