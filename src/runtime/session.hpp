// InferenceSession: arena-planned steady-state forwards.
//
// A session owns an Arena and a forward closure built from any model's
// context entry points. The first run is the planning pass: every
// intermediate Tensor the forward constructs bumps the arena, growing
// chunks as the shapes reveal themselves; afterwards the arena is
// consolidated into one peak-sized block. Every later run with the same
// shapes resets the arena (O(1), no frees) and replays the forward into
// the same bytes — zero owned-buffer heap allocations, which
// last_run_heap_allocs() and the arena stats prove.
//
// The output escapes the arena cycle by copy_from() into a persistent
// owned tensor whose buffer is reused across runs, so steady state
// allocates nothing for the output either.
//
// The forward runs under the session's ExecutionContext with training
// forced off; an optional cache probe asserts after every run that no
// module leaked adjoint cache state (the pre-runtime inference paths
// required a manual clear_cache() — sessions make that a checked
// invariant instead).
#pragma once

#include <cstdint>
#include <functional>

#include "src/runtime/execution_context.hpp"
#include "src/tensor/arena.hpp"
#include "src/tensor/tensor.hpp"

namespace af {

struct SessionConfig {
  /// Policy template for every run; `training` is ignored (forced false).
  ExecutionContext ctx;
  /// Optional: total adjoint-cache depth across the model's modules.
  /// Checked to be zero after every run.
  std::function<std::int64_t()> cache_probe;
};

class InferenceSession {
 public:
  /// The model's forward under a context. The returned tensor may be
  /// arena-backed; the session copies it out before the cycle ends.
  using ForwardFn = std::function<Tensor(const Tensor&, ExecutionContext&)>;

  explicit InferenceSession(ForwardFn forward, SessionConfig cfg = {});

  /// One forward pass. The returned reference stays valid (and is
  /// overwritten) across subsequent run() calls.
  ///
  /// Exception-safe: when the forward throws (a FaultError from the
  /// resilience ladder, a typed rejection of a malformed request), the
  /// ambient arena is restored before the exception escapes, and the next
  /// run() starts from a clean arena cycle — the serving retry path
  /// depends on re-entering an undamaged session.
  const Tensor& run(const Tensor& input);

  /// Explicit planning pass: runs the forward once on `exemplar` (typically
  /// a zero tensor at the largest shape the caller will ever serve, e.g.
  /// max_batch rows for a batching worker) so the arena grows — and, on the
  /// first-ever run, consolidates — at that peak. Subsequent run() calls at
  /// or below the exemplar's shape replay through the planned arena with
  /// zero steady-state heap allocations; smaller batches reuse the same
  /// bytes as arena-backed sub-batch footprints of the planned peak.
  void plan(const Tensor& exemplar) { (void)run(exemplar); }

  /// The context template applied to every subsequent run() (`training` is
  /// still forced off). Mutable so a serving worker can re-point the
  /// resilience policy, guard, report sink and fault hook per request while
  /// keeping the planned arena. Not thread-safe against a concurrent run().
  ExecutionContext& context() { return cfg_.ctx; }
  const ExecutionContext& context() const { return cfg_.ctx; }

  const Arena::Stats& arena_stats() const { return arena_.stats(); }
  /// Owned-buffer heap allocations during the most recent run().
  std::int64_t last_run_heap_allocs() const { return last_run_allocs_; }
  std::int64_t runs() const { return runs_; }
  const Tensor& output() const { return output_; }

 private:
  ForwardFn forward_;
  SessionConfig cfg_;
  Arena arena_;
  Tensor output_;
  std::int64_t runs_ = 0;
  std::int64_t last_run_allocs_ = 0;
};

}  // namespace af
