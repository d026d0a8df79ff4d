#include "src/runtime/session.hpp"

#include <utility>

#include "src/util/fault.hpp"

namespace af {

InferenceSession::InferenceSession(ForwardFn forward, SessionConfig cfg)
    : forward_(std::move(forward)), cfg_(std::move(cfg)) {
  // A session without a forward is a malformed configuration a serving
  // layer must be able to reject without dying — typed, not an abort.
  if (!forward_) {
    throw FaultError("session", FaultKind::kMalformedInput,
                     "session needs a forward function");
  }
}

const Tensor& InferenceSession::run(const Tensor& input) {
  ExecutionContext ctx = cfg_.ctx;
  ctx.training = false;

  // Per-thread counter: a concurrent session planning on another worker
  // thread must not leak its allocations into this run's delta.
  const std::int64_t allocs_before = tensor_heap_allocs_this_thread();
  arena_.reset();
  {
    ArenaScope scope(&arena_);
    Tensor y = forward_(input, ctx);
    // copy_from targets owned storage and reuses its buffer when the
    // output shape repeats, so steady-state runs allocate nothing here.
    output_.copy_from(y);
  }
  if (runs_ == 0) {
    // Planning pass complete: the peak is known, collapse the chunk list
    // so later cycles bump through one contiguous block.
    arena_.consolidate();
  }
  ++runs_;
  last_run_allocs_ = tensor_heap_allocs_this_thread() - allocs_before;

  if (cfg_.cache_probe) {
    const std::int64_t depth = cfg_.cache_probe();
    // A leaked adjoint cache means the forward is not inference-clean; in
    // a server this is a rejectable request defect, not a process abort.
    if (depth != 0) {
      throw FaultError("session", FaultKind::kMalformedInput,
                       "forward leaked adjoint caches (depth " +
                           std::to_string(depth) + ")");
    }
  }

  return output_;
}

}  // namespace af
