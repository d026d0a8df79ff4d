// DecodeSession: arena-planned incremental decoding.
//
// An InferenceSession replays one forward shape through one arena; a
// decode loop is different — it carries *state* (the per-layer KV caches)
// across hundreds of step forwards whose temporaries must NOT outlive the
// step. A DecodeSession therefore runs two arenas:
//
//  * the KV arena is filled exactly once, by the model's setup hook, with
//    every per-layer KvState planned to max_steps capacity — and is never
//    reset, so cached keys/values keep their bytes for the whole session
//    lifetime;
//  * the step arena is the cyclic scratch: reset before the prefill of
//    every sequence and before every step, consolidated after the first
//    full sequence reveals the peak.
//
// Several sessions of one model may step together (step_batch): one
// stacked forward over their [S, D] rows, run under a scratch arena the
// caller owns — a serving worker's — rather than in S step arenas. A solo
// step() is that call at S = 1 over the session's own step arena.
//
// Steady state (second sequence onward) is zero heap allocations per
// emitted token, proven the same way InferenceSession proves it:
// tensor_heap_allocs_this_thread() deltas around each step.
//
// The session is model-agnostic: a model (TransformerDecoder) supplies
// closures for setup / prefill / step and keeps its own sequence inputs.
// Decoding past the planned capacity is a typed FaultError
// (kMalformedInput) — a serving layer fails the ticket, never the process.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <vector>

#include "src/runtime/execution_context.hpp"
#include "src/tensor/arena.hpp"
#include "src/tensor/tensor.hpp"

namespace af {

/// Model closures a DecodeSession drives. `setup` runs once, under the KV
/// arena — allocate every KvState (and any other per-session persistent
/// buffer) here and nowhere else. `prefill` runs under the step arena at
/// each begin(): encode the source, block-fill the cross-attention caches,
/// reset the self-attention caches. `step` consumes the last emitted token
/// and returns the next logits (may be arena-backed; the session copies
/// them out).
struct DecodeHooks {
  std::function<void(ExecutionContext&)> setup;
  std::function<void(ExecutionContext&)> prefill;
  std::function<Tensor(const std::vector<std::int64_t>&, ExecutionContext&)>
      step;
  /// Optional: adjoint-cache depth across the model — checked zero after
  /// every step (same inference-clean invariant as InferenceSession).
  std::function<std::int64_t()> cache_probe;
};

struct DecodeSessionConfig {
  /// Policy template for every hook invocation; `training` is forced off.
  ExecutionContext ctx;
  /// Hard per-sequence step budget the KV storage is planned against.
  std::int64_t max_steps = 0;
};

class DecodeSession {
 public:
  /// Runs `hooks.setup` under the KV arena. Missing hooks or a
  /// non-positive max_steps are malformed configuration — typed, catchable.
  DecodeSession(DecodeHooks hooks, DecodeSessionConfig cfg);

  /// Starts a new sequence: resets the step counter, consolidates the step
  /// arena once the first sequence has revealed its peak, and runs the
  /// prefill hook. The model's begin-state (its source tokens) must be
  /// staged in the model before calling this.
  void begin();

  /// One decode step: feeds the last emitted token to the model, returns
  /// the next logits. The reference stays valid (and is overwritten)
  /// across subsequent step() calls. Throws FaultError(kMalformedInput)
  /// before begin() or past the planned max_steps. This is step_batch
  /// over this session alone, in its own step arena.
  const Tensor& step(const std::vector<std::int64_t>& last_tokens);

  /// Throws FaultError(kMalformedInput) unless a step may run now: the
  /// session has begun a sequence and has not used up its max_steps plan.
  void check_step() const;

  /// One step of every session in `sessions` through one stacked forward:
  /// checks each with check_step() (a failure throws before anything
  /// runs), resets `scratch` and runs `forward(ctx)` under it with
  /// sessions[0]'s context. `forward` returns the stacked logits
  /// [S, vocab], row r belonging to sessions[r]; they are returned as is,
  /// arena-backed, valid until `scratch` is next reset. Then every
  /// session counts the step and the forward's heap allocations, and runs
  /// its cache probe. Callers that must fail one session and not the
  /// others call check_step() on each first and pass only the ones that
  /// passed.
  template <typename Forward>
  static Tensor step_batch(std::span<DecodeSession* const> sessions,
                           Arena& scratch, Forward&& forward) {
    for (const DecodeSession* s : sessions) s->check_step();
    const std::int64_t allocs_before = tensor_heap_allocs_this_thread();
    scratch.reset();
    Tensor logits;
    {
      ArenaScope scope(&scratch);
      logits = forward(sessions.front()->cfg_.ctx);
    }
    const std::int64_t allocs =
        tensor_heap_allocs_this_thread() - allocs_before;
    for (DecodeSession* s : sessions) {
      ++s->steps_;
      s->last_step_allocs_ = allocs;
      s->check_cache_probe();
    }
    return logits;
  }

  /// Context template for every hook run (training still forced off).
  ExecutionContext& context() { return cfg_.ctx; }
  const ExecutionContext& context() const { return cfg_.ctx; }

  std::int64_t steps() const { return steps_; }          ///< this sequence
  std::int64_t max_steps() const { return cfg_.max_steps; }
  std::int64_t sequences() const { return sequences_; }  ///< begin() count
  /// Owned-buffer heap allocations during the most recent step().
  std::int64_t last_step_heap_allocs() const { return last_step_allocs_; }

 private:
  void check_cache_probe();

  DecodeHooks hooks_;
  DecodeSessionConfig cfg_;
  Arena kv_arena_;    // persistent KV storage; never reset
  Arena step_arena_;  // per-step scratch; reset every cycle
  Tensor output_;
  std::int64_t steps_ = 0;
  std::int64_t sequences_ = 0;
  std::int64_t last_step_allocs_ = 0;
};

class StreamDecoder;

/// One member of a batched decode step (StreamDecoder::step_batch): the
/// stream's decoder and the token it feeds in, and what came out.
struct DecodeStepSlot {
  StreamDecoder* decoder = nullptr;
  std::int64_t last_token = -1;
  std::int64_t token = -1;   ///< out: the emitted token, unless `error`
  std::exception_ptr error;  ///< out: this member's own fault
};

/// Minimal serving-facing view of a decode loop: open a stream on a source
/// sequence, feed back one token per step, close to release cache state.
/// Lives in the runtime layer so InferenceServer can host decode streams
/// without linking the models library; TransformerStreamDecoder (models)
/// implements it over a DecodeSession.
class StreamDecoder {
 public:
  virtual ~StreamDecoder() = default;

  /// Binds the stream to a source sequence and runs the prefill.
  virtual void open(const std::vector<std::int64_t>& src) = 0;

  /// Advances one step from the last emitted token; returns the next one.
  virtual std::int64_t step(std::int64_t last_token) = 0;

  /// Advances every slot's stream one step; called on one of the slots'
  /// decoders, with the caller's per-batch scratch arena. A fault that a
  /// member's own token or state causes lands in that slot's `error` and
  /// leaves every other member to run; a fault of a forward the members
  /// share throws, and then any member may have advanced. The default
  /// steps each slot's decoder through its own step(), so a member's
  /// every fault is its own.
  virtual void step_batch(std::span<DecodeStepSlot> slots, Arena& scratch);

  /// Token that starts a sequence (fed to the first step()).
  virtual std::int64_t bos_token() const = 0;
  /// Token whose emission ends the stream.
  virtual std::int64_t eos_token() const = 0;

  /// Bytes of KV-cache payload the stream currently holds.
  virtual std::size_t cache_bytes() const = 0;
};

}  // namespace af
