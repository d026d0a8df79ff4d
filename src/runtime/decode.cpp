#include "src/runtime/decode.hpp"

#include <utility>

#include "src/util/fault.hpp"

namespace af {

DecodeSession::DecodeSession(DecodeHooks hooks, DecodeSessionConfig cfg)
    : hooks_(std::move(hooks)), cfg_(std::move(cfg)) {
  if (!hooks_.setup || !hooks_.prefill || !hooks_.step) {
    throw FaultError("decode", FaultKind::kMalformedInput,
                     "decode session needs setup/prefill/step hooks");
  }
  if (cfg_.max_steps <= 0) {
    throw FaultError("decode", FaultKind::kMalformedInput,
                     "decode session needs a positive max_steps plan");
  }
  cfg_.ctx.training = false;
  // Everything setup allocates — the KV storage — lands in the KV arena
  // and keeps its address for the session lifetime (the arena is never
  // reset, so no consolidation either).
  ArenaScope scope(&kv_arena_);
  hooks_.setup(cfg_.ctx);
}

void DecodeSession::begin() {
  if (sequences_ == 1) {
    // First sequence (prefill + steps) revealed the scratch peak; collapse
    // the chunk list so every later cycle bumps one contiguous block.
    step_arena_.consolidate();
  }
  steps_ = 0;
  step_arena_.reset();
  {
    ArenaScope scope(&step_arena_);
    hooks_.prefill(cfg_.ctx);
  }
  ++sequences_;
  check_cache_probe();
}

void DecodeSession::check_step() const {
  if (sequences_ == 0) {
    throw FaultError("decode", FaultKind::kMalformedInput,
                     "decode step before begin()");
  }
  if (steps_ >= cfg_.max_steps) {
    // The KV plan is exhausted: a longer sequence was never provisioned.
    // Typed so a serving layer fails the stream, not the process.
    throw FaultError("decode", FaultKind::kMalformedInput,
                     "decode past planned capacity (max_steps " +
                         std::to_string(cfg_.max_steps) + ")");
  }
}

const Tensor& DecodeSession::step(
    const std::vector<std::int64_t>& last_tokens) {
  const std::int64_t allocs_before = tensor_heap_allocs_this_thread();
  DecodeSession* self = this;
  // copy_from reuses the owned buffer when the logits shape repeats, so
  // steady-state steps allocate nothing here.
  output_.copy_from(step_batch(
      std::span<DecodeSession* const>(&self, 1), step_arena_,
      [&](ExecutionContext& ctx) { return hooks_.step(last_tokens, ctx); }));
  last_step_allocs_ = tensor_heap_allocs_this_thread() - allocs_before;
  return output_;
}

void StreamDecoder::step_batch(std::span<DecodeStepSlot> slots, Arena&) {
  for (DecodeStepSlot& s : slots) {
    try {
      s.token = s.decoder->step(s.last_token);
    } catch (...) {
      s.error = std::current_exception();
    }
  }
}

void DecodeSession::check_cache_probe() {
  if (!hooks_.cache_probe) return;
  const std::int64_t depth = hooks_.cache_probe();
  if (depth != 0) {
    throw FaultError("decode", FaultKind::kMalformedInput,
                     "decode hook leaked adjoint caches (depth " +
                         std::to_string(depth) + ")");
  }
}

}  // namespace af
