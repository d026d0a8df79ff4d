// StreamDecoder: the serving-facing view of an incremental decode loop.
//
// A decode stream carries state (its per-layer KV caches) across hundreds
// of step forwards, so the server hosts it as an object it opens on a
// source, steps one token at a time and closes, rather than as a forward
// it replays. The interface lives in the runtime layer so InferenceServer
// can host decode streams without linking the models library;
// TransformerStreamDecoder (models) implements it over a
// TransformerDecoder, which owns the KV and step arenas.
//
// Decoding past a stream's planned capacity, before it has begun, or from
// an out-of-vocabulary token is a typed FaultError (kMalformedInput) — a
// serving layer fails the ticket, never the process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <span>
#include <vector>

#include "src/tensor/arena.hpp"

namespace af {

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
