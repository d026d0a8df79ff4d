// Runtime guards for inference forward passes.
//
// A LayerGuard watches one layer's output tensor for the two symptom
// classes a compute fault produces downstream of the GEMM checksums:
// non-finite values (NaN/Inf) and implausibly large magnitudes. The
// plausibility bound is not a heuristic: it is calibrated from the layer's
// quantizer value_range() (Algorithm 1's per-tensor maximum) times an
// accumulation gain covering the layer's fan-in, so a clean forward pass
// can never trip it. Violations are recorded into a ResilienceReport and
// remedied per the RecoveryPolicy ladder (observe / clamp / retry / scrub).
//
// Layers compose with guards through the ExecutionContext dispatch
// (src/runtime/execution_context.hpp): a context with a resilience policy
// of kGuard wraps the layer's compute in LayerGuard::run, and kAbftGuard
// additionally routes the matrix product through abft_checked_product —
// the full protected compute path. (This replaced the per-layer
// guarded_forward() overloads that used to live here.)
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/resilience/abft.hpp"
#include "src/tensor/tensor.hpp"
#include "src/util/fault.hpp"

namespace af {

class Quantizer;

/// One guard observation: a batch of same-kind violations found in a single
/// tensor scan, and what the policy did about them.
struct GuardEvent {
  std::string layer;
  FaultKind kind = FaultKind::kNonFinite;
  std::int64_t count = 0;     ///< elements implicated
  float worst = 0.0f;         ///< largest offending magnitude (0 for NaN-only)
  RecoveryPolicy action = RecoveryPolicy::kDetect;  ///< remedy applied
};

/// Accumulated record of everything the guards saw during a run.
struct ResilienceReport {
  std::vector<GuardEvent> events;
  AbftReport abft;                 ///< merged from every guarded GEMM
  std::int64_t tensors_checked = 0;
  std::int64_t values_flagged = 0;
  std::int64_t values_scrubbed = 0;  ///< zeroed by kDegradeToZero
  std::int64_t values_clamped = 0;   ///< pulled into range by kCorrect+
  std::int64_t reruns = 0;           ///< whole-layer recompute attempts

  bool clean() const { return events.empty() && abft.detected == 0; }
  void merge(const ResilienceReport& other);
};

/// Guard configuration for one layer.
struct GuardConfig {
  RecoveryPolicy policy = RecoveryPolicy::kDegradeToZero;
  int max_reruns = 1;  ///< whole-layer retry budget under kRecompute+
  /// Plausibility bound on |output|; 0 disables the range monitor (the
  /// NaN/Inf sentinel is always on). Set directly or via calibrate().
  float range_limit = 0.0f;
};

/// Output-tensor monitor for one named layer.
class LayerGuard {
 public:
  LayerGuard(std::string layer, GuardConfig cfg = {})
      : layer_(std::move(layer)), cfg_(cfg) {}

  /// Calibrates the range monitor from the layer's quantizer: the bound is
  /// value_range() times `gain`, where gain covers the worst-case
  /// accumulation growth of the layer (for an affine layer, fan_in times
  /// the input's max-abs; 1 for an already-saturating output).
  void calibrate(const Quantizer& q, double gain);

  const std::string& layer() const { return layer_; }
  const GuardConfig& config() const { return cfg_; }
  GuardConfig& config() { return cfg_; }

  /// Scans t for NaN/Inf and range violations, applies the policy's remedy
  /// in place (kDetect: record only; kCorrect/kRecompute: clamp into the
  /// calibrated range, NaN to 0; kDegradeToZero: scrub flagged values to
  /// 0), and records events into `report` when non-null. Returns the number
  /// of flagged values.
  std::int64_t apply(Tensor& t, ResilienceReport* report) const;

  /// Runs a whole forward pass under the guard: executes `fn`, scrubs its
  /// output with apply(), and — when fn itself throws FaultError — walks
  /// the ladder: retry up to max_reruns (kRecompute+), then either return
  /// a zero tensor of `fallback_shape` (kDegradeToZero) or rethrow.
  Tensor run(const std::function<Tensor()>& fn,
             const std::vector<std::int64_t>& fallback_shape,
             ResilienceReport* report) const;

 private:
  std::string layer_;
  GuardConfig cfg_;
};

}  // namespace af
