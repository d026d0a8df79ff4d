// ExecutionContext: the single knob bundle threaded through
// Module::forward(x, ctx) — the one forward every layer and model has, for
// training and inference alike (it replaced the plain cache-pushing
// forwards, the guarded_forward overloads and hand-wired abft_matmul call
// sites).
//
// A context carries:
//  * the resilience policy — none, output guard, ABFT-checksummed GEMMs,
//    or both composed (the old guarded_forward(QuantizedLinear) semantics);
//  * the mode flag — training (resilience kNone) pushes adjoint caches;
//    inference pushes none, so eval loops no longer leak cache stacks that
//    callers must clear_cache();
//  * the kernel backend pin.
//
// Packed layers always multiply their codes through the LUT-fused GEMM
// (the deployment form). The thread count is the process-wide pool's
// (AF_THREADS / set_num_threads).
//
// Every policy is value-preserving on a clean (fault-free) run: the guard
// only observes, and an ABFT-checked GEMM stores the product of the very
// kernel the layer runs unprotected. Dispatching through a context
// therefore never changes bits —
// the runtime tests pin every policy against a training-context forward
// (the cache-pushing comparator) followed by clear_cache().
#pragma once

#include <string>

#include "src/hw/fault_hook.hpp"
#include "src/kernels/backend.hpp"
#include "src/resilience/abft.hpp"
#include "src/resilience/guard.hpp"

namespace af {

/// What protects the layer's compute.
enum class ResiliencePolicy {
  kNone,       ///< bare kernels
  kGuard,      ///< LayerGuard::run around the layer (NaN/range monitor)
  kAbft,       ///< checksummed GEMMs where the layer has one
  kAbftGuard,  ///< abft inside, guard outside — the full protected path
};

struct ExecutionContext {
  bool training = false;  ///< push adjoint caches; inference skips them
  ResiliencePolicy resilience = ResiliencePolicy::kNone;
  /// Guard used by kGuard/kAbftGuard; nullptr selects a default
  /// sentinel-only guard (NaN/Inf scrub, no range monitor).
  const LayerGuard* guard = nullptr;
  ResilienceReport* report = nullptr;  ///< optional observation sink
  PeFaultHook* mac_hook = nullptr;     ///< modeled MAC upsets for kAbft*
  /// Kernel backend pin; nullptr = the process-wide active backend
  /// (AF_BACKEND). Sessions pin this so a run's backend is fixed even if
  /// the ambient selection changes mid-flight.
  const KernelBackend* backend = nullptr;

  /// The backend in force for this context's kernels.
  const KernelBackend& kernel_backend() const {
    return backend != nullptr ? *backend : active_backend();
  }

  bool wants_guard() const {
    return resilience == ResiliencePolicy::kGuard ||
           resilience == ResiliencePolicy::kAbftGuard;
  }
  bool wants_abft() const {
    return resilience == ResiliencePolicy::kAbft ||
           resilience == ResiliencePolicy::kAbftGuard;
  }

  /// The guard in force: the configured one, or a shared default whose
  /// policy scrubs non-finite values and whose range monitor is off — a
  /// clean output passes through bit-identical.
  const LayerGuard& active_guard() const {
    static const LayerGuard kDefault(
        "ctx", GuardConfig{RecoveryPolicy::kDegradeToZero, 1, 0.0f});
    return guard != nullptr ? *guard : kDefault;
  }

  /// AbftConfig for a guarded GEMM at `site`. When a guard is installed,
  /// its policy/rerun budget/layer name drive the checksummed multiply —
  /// exactly how the deleted guarded_forward(QuantizedLinear) composed the
  /// two mechanisms. The checksum chains run on this context's backend pin.
  AbftConfig abft_config(const std::string& site) const {
    AbftConfig cfg;
    cfg.backend = backend;
    if (guard != nullptr) {
      cfg.policy = guard->config().policy;
      cfg.max_recomputes = guard->config().max_reruns;
      cfg.layer = guard->layer();
    } else {
      cfg.layer = site;
    }
    return cfg;
  }
};

}  // namespace af
