// Quantization hooks for models: weight fake-quantization (PTQ and the
// straight-through estimator used for quantization-aware retraining) and
// per-site activation quantization with offline range calibration.
//
// QAR with STE, as in the paper's Section 4: the forward/backward pass runs
// with quantized weights W_q = Q(W); the resulting gradients are applied to
// the full-precision master weights. Operationally: snapshot W, overwrite
// with Q(W), run the step, restore W, then let the optimizer update W with
// the gradients computed at W_q.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/nn/module.hpp"
#include "src/numerics/quantizer.hpp"

namespace af {

/// RAII scope that replaces every parameter value with its per-tensor
/// calibrated quantization and restores the full-precision master copy on
/// destruction. Biases and normalization parameters can be excluded by the
/// caller simply by not listing them (the paper quantizes *all* layer
/// weights, including first/last — pass everything for fidelity).
class WeightQuantScope {
 public:
  WeightQuantScope(std::vector<Parameter*> params, Quantizer& q);
  ~WeightQuantScope();

  WeightQuantScope(const WeightQuantScope&) = delete;
  WeightQuantScope& operator=(const WeightQuantScope&) = delete;

 private:
  std::vector<Parameter*> params_;
  std::vector<Tensor> saved_;
};

/// How a model treats its activation-quantization sites.
enum class ActQuantMode {
  kOff,        ///< pass-through (weight-only experiments, FP32 baseline)
  kCalibrate,  ///< record running max-abs per site, pass values through
  kApply,      ///< quantize with the range recorded during calibration
};

/// Per-site activation quantization manager. Models call process(site, x)
/// at every activation boundary; the mode decides what happens. Mirrors the
/// paper's flow where activation exp_bias values are "informed from
/// statistics during offline batch inference" (Section 5.2).
class ActQuant {
 public:
  ActQuant() = default;

  /// Installs the number format used in kApply mode. Resets nothing else.
  void set_quantizer(std::unique_ptr<Quantizer> q) { quantizer_ = std::move(q); }

  void set_mode(ActQuantMode mode);
  ActQuantMode mode() const { return mode_; }

  /// Clears calibration statistics.
  void reset_stats() { site_max_.clear(); }

  /// Applies the configured behaviour to an activation tensor.
  Tensor process(const std::string& site, const Tensor& x);

  /// Recorded max-abs for a site (0 if never seen).
  float site_max(const std::string& site) const;

 private:
  ActQuantMode mode_ = ActQuantMode::kOff;
  std::unique_ptr<Quantizer> quantizer_;
  std::map<std::string, float> site_max_;
};

}  // namespace af
