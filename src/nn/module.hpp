// Base machinery for trainable layers.
//
// The library uses explicit forward/backward methods per layer (Caffe-style)
// rather than a dynamic autograd graph: every backward pass in the paper's
// workloads is structurally fixed, and explicit adjoints keep the
// quantization hooks (straight-through estimators) easy to reason about.
//
// Caching convention: each layer has one forward(..., ExecutionContext&).
// Under ctx.training it pushes whatever the adjoint needs onto an internal
// stack; backward() pops it. Backward calls must mirror training forwards
// in exact reverse order — BPTT and per-step decoding both satisfy this
// naturally. Inference forwards push nothing.
#pragma once

#include <string>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace af {

struct ExecutionContext;

/// A named trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  void zero_grad() { grad.fill(0.0f); }
};

/// Base class for trainable layers; stateless layers return no parameters.
class Module {
 public:
  virtual ~Module() = default;

  /// Pointers to every trainable parameter (stable for the module lifetime).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Context-driven forward: the one entry point for training and
  /// inference. The context selects numeric and resilience policy, and —
  /// unless ctx.training — the layer pushes no adjoint caches. Layers whose
  /// natural input is not a single rank-N tensor (LstmCell steps, Embedding
  /// ids, attention's query/key pair) keep their own context overloads and
  /// leave this unimplemented. The base implementation fails loudly.
  virtual Tensor forward(const Tensor& x, ExecutionContext& ctx);

  /// Drops any cached forward state. A training-context forward that is
  /// not followed by backward (a reference comparison, a loss-only
  /// evaluation) must be followed by this to keep the stacks balanced.
  /// Inference forwards never push caches, so they never need it.
  virtual void clear_cache() {}

  /// Number of cached forward records awaiting backward (including any
  /// child modules). Sessions assert this is zero after inference.
  virtual std::int64_t cache_depth() const { return 0; }

  /// Clears gradient accumulators.
  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

  /// Total number of trainable scalars.
  std::int64_t num_parameters() {
    std::int64_t n = 0;
    for (Parameter* p : parameters()) n += p->value.numel();
    return n;
  }
};

/// Collects parameters from several modules into one flat list.
std::vector<Parameter*> collect_parameters(
    const std::vector<Module*>& modules);

// ----- weight initialization ------------------------------------------------

/// Xavier/Glorot uniform: U[-sqrt(6/(fan_in+fan_out)), +...]. The standard
/// choice for tanh/sigmoid-flavoured layers (LSTM, attention projections).
Tensor xavier_uniform(Shape shape, std::int64_t fan_in, std::int64_t fan_out,
                      Pcg32& rng);

/// He/Kaiming normal: N(0, sqrt(2/fan_in)) for ReLU-flavoured layers.
Tensor he_normal(Shape shape, std::int64_t fan_in, Pcg32& rng);

}  // namespace af
