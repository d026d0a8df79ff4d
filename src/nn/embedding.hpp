// Token embedding lookup table.
#pragma once

#include <vector>

#include "src/nn/module.hpp"

namespace af {

/// Maps token ids to dense rows of a [vocab, dim] table.
class Embedding final : public Module {
 public:
  /// init_std < 0 selects the default 1/sqrt(dim) initialization.
  Embedding(std::int64_t vocab, std::int64_t dim, Pcg32& rng,
            const std::string& name = "embed", float init_std = -1.0f);

  /// ids: m token indices -> [m, dim]; caches the ids under ctx.training.
  /// An id outside [0, vocab) is reachable from a serving request, so it
  /// throws FaultError(kMalformedInput).
  Tensor forward(const std::vector<std::int64_t>& ids, ExecutionContext& ctx);

  /// dy: [m, dim]; scatters gradients into the table rows.
  void backward(const Tensor& dy);

  std::vector<Parameter*> parameters() override { return {&table_}; }
  void clear_cache() override { cached_ids_.clear(); }
  std::int64_t cache_depth() const override {
    return static_cast<std::int64_t>(cached_ids_.size());
  }

  std::int64_t vocab() const { return vocab_; }
  std::int64_t dim() const { return dim_; }
  Parameter& table() { return table_; }

 private:
  std::int64_t vocab_;
  std::int64_t dim_;
  Parameter table_;  // [vocab, dim]
  std::vector<std::vector<std::int64_t>> cached_ids_;
};

}  // namespace af
