// Long short-term memory cell and multi-layer sequence LSTM with
// hand-derived backpropagation through time.
#pragma once

#include <utility>
#include <vector>

#include "src/nn/module.hpp"

namespace af {

/// Hidden/cell state pair for one layer, each [B, H].
struct LstmState {
  Tensor h;
  Tensor c;
};

/// One LSTM cell. Gate order in the fused [4H] layout: input, forget,
/// cell-candidate, output (i, f, g, o).
class LstmCell final : public Module {
 public:
  LstmCell(std::int64_t input_size, std::int64_t hidden_size, Pcg32& rng,
           const std::string& name = "lstm_cell");

  /// One step: x [B, I], state {h, c} each [B, H] -> new state. Only under
  /// ctx.training are the inputs and gate activations cached for backward;
  /// in inference the gate tensors (the dominant per-step allocation) are
  /// never materialized.
  LstmState forward(const Tensor& x, const LstmState& state,
                    const ExecutionContext& ctx);

  /// Adjoint of one step. dh/dc are gradients w.r.t. the step's outputs;
  /// returns (dx, d_prev_state) and accumulates weight gradients.
  std::pair<Tensor, LstmState> backward(const Tensor& dh, const Tensor& dc);

  std::vector<Parameter*> parameters() override;
  void clear_cache() override { cache_.clear(); }
  std::int64_t cache_depth() const override {
    return static_cast<std::int64_t>(cache_.size());
  }

  std::int64_t input_size() const { return input_; }
  std::int64_t hidden_size() const { return hidden_; }

  /// Zeroed state for a batch of the given size.
  LstmState initial_state(std::int64_t batch) const;

 private:
  struct Cache {
    Tensor x, h_prev, c_prev;
    Tensor i, f, g, o, c_new;  // gate activations and new cell state
  };

  std::int64_t input_;
  std::int64_t hidden_;
  Parameter wx_;  // [4H, I]
  Parameter wh_;  // [4H, H]
  Parameter b_;   // [4H]
  std::vector<Cache> cache_;
};

/// Stack of LSTM layers run across a whole sequence (the paper's seq2seq
/// encoder). Input layout [T, B, I].
class Lstm final : public Module {
 public:
  Lstm(std::int64_t input_size, std::int64_t hidden_size,
       std::int64_t num_layers, Pcg32& rng, const std::string& name = "lstm");

  /// x: [T, B, I] -> outputs of the top layer [T, B, H]. In inference any
  /// resilience request wraps the whole sequence in the installed guard:
  /// splitting the fused x Wx^T + h Wh^T accumulation into separate
  /// checksummed GEMMs would change the float association, so ABFT degrades
  /// to the guard wrap here.
  Tensor forward(const Tensor& x, ExecutionContext& ctx) override;

  /// Same, also writing the final per-layer states to `final_state` when
  /// non-null (seq2seq encoder use).
  Tensor forward(const Tensor& x, ExecutionContext& ctx,
                 std::vector<LstmState>* final_state);

  /// d_out: [T, B, H] -> dx [T, B, I].
  Tensor backward(const Tensor& d_out);

  std::vector<Parameter*> parameters() override;
  void clear_cache() override {
    cache_.clear();
    for (auto& cell : cells_) cell.clear_cache();
  }
  std::int64_t cache_depth() const override {
    std::int64_t n = static_cast<std::int64_t>(cache_.size());
    for (const auto& cell : cells_) n += cell.cache_depth();
    return n;
  }

  std::int64_t hidden_size() const { return hidden_; }
  std::int64_t num_layers() const { return static_cast<std::int64_t>(cells_.size()); }
  LstmCell& cell(std::size_t layer) { return cells_[layer]; }

 private:
  std::int64_t input_;
  std::int64_t hidden_;
  std::vector<LstmCell> cells_;
  // Per forward call: [T, B] dims for the backward loop.
  struct Cache {
    std::int64_t t = 0, b = 0;
  };
  std::vector<Cache> cache_;
};

}  // namespace af
