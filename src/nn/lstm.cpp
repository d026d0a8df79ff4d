#include "src/nn/lstm.hpp"

#include <algorithm>
#include <cmath>

#include "src/nn/activations.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"

namespace af {

LstmCell::LstmCell(std::int64_t input_size, std::int64_t hidden_size,
                   Pcg32& rng, const std::string& name)
    : input_(input_size),
      hidden_(hidden_size),
      wx_(name + ".wx", xavier_uniform({4 * hidden_size, input_size},
                                       input_size, hidden_size, rng)),
      wh_(name + ".wh", xavier_uniform({4 * hidden_size, hidden_size},
                                       hidden_size, hidden_size, rng)),
      b_(name + ".b", Tensor({4 * hidden_size})) {
  // Forget-gate bias init to 1: standard trick so early training does not
  // flush the cell state.
  for (std::int64_t j = hidden_; j < 2 * hidden_; ++j) b_.value[j] = 1.0f;
}

LstmState LstmCell::initial_state(std::int64_t batch) const {
  return {Tensor({batch, hidden_}), Tensor({batch, hidden_})};
}

LstmState LstmCell::forward(const Tensor& x, const LstmState& state,
                            const ExecutionContext& ctx) {
  const std::int64_t batch = x.dim(0);
  AF_CHECK(x.rank() == 2 && x.dim(1) == input_, "LstmCell x must be [B, I]");
  AF_CHECK(state.h.dim(0) == batch && state.h.dim(1) == hidden_,
           "LstmCell state shape mismatch");

  // z = x Wx^T + h Wh^T + b, split into the four gates.
  const KernelBackend* be = &ctx.kernel_backend();
  Tensor z = matmul(x, wx_.value, false, true, be);
  matmul_acc(z, state.h, wh_.value, false, true, be);
  add_row_bias_inplace(z, b_.value);

  Cache* c = nullptr;
  if (ctx.training) {
    cache_.push_back({x,
                      state.h,
                      state.c,
                      Tensor({batch, hidden_}),
                      Tensor({batch, hidden_}),
                      Tensor({batch, hidden_}),
                      Tensor({batch, hidden_}),
                      Tensor({batch, hidden_})});
    c = &cache_.back();
  }
  LstmState out{Tensor({batch, hidden_}), Tensor({batch, hidden_})};
  for (std::int64_t r = 0; r < batch; ++r) {
    const float* zr = z.data() + r * 4 * hidden_;
    for (std::int64_t j = 0; j < hidden_; ++j) {
      const float i_g = sigmoid_value(zr[j]);
      const float f_g = sigmoid_value(zr[hidden_ + j]);
      const float g_g = tanh_value(zr[2 * hidden_ + j]);
      const float o_g = sigmoid_value(zr[3 * hidden_ + j]);
      const float c_new = f_g * state.c[r * hidden_ + j] + i_g * g_g;
      if (c != nullptr) {
        c->i[r * hidden_ + j] = i_g;
        c->f[r * hidden_ + j] = f_g;
        c->g[r * hidden_ + j] = g_g;
        c->o[r * hidden_ + j] = o_g;
        c->c_new[r * hidden_ + j] = c_new;
      }
      out.c[r * hidden_ + j] = c_new;
      out.h[r * hidden_ + j] = o_g * tanh_value(c_new);
    }
  }
  return out;
}

std::pair<Tensor, LstmState> LstmCell::backward(const Tensor& dh,
                                                const Tensor& dc) {
  AF_CHECK(!cache_.empty(), "LstmCell backward without matching forward");
  Cache c = std::move(cache_.back());
  cache_.pop_back();
  const std::int64_t batch = c.x.dim(0);
  AF_CHECK(dh.dim(0) == batch && dh.dim(1) == hidden_,
           "LstmCell backward dh shape mismatch");
  AF_CHECK(dc.shape() == dh.shape(), "LstmCell backward dc shape mismatch");

  Tensor dz({batch, 4 * hidden_});
  LstmState dprev{Tensor({batch, hidden_}), Tensor({batch, hidden_})};
  for (std::int64_t r = 0; r < batch; ++r) {
    float* dzr = dz.data() + r * 4 * hidden_;
    for (std::int64_t j = 0; j < hidden_; ++j) {
      const std::int64_t k = r * hidden_ + j;
      const float tc = tanh_value(c.c_new[k]);
      const float d_o = dh[k] * tc;
      // Gradient into the new cell state: through h (tanh) plus the direct
      // path from the next timestep.
      const float d_cnew = dh[k] * c.o[k] * (1.0f - tc * tc) + dc[k];
      const float d_f = d_cnew * c.c_prev[k];
      const float d_i = d_cnew * c.g[k];
      const float d_g = d_cnew * c.i[k];
      dprev.c[k] = d_cnew * c.f[k];
      dzr[j] = d_i * c.i[k] * (1.0f - c.i[k]);
      dzr[hidden_ + j] = d_f * c.f[k] * (1.0f - c.f[k]);
      dzr[2 * hidden_ + j] = d_g * (1.0f - c.g[k] * c.g[k]);
      dzr[3 * hidden_ + j] = d_o * c.o[k] * (1.0f - c.o[k]);
    }
  }

  // dWx += dz^T x; dWh += dz^T h_prev; db += sum_rows(dz);
  // dx = dz Wx; dh_prev = dz Wh.
  matmul_acc(wx_.grad, dz, c.x, /*trans_a=*/true);
  matmul_acc(wh_.grad, dz, c.h_prev, /*trans_a=*/true);
  add_inplace(b_.grad, sum_rows(dz));
  Tensor dx = matmul(dz, wx_.value);
  dprev.h = matmul(dz, wh_.value);
  return {std::move(dx), std::move(dprev)};
}

std::vector<Parameter*> LstmCell::parameters() { return {&wx_, &wh_, &b_}; }

Lstm::Lstm(std::int64_t input_size, std::int64_t hidden_size,
           std::int64_t num_layers, Pcg32& rng, const std::string& name)
    : input_(input_size), hidden_(hidden_size) {
  AF_CHECK(num_layers >= 1, "Lstm needs at least one layer");
  cells_.reserve(static_cast<std::size_t>(num_layers));
  for (std::int64_t l = 0; l < num_layers; ++l) {
    cells_.emplace_back(l == 0 ? input_size : hidden_size, hidden_size, rng,
                        name + ".l" + std::to_string(l));
  }
}

Tensor Lstm::forward(const Tensor& x, ExecutionContext& ctx) {
  return forward(x, ctx, nullptr);
}

Tensor Lstm::forward(const Tensor& x, ExecutionContext& ctx,
                     std::vector<LstmState>* final_state) {
  AF_CHECK(x.rank() == 3 && x.dim(2) == input_, "Lstm expects [T, B, I]");
  const std::int64_t t_len = x.dim(0), batch = x.dim(1);

  // Steps inside the sequence always run plain: per-step ABFT would split
  // the fused gate accumulation and change the float association.
  ExecutionContext step_ctx = ctx;
  step_ctx.resilience = ResiliencePolicy::kNone;

  auto compute = [&]() -> Tensor {
    std::vector<LstmState> states;
    states.reserve(cells_.size());
    for (const auto& cell : cells_) {
      states.push_back(cell.initial_state(batch));
    }
    Tensor out({t_len, batch, hidden_});
    for (std::int64_t t = 0; t < t_len; ++t) {
      Tensor step({batch, input_});
      std::copy_n(x.data() + t * batch * input_, batch * input_, step.data());
      for (std::size_t l = 0; l < cells_.size(); ++l) {
        states[l] = cells_[l].forward(step, states[l], step_ctx);
        step = states[l].h;
      }
      std::copy_n(step.data(), batch * hidden_,
                  out.data() + t * batch * hidden_);
    }
    if (final_state) *final_state = states;
    return out;
  };
  if (ctx.training) {
    // Unguarded: a guard rerun would push every cell's step caches twice.
    Tensor out = compute();
    cache_.push_back({t_len, batch});
    return out;
  }
  if (ctx.resilience == ResiliencePolicy::kNone) return compute();
  return ctx.active_guard().run(compute, {t_len, batch, hidden_}, ctx.report);
}

Tensor Lstm::backward(const Tensor& d_out) {
  AF_CHECK(!cache_.empty(), "Lstm backward without matching forward");
  const Cache c = cache_.back();
  cache_.pop_back();
  AF_CHECK(d_out.rank() == 3 && d_out.dim(0) == c.t && d_out.dim(1) == c.b &&
               d_out.dim(2) == hidden_,
           "Lstm backward shape mismatch");

  const std::int64_t n_layers = num_layers();
  // Running gradients w.r.t. each layer's state, flowing right-to-left.
  std::vector<LstmState> dstate;
  dstate.reserve(cells_.size());
  for (const auto& cell : cells_) dstate.push_back(cell.initial_state(c.b));

  Tensor dx({c.t, c.b, input_});
  for (std::int64_t t = c.t - 1; t >= 0; --t) {
    // Top layer receives the output gradient for this step in addition to
    // the recurrent gradient.
    Tensor dtop({c.b, hidden_});
    std::copy_n(d_out.data() + t * c.b * hidden_, c.b * hidden_, dtop.data());
    add_inplace(dstate[static_cast<std::size_t>(n_layers - 1)].h, dtop);

    for (std::int64_t l = n_layers - 1; l >= 0; --l) {
      auto& ds = dstate[static_cast<std::size_t>(l)];
      auto [dstep, dprev] = cells_[static_cast<std::size_t>(l)].backward(
          ds.h, ds.c);
      ds = std::move(dprev);
      if (l > 0) {
        // dstep is the gradient w.r.t. the hidden output of layer l-1.
        add_inplace(dstate[static_cast<std::size_t>(l - 1)].h, dstep);
      } else {
        std::copy_n(dstep.data(), c.b * input_,
                    dx.data() + t * c.b * input_);
      }
    }
  }
  return dx;
}

std::vector<Parameter*> Lstm::parameters() {
  std::vector<Parameter*> out;
  for (auto& cell : cells_) {
    for (Parameter* p : cell.parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace af
