#include "src/nn/attention.hpp"

#include <algorithm>
#include <cmath>

#include "src/runtime/execution_context.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"

namespace af {
namespace {
// The attend core is the backend's attend_row entry (DESIGN.md §12.4). Both
// the monolithic [B,T,D] forward and the incremental decode steps run it,
// over one K/V layout (AttendOperand: fp32 rows are 32-bit codes), which is
// what makes the fp32-KV incremental path bit-identical to row i of the
// monolithic forward (DESIGN.md §15): every float op has one fixed order,
// and the masks only ever hit row tails — keys past `visible` — where
// exp(kAttendMaskValue - mx) underflows to an exact 0.0f that neither shifts
// the double-precision denominator prefix nor survives the zero-weight skip.

// How many leading keys of `len` a query sees: masked keys are those past
// its causal limit or the source's valid length.
std::int64_t visible_keys(std::int64_t len, std::int64_t causal_limit,
                          std::int64_t valid) {
  return std::max<std::int64_t>(
      0, std::min({len, causal_limit + 1, valid}));
}

// A row-major fp32 [rows, row_floats] block as an attend operand.
AttendOperand fp32_operand(const float* rows, std::int64_t n_rows,
                           std::int64_t row_floats, std::int64_t col) {
  return {reinterpret_cast<const std::uint8_t*>(rows),
          static_cast<std::size_t>(n_rows * row_floats) * sizeof(float), 32,
          nullptr, row_floats, col};
}

float max_abs(const Tensor& t) {
  float m = 0.0f;
  const float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    m = std::max(m, std::fabs(p[i]));
  }
  return m;
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(std::int64_t d_model,
                                       std::int64_t num_heads, Pcg32& rng,
                                       const std::string& name)
    : d_model_(d_model),
      heads_(num_heads),
      d_head_(d_model / num_heads),
      wq_(d_model, d_model, rng, true, name + ".wq"),
      wk_(d_model, d_model, rng, true, name + ".wk"),
      wv_(d_model, d_model, rng, true, name + ".wv"),
      wo_(d_model, d_model, rng, true, name + ".wo") {
  AF_CHECK(d_model % num_heads == 0, "d_model must divide by num_heads");
}

// Forward-path shape validation is reachable from a serving request, so a
// mismatch is a typed, catchable rejection — the ticket fails, the server
// does not (same contract as the Linear/QuantizedLinear forwards).
void MultiHeadAttention::check_inputs(
    const Tensor& q_in, const Tensor& kv_in, bool causal,
    const std::vector<std::int64_t>* kv_lengths) const {
  if (q_in.rank() != 3 || q_in.dim(2) != d_model_) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "q must be [B, Tq, " + std::to_string(d_model_) +
                         "], got " + shape_str(q_in.shape()));
  }
  if (kv_in.rank() != 3 || kv_in.dim(2) != d_model_ ||
      kv_in.dim(0) != q_in.dim(0)) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "kv must be [B, Tk, " + std::to_string(d_model_) +
                         "] with matching batch, got " +
                         shape_str(kv_in.shape()));
  }
  if (causal && q_in.dim(1) != kv_in.dim(1)) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "causal mask requires square attention (Tq=" +
                         std::to_string(q_in.dim(1)) + ", Tk=" +
                         std::to_string(kv_in.dim(1)) + ")");
  }
  if (kv_lengths &&
      static_cast<std::int64_t>(kv_lengths->size()) != q_in.dim(0)) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "kv_lengths must have one entry per batch");
  }
}

Tensor MultiHeadAttention::forward(const Tensor& q_in, const Tensor& kv_in,
                                   bool causal,
                                   const std::vector<std::int64_t>* kv_lengths,
                                   ExecutionContext& ec) {
  check_inputs(q_in, kv_in, causal, kv_lengths);
  const std::int64_t b = q_in.dim(0), tq = q_in.dim(1), tk = kv_in.dim(1);

  Tensor q = wq_.forward(q_in.reshaped({b * tq, d_model_}), ec);
  Tensor k = wk_.forward(kv_in.reshaped({b * tk, d_model_}), ec);
  Tensor v = wv_.forward(kv_in.reshaped({b * tk, d_model_}), ec);
  if (record_kv_ranges_) {
    k_range_seen_ = std::max(k_range_seen_, max_abs(k));
    v_range_seen_ = std::max(v_range_seen_, max_abs(v));
  }
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(d_head_));

  // Training persists every (b, h) softmax matrix for backward, its rows
  // doubling as the score scratch; inference reuses one row throughout.
  std::vector<Tensor> attn;
  Tensor srow;
  if (ec.training) {
    attn.reserve(static_cast<std::size_t>(b * heads_));
  } else {
    srow = Tensor({tk});
  }
  const KernelBackend& be = ec.kernel_backend();
  Tensor ctx({b * tq, d_model_});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    const std::int64_t valid =
        kv_lengths ? (*kv_lengths)[static_cast<std::size_t>(bi)] : tk;
    count_backend_dispatch(be);
    for (std::int64_t h = 0; h < heads_; ++h) {
      const std::int64_t col = h * d_head_;
      const AttendOperand k_op =
          fp32_operand(k.data() + bi * tk * d_model_, tk, d_model_, col);
      const AttendOperand v_op =
          fp32_operand(v.data() + bi * tk * d_model_, tk, d_model_, col);
      if (ec.training) attn.emplace_back(Shape{tq, tk});
      for (std::int64_t i = 0; i < tq; ++i) {
        float* scores =
            ec.training ? attn.back().data() + i * tk : srow.data();
        be.attend_row(q.data() + (bi * tq + i) * d_model_ + col, k_op, v_op,
                      tk, visible_keys(tk, causal ? i : tk, valid), d_head_,
                      inv_sqrt_dh, scores,
                      ctx.data() + (bi * tq + i) * d_model_ + col);
      }
    }
  }
  Tensor out = wo_.forward(ctx, ec).reshaped({b, tq, d_model_});
  if (ec.training) {
    cache_.push_back({std::move(q), std::move(k), std::move(v),
                      std::move(attn), b, tq, tk});
  }
  return out;
}

Tensor MultiHeadAttention::attend_cached(const Tensor& q, const KvState& kv,
                                         std::int64_t valid,
                                         ExecutionContext& ec) {
  const std::int64_t len = kv.len();
  const std::int64_t visible = visible_keys(len, len, valid);
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(d_head_));
  const KernelBackend& be = ec.kernel_backend();

  Tensor ctx({1, d_model_});
  Tensor srow({len});
  KvState::Operands ops = kv.operands();
  count_backend_dispatch(be);
  for (std::int64_t h = 0; h < heads_; ++h) {
    ops.k.col = ops.v.col = h * d_head_;
    be.attend_row(q.data() + ops.k.col, ops.k, ops.v, len, visible, d_head_,
                  inv_sqrt_dh, srow.data(), ctx.data() + ops.k.col);
  }
  return wo_.forward(ctx, ec);
}

Tensor MultiHeadAttention::decode_self_step(const Tensor& x, KvState& kv,
                                            ExecutionContext& ec) {
  if (!kv.initialized() || kv.dim() != d_model_) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "decode_self_step KvState not initialized for D=" +
                         std::to_string(d_model_));
  }
  if (x.rank() != 2 || x.dim(0) != 1 || x.dim(1) != d_model_) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "decode_self_step expects x [1, D], got " +
                         shape_str(x.shape()));
  }
  Tensor q = wq_.forward(x, ec);
  kv.append(wk_.forward(x, ec), wv_.forward(x, ec), ec.kernel_backend());
  // The newest key IS the query's own position: the cached prefix is
  // exactly the causally visible window, so nothing is masked.
  return attend_cached(q, kv, kv.len(), ec);
}

void MultiHeadAttention::prefill_cross(const Tensor& enc, KvState& kv,
                                       ExecutionContext& ec) {
  if (!kv.initialized() || kv.dim() != d_model_) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "prefill_cross KvState not initialized for D=" +
                         std::to_string(d_model_));
  }
  if (enc.rank() != 3 || enc.dim(0) != 1 || enc.dim(2) != d_model_) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "prefill_cross expects enc [1, Tk, D], got " +
                         shape_str(enc.shape()));
  }
  Tensor flat = enc.reshaped({enc.dim(1), d_model_});
  kv.append_block(wk_.forward(flat, ec), wv_.forward(flat, ec),
                  ec.kernel_backend());
}

Tensor MultiHeadAttention::decode_cross_step(const Tensor& x,
                                             const KvState& kv,
                                             std::int64_t kv_valid,
                                             ExecutionContext& ec) {
  if (!kv.initialized() || kv.dim() != d_model_ || kv.len() == 0) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "decode_cross_step requires a prefilled KvState");
  }
  if (x.rank() != 2 || x.dim(0) != 1 || x.dim(1) != d_model_) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "decode_cross_step expects x [1, D], got " +
                         shape_str(x.shape()));
  }
  return attend_cached(wq_.forward(x, ec), kv, kv_valid, ec);
}

std::pair<Tensor, Tensor> MultiHeadAttention::backward(const Tensor& dy) {
  AF_CHECK(!cache_.empty(), "attention backward without matching forward");
  Cache c = std::move(cache_.back());
  cache_.pop_back();
  AF_CHECK(dy.rank() == 3 && dy.dim(0) == c.b && dy.dim(1) == c.tq &&
               dy.dim(2) == d_model_,
           "attention backward shape mismatch");
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(d_head_));

  Tensor dctx = wo_.backward(dy.reshaped({c.b * c.tq, d_model_}));
  Tensor dq(c.q.shape()), dk(c.k.shape()), dv(c.v.shape());

  for (std::int64_t bi = 0; bi < c.b; ++bi) {
    for (std::int64_t h = 0; h < heads_; ++h) {
      const std::int64_t col = h * d_head_;
      const Tensor& attn = c.attn[static_cast<std::size_t>(bi * heads_ + h)];
      // dattn and dv.
      Tensor dattn({c.tq, c.tk});
      for (std::int64_t i = 0; i < c.tq; ++i) {
        const float* dcrow = dctx.data() + (bi * c.tq + i) * d_model_ + col;
        const float* arow = attn.data() + i * c.tk;
        float* darow = dattn.data() + i * c.tk;
        for (std::int64_t j = 0; j < c.tk; ++j) {
          const float* vrow = c.v.data() + (bi * c.tk + j) * d_model_ + col;
          float* dvrow = dv.data() + (bi * c.tk + j) * d_model_ + col;
          double dot = 0;
          const float a = arow[j];
          for (std::int64_t d = 0; d < d_head_; ++d) {
            dot += double(dcrow[d]) * vrow[d];
            dvrow[d] += a * dcrow[d];
          }
          darow[j] = static_cast<float>(dot);
        }
      }
      Tensor dscores = softmax_rows_backward(attn, dattn);
      // dq and dk through the scaled dot product.
      for (std::int64_t i = 0; i < c.tq; ++i) {
        const float* qrow = c.q.data() + (bi * c.tq + i) * d_model_ + col;
        float* dqrow = dq.data() + (bi * c.tq + i) * d_model_ + col;
        const float* dsrow = dscores.data() + i * c.tk;
        for (std::int64_t j = 0; j < c.tk; ++j) {
          const float ds = dsrow[j] * inv_sqrt_dh;
          if (ds == 0.0f) continue;
          const float* krow = c.k.data() + (bi * c.tk + j) * d_model_ + col;
          float* dkrow = dk.data() + (bi * c.tk + j) * d_model_ + col;
          for (std::int64_t d = 0; d < d_head_; ++d) {
            dqrow[d] += ds * krow[d];
            dkrow[d] += ds * qrow[d];
          }
        }
      }
    }
  }

  Tensor dq_in = wq_.backward(dq);
  Tensor dk_in = wk_.backward(dk);
  Tensor dv_in = wv_.backward(dv);
  add_inplace(dk_in, dv_in);
  return {dq_in.reshaped({c.b, c.tq, d_model_}),
          dk_in.reshaped({c.b, c.tk, d_model_})};
}

std::vector<Parameter*> MultiHeadAttention::parameters() {
  return collect_parameters({&wq_, &wk_, &wv_, &wo_});
}

}  // namespace af
