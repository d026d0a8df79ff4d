#include "src/nn/attention.hpp"

#include <cmath>

#include "src/runtime/execution_context.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"

namespace af {
namespace {
constexpr float kMaskValue = -1e30f;

// The shared per-row attend core: scores one query row against `len` cached
// K rows, softmaxes in place, and accumulates the weighted V rows into
// `crow` (pre-zeroed, d_head floats). Both the monolithic [B,T,D] forward
// and the incremental decode steps run THIS function, which is what makes
// the fp32-KV incremental path bit-identical to row i of the monolithic
// forward (DESIGN.md §15):
//  * masked entries (j > causal_limit or j >= valid) get kMaskValue; since
//    masks only ever hit row tails, exp(kMaskValue - mx) underflows to an
//    exact 0.0f that neither shifts the double-precision denominator prefix
//    nor survives the a == 0.0f accumulation skip;
//  * every float op (double dot ascending in d, double denominator
//    ascending in j, one 1/denom divide) has one fixed order.
// k_rows/v_rows point at the head's column offset of row 0; row j lives at
// k_rows + j * row_stride. srow is caller scratch of len floats and is left
// holding the softmax weights (the training path persists it for backward).
void attend_row(const float* qrow, const float* k_rows, const float* v_rows,
                std::int64_t row_stride, std::int64_t len,
                std::int64_t causal_limit, std::int64_t valid,
                std::int64_t d_head, float inv_sqrt_dh, float* srow,
                float* crow) {
  for (std::int64_t j = 0; j < len; ++j) {
    if (j > causal_limit || j >= valid) {
      srow[j] = kMaskValue;
      continue;
    }
    const float* krow = k_rows + j * row_stride;
    double dot = 0;
    for (std::int64_t d = 0; d < d_head; ++d) dot += double(qrow[d]) * krow[d];
    srow[j] = static_cast<float>(dot) * inv_sqrt_dh;
  }
  softmax_row_inplace(srow, len);
  for (std::int64_t j = 0; j < len; ++j) {
    const float a = srow[j];
    if (a == 0.0f) continue;
    const float* vrow = v_rows + j * row_stride;
    for (std::int64_t d = 0; d < d_head; ++d) crow[d] += a * vrow[d];
  }
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
  Tensor ctx({b * tq, d_model_});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    const std::int64_t valid =
        kv_lengths ? (*kv_lengths)[static_cast<std::size_t>(bi)] : tk;
    for (std::int64_t h = 0; h < heads_; ++h) {
      const std::int64_t col = h * d_head_;
      const float* k_rows = k.data() + bi * tk * d_model_ + col;
      const float* v_rows = v.data() + bi * tk * d_model_ + col;
      if (ec.training) attn.emplace_back(Shape{tq, tk});
      for (std::int64_t i = 0; i < tq; ++i) {
        float* scores =
            ec.training ? attn.back().data() + i * tk : srow.data();
        attend_row(q.data() + (bi * tq + i) * d_model_ + col, k_rows, v_rows,
                   d_model_, tk, causal ? i : tk, valid, d_head_,
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

Tensor MultiHeadAttention::attend_cached(
    const Tensor& q, const KvState& kv,
    const std::vector<std::int64_t>* kv_lengths, ExecutionContext& ec) {
  const std::int64_t b = kv.batch(), len = kv.len();
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(d_head_));
  const KernelBackend& be = ec.kernel_backend();

  Tensor ctx({b, d_model_});
  Tensor srow({len});
  for (std::int64_t bi = 0; bi < b; ++bi) {
    const std::int64_t valid =
        kv_lengths ? (*kv_lengths)[static_cast<std::size_t>(bi)] : len;
    // rows() may decode into lane-shared scratch — consume the lane fully
    // before asking for the next one.
    const KvState::Rows rows = kv.rows(bi, be);
    for (std::int64_t h = 0; h < heads_; ++h) {
      const std::int64_t col = h * d_head_;
      attend_row(q.data() + bi * d_model_ + col, rows.k + col, rows.v + col,
                 rows.stride, len, len, valid, d_head_, inv_sqrt_dh,
                 srow.data(), ctx.data() + bi * d_model_ + col);
    }
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
  if (x.rank() != 2 || x.dim(0) != kv.batch() || x.dim(1) != d_model_) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "decode_self_step expects x [B, D] matching the cache, "
                     "got " + shape_str(x.shape()));
  }
  Tensor q = wq_.forward(x, ec);
  kv.append(wk_.forward(x, ec), wv_.forward(x, ec));
  // The newest key IS the query's own position: the cached prefix is
  // exactly the causally visible window, so nothing is masked.
  return attend_cached(q, kv, nullptr, ec);
}

void MultiHeadAttention::prefill_cross(const Tensor& enc, KvState& kv,
                                       ExecutionContext& ec) {
  if (!kv.initialized() || kv.dim() != d_model_) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "prefill_cross KvState not initialized for D=" +
                         std::to_string(d_model_));
  }
  if (enc.rank() != 3 || enc.dim(0) != kv.batch() ||
      enc.dim(2) != d_model_) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "prefill_cross expects enc [B, Tk, D] matching the "
                     "cache, got " + shape_str(enc.shape()));
  }
  const std::int64_t b = enc.dim(0), tk = enc.dim(1);
  Tensor flat = enc.reshaped({b * tk, d_model_});
  kv.append_block(wk_.forward(flat, ec), wv_.forward(flat, ec), tk);
}

Tensor MultiHeadAttention::decode_cross_step(
    const Tensor& x, const KvState& kv,
    const std::vector<std::int64_t>* kv_lengths, ExecutionContext& ec) {
  if (!kv.initialized() || kv.dim() != d_model_ || kv.len() == 0) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "decode_cross_step requires a prefilled KvState");
  }
  if (x.rank() != 2 || x.dim(0) != kv.batch() || x.dim(1) != d_model_) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "decode_cross_step expects x [B, D] matching the cache, "
                     "got " + shape_str(x.shape()));
  }
  if (kv_lengths &&
      static_cast<std::int64_t>(kv_lengths->size()) != kv.batch()) {
    throw FaultError("attention", FaultKind::kMalformedInput,
                     "kv_lengths must have one entry per batch");
  }
  return attend_cached(wq_.forward(x, ec), kv, kv_lengths, ec);
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
