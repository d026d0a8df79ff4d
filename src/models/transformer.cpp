#include "src/models/transformer.hpp"

#include <algorithm>
#include <cmath>

#include "src/resilience/codec.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"

namespace af {
namespace {

std::vector<std::int64_t> valid_lengths(const std::vector<TokenSeq>& batch,
                                        std::int64_t pad_id) {
  std::vector<std::int64_t> lengths;
  lengths.reserve(batch.size());
  for (const auto& seq : batch) {
    std::int64_t len = static_cast<std::int64_t>(seq.size());
    while (len > 0 && seq[static_cast<std::size_t>(len - 1)] == pad_id) --len;
    lengths.push_back(len);
  }
  return lengths;
}

}  // namespace

TransformerMT::EncoderBlock::EncoderBlock(const TransformerConfig& cfg,
                                          Pcg32& rng, int index)
    : ln1(cfg.d_model, "enc" + std::to_string(index) + ".ln1"),
      ln2(cfg.d_model, "enc" + std::to_string(index) + ".ln2"),
      attn(cfg.d_model, cfg.num_heads, rng,
           "enc" + std::to_string(index) + ".attn"),
      fc1(cfg.d_model, cfg.d_ffn, rng, true,
          "enc" + std::to_string(index) + ".fc1"),
      fc2(cfg.d_ffn, cfg.d_model, rng, true,
          "enc" + std::to_string(index) + ".fc2") {}

Tensor TransformerMT::EncoderBlock::forward(
    const Tensor& x, const std::vector<std::int64_t>& lengths,
    ExecutionContext& ctx) {
  const std::int64_t b = x.dim(0), t = x.dim(1), d = x.dim(2);
  // Post-LN (original Vaswani / OpenNMT) ordering: sublayer, residual add,
  // then normalize. Unlike pre-LN this keeps scale pressure on the
  // embeddings and residual stream — the source of the wide NLP weight
  // distributions in paper Figure 1.
  Tensor sa = attn.forward(x, x, /*causal=*/false, &lengths, ctx);
  Tensor x1 = ln1.forward(add(x, sa).reshaped({b * t, d}), ctx)
                  .reshaped({b, t, d});
  Tensor h = fc2.forward(
      gelu.forward(fc1.forward(x1.reshaped({b * t, d}), ctx), ctx), ctx);
  return ln2.forward(add(x1, h.reshaped({b, t, d})).reshaped({b * t, d}), ctx)
      .reshaped({b, t, d});
}

Tensor TransformerMT::EncoderBlock::backward(const Tensor& dy) {
  const std::int64_t b = dy.dim(0), t = dy.dim(1), d = dy.dim(2);
  Tensor d2 = ln2.backward(dy.reshaped({b * t, d}));
  Tensor dh = fc1.backward(gelu.backward(fc2.backward(d2)));
  Tensor dx1 = add(d2, dh).reshaped({b, t, d});
  Tensor d1 = ln1.backward(dx1.reshaped({b * t, d}));
  auto [dq, dkv] = attn.backward(d1.reshaped({b, t, d}));
  return add(add(d1.reshaped({b, t, d}), dq), dkv);
}

std::vector<Module*> TransformerMT::EncoderBlock::modules() {
  return {&ln1, &ln2, &attn, &fc1, &fc2, &gelu};
}

TransformerMT::DecoderBlock::DecoderBlock(const TransformerConfig& cfg,
                                          Pcg32& rng, int index)
    : ln1(cfg.d_model, "dec" + std::to_string(index) + ".ln1"),
      ln2(cfg.d_model, "dec" + std::to_string(index) + ".ln2"),
      ln3(cfg.d_model, "dec" + std::to_string(index) + ".ln3"),
      self_attn(cfg.d_model, cfg.num_heads, rng,
                "dec" + std::to_string(index) + ".self"),
      cross_attn(cfg.d_model, cfg.num_heads, rng,
                 "dec" + std::to_string(index) + ".cross"),
      fc1(cfg.d_model, cfg.d_ffn, rng, true,
          "dec" + std::to_string(index) + ".fc1"),
      fc2(cfg.d_ffn, cfg.d_model, rng, true,
          "dec" + std::to_string(index) + ".fc2") {}

Tensor TransformerMT::DecoderBlock::forward(
    const Tensor& x, const Tensor& enc,
    const std::vector<std::int64_t>& src_lengths, ExecutionContext& ctx) {
  const std::int64_t b = x.dim(0), t = x.dim(1), d = x.dim(2);
  // Post-LN ordering throughout (see EncoderBlock::forward).
  Tensor sa = self_attn.forward(x, x, /*causal=*/true, nullptr, ctx);
  Tensor x1 = ln1.forward(add(x, sa).reshaped({b * t, d}), ctx)
                  .reshaped({b, t, d});
  Tensor ca = cross_attn.forward(x1, enc, false, &src_lengths, ctx);
  Tensor x2 = ln2.forward(add(x1, ca).reshaped({b * t, d}), ctx)
                  .reshaped({b, t, d});
  Tensor h = fc2.forward(
      gelu.forward(fc1.forward(x2.reshaped({b * t, d}), ctx), ctx), ctx);
  return ln3.forward(add(x2, h.reshaped({b, t, d})).reshaped({b * t, d}), ctx)
      .reshaped({b, t, d});
}

std::pair<Tensor, Tensor> TransformerMT::DecoderBlock::backward(
    const Tensor& dy) {
  const std::int64_t b = dy.dim(0), t = dy.dim(1), d = dy.dim(2);
  Tensor d3 = ln3.backward(dy.reshaped({b * t, d}));
  Tensor dh = fc1.backward(gelu.backward(fc2.backward(d3)));
  Tensor dx2 = add(d3, dh);
  Tensor d2 = ln2.backward(dx2);
  auto [dc, denc] = cross_attn.backward(d2.reshaped({b, t, d}));
  Tensor dx1 = add(d2.reshaped({b, t, d}), dc);
  Tensor d1 = ln1.backward(dx1.reshaped({b * t, d}));
  auto [dq, dkv] = self_attn.backward(d1.reshaped({b, t, d}));
  return {add(add(d1.reshaped({b, t, d}), dq), dkv), std::move(denc)};
}

std::vector<Module*> TransformerMT::DecoderBlock::modules() {
  return {&ln1, &ln2, &ln3, &self_attn, &cross_attn, &fc1, &fc2, &gelu};
}

TransformerMT::TransformerMT(const TransformerConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      src_emb_([&] {
        Pcg32 r(seed, 1);
        // Unscaled-embedding parameterization (no sqrt(D) multiplier):
        // the table itself carries representation scale, and under Zipfian
        // data the frequent-token rows keep growing — the source of the
        // wide NLP weight ranges in paper Figure 1.
        return Embedding(cfg.src_vocab, cfg.d_model, r, "src_emb", 1.0f);
      }()),
      tgt_emb_([&] {
        Pcg32 r(seed, 2);
        return Embedding(cfg.tgt_vocab, cfg.d_model, r, "tgt_emb", 1.0f);
      }()),
      enc_final_(cfg.d_model, "enc_final"),
      dec_final_(cfg.d_model, "dec_final"),
      out_proj_([&] {
        Pcg32 r(seed, 3);
        return Linear(cfg.d_model, cfg.tgt_vocab, r, true, "out_proj");
      }()),
      pos_table_({cfg.max_len, cfg.d_model}) {
  Pcg32 rng(seed, 4);
  enc_blocks_.reserve(static_cast<std::size_t>(cfg.enc_layers));
  for (int i = 0; i < cfg.enc_layers; ++i) enc_blocks_.emplace_back(cfg, rng, i);
  dec_blocks_.reserve(static_cast<std::size_t>(cfg.dec_layers));
  for (int i = 0; i < cfg.dec_layers; ++i) dec_blocks_.emplace_back(cfg, rng, i);

  // Sinusoidal positional encodings (Vaswani et al., Eq. 5).
  for (std::int64_t t = 0; t < cfg.max_len; ++t) {
    for (std::int64_t i = 0; i < cfg.d_model; i += 2) {
      const double rate =
          std::pow(10000.0, -static_cast<double>(i) / cfg.d_model);
      pos_table_.at({t, i}) = static_cast<float>(std::sin(t * rate));
      if (i + 1 < cfg.d_model) {
        pos_table_.at({t, i + 1}) = static_cast<float>(std::cos(t * rate));
      }
    }
  }
}

Tensor TransformerMT::embed(Embedding& emb, const std::vector<TokenSeq>& batch,
                            ExecutionContext& ctx) {
  const auto b = static_cast<std::int64_t>(batch.size());
  AF_CHECK(b > 0, "empty batch");
  const auto t = static_cast<std::int64_t>(batch[0].size());
  AF_CHECK(t <= cfg_.max_len, "sequence longer than max_len");
  std::vector<std::int64_t> flat;
  flat.reserve(static_cast<std::size_t>(b * t));
  for (const auto& seq : batch) {
    AF_CHECK(static_cast<std::int64_t>(seq.size()) == t,
             "ragged batch: all sequences must share a length");
    flat.insert(flat.end(), seq.begin(), seq.end());
  }
  Tensor e = emb.forward(flat, ctx);
  for (std::int64_t r = 0; r < b * t; ++r) {
    const std::int64_t pos = r % t;
    float* row = e.data() + r * cfg_.d_model;
    const float* prow = pos_table_.data() + pos * cfg_.d_model;
    for (std::int64_t j = 0; j < cfg_.d_model; ++j) {
      row[j] += prow[j];
    }
  }
  return e;
}

Tensor TransformerMT::encode(const std::vector<TokenSeq>& src,
                             const std::vector<std::int64_t>& lengths,
                             ExecutionContext& ctx) {
  const auto b = static_cast<std::int64_t>(src.size());
  const auto ts = static_cast<std::int64_t>(src[0].size());
  const std::int64_t d = cfg_.d_model;
  Tensor x = act_quant_.process("enc.embed", embed(src_emb_, src, ctx))
                 .reshaped({b, ts, d});
  for (std::size_t i = 0; i < enc_blocks_.size(); ++i) {
    x = act_quant_.process("enc.block" + std::to_string(i),
                           enc_blocks_[i].forward(x, lengths, ctx));
  }
  return act_quant_.process(
             "enc.out", enc_final_.forward(x.reshaped({b * ts, d}), ctx))
      .reshaped({b, ts, d});
}

void TransformerMT::set_kv_range_recording(bool on) {
  for (auto& blk : dec_blocks_) {
    blk.self_attn.set_kv_range_recording(on);
    blk.cross_attn.set_kv_range_recording(on);
  }
  std::lock_guard<std::mutex> lock(kv_codec_cache_.mu);
  kv_codec_cache_.entries.clear();
}

namespace {

std::shared_ptr<const FormatCodec> kv_codec(const KvCacheFormat& fmt,
                                            float range, const char* what) {
  if (range <= 0.0f) {
    throw FaultError("decode", FaultKind::kMalformedInput,
                     std::string("quantized KV cache requires a calibrated ") +
                         what + " range (run calibrate_transformer_kv)");
  }
  return make_codec(fmt.kind, fmt.bits, range);
}

}  // namespace

std::shared_ptr<const TransformerMT::KvCodecs> TransformerMT::kv_codecs(
    const KvCacheFormat& fmt) {
  std::lock_guard<std::mutex> lock(kv_codec_cache_.mu);
  for (const auto& [key, codecs] : kv_codec_cache_.entries) {
    if (key.kind == fmt.kind && key.bits == fmt.bits) return codecs;
  }
  auto codecs = std::make_shared<KvCodecs>();
  for (std::int64_t i = 0; i < cfg_.dec_layers; ++i) {
    // Per-layer exp_bias recalibration: each codec is bracketed by the
    // max-abs its layer's K or V projections reached during calibration
    // (the paper's AdaptivFloat rule, applied to cache storage).
    const KvRanges r = dec_kv_ranges(i);
    codecs->self.push_back({kv_codec(fmt, r.self_k, "self-attention K"),
                            kv_codec(fmt, r.self_v, "self-attention V")});
    codecs->cross.push_back({kv_codec(fmt, r.cross_k, "cross-attention K"),
                             kv_codec(fmt, r.cross_v, "cross-attention V")});
  }
  kv_codec_cache_.entries.emplace_back(fmt, codecs);
  return codecs;
}

TransformerMT::KvRanges TransformerMT::dec_kv_ranges(std::int64_t layer) const {
  AF_CHECK(layer >= 0 &&
               layer < static_cast<std::int64_t>(dec_blocks_.size()),
           "decoder layer index out of range");
  const auto& blk = dec_blocks_[static_cast<std::size_t>(layer)];
  return {blk.self_attn.k_range_seen(), blk.self_attn.v_range_seen(),
          blk.cross_attn.k_range_seen(), blk.cross_attn.v_range_seen()};
}

Tensor TransformerMT::forward(const std::vector<TokenSeq>& src,
                              const std::vector<TokenSeq>& tgt_in,
                              std::int64_t pad_id) {
  AF_CHECK(src.size() == tgt_in.size(), "batch size mismatch");
  ExecutionContext train{.training = true};
  StepCtx ctx;
  ctx.b = static_cast<std::int64_t>(src.size());
  ctx.ts = static_cast<std::int64_t>(src[0].size());
  ctx.tt = static_cast<std::int64_t>(tgt_in[0].size());
  ctx.src_lengths = valid_lengths(src, pad_id);
  const std::int64_t d = cfg_.d_model;

  Tensor enc = encode(src, ctx.src_lengths, train);
  Tensor y = act_quant_.process("dec.embed", embed(tgt_emb_, tgt_in, train))
                 .reshaped({ctx.b, ctx.tt, d});
  for (std::size_t i = 0; i < dec_blocks_.size(); ++i) {
    y = act_quant_.process(
        "dec.block" + std::to_string(i),
        dec_blocks_[i].forward(y, enc, ctx.src_lengths, train));
  }
  Tensor out = dec_final_.forward(y.reshaped({ctx.b * ctx.tt, d}), train);
  out = act_quant_.process("dec.out", out);
  ctx_.push_back(std::move(ctx));
  return out_proj_.forward(out, train);
}

void TransformerMT::backward(const Tensor& dlogits) {
  AF_CHECK(!ctx_.empty(), "TransformerMT backward without forward");
  StepCtx ctx = std::move(ctx_.back());
  ctx_.pop_back();
  const std::int64_t d = cfg_.d_model;

  Tensor dy = dec_final_.backward(out_proj_.backward(dlogits))
                  .reshaped({ctx.b, ctx.tt, d});
  Tensor denc({ctx.b, ctx.ts, d});
  for (std::size_t i = dec_blocks_.size(); i-- > 0;) {
    auto [dx, de] = dec_blocks_[i].backward(dy);
    dy = std::move(dx);
    add_inplace(denc, de);
  }
  // The positional term is constant; the table gradient is dy itself.
  tgt_emb_.backward(dy.reshaped({ctx.b * ctx.tt, d}));

  Tensor dx = enc_final_.backward(denc.reshaped({ctx.b * ctx.ts, d}))
                  .reshaped({ctx.b, ctx.ts, d});
  for (std::size_t i = enc_blocks_.size(); i-- > 0;) {
    dx = enc_blocks_[i].backward(dx);
  }
  src_emb_.backward(dx.reshaped({ctx.b * ctx.ts, d}));
}

TokenSeq TransformerMT::greedy_decode(const TokenSeq& src, std::int64_t pad_id,
                                      std::int64_t bos, std::int64_t eos,
                                      std::int64_t max_steps) {
  // Incremental decode over an fp32 KV cache: bit-identical logits to the
  // old full-recompute loop (forward over the growing prefix each step) —
  // the incremental-equality tests and bench_decode --verify pin this.
  TransformerDecoder dec(*this);
  dec.begin(src, pad_id);
  TokenSeq out;
  std::vector<std::int64_t> last = {bos};
  std::int64_t tgt_len = 1;  // decoded prefix incl. BOS
  for (std::int64_t step = 0; step < max_steps; ++step) {
    const Tensor& logits = dec.step(last);
    const std::int64_t next = argmax_rows(logits)[0];
    if (next == eos) break;
    out.push_back(next);
    last[0] = next;
    if (++tgt_len >= cfg_.max_len) break;
  }
  return out;
}

std::vector<Module*> TransformerMT::all_modules() {
  std::vector<Module*> mods = {&src_emb_, &tgt_emb_, &enc_final_, &dec_final_,
                               &out_proj_};
  for (auto& blk : enc_blocks_) {
    for (Module* m : blk.modules()) mods.push_back(m);
  }
  for (auto& blk : dec_blocks_) {
    for (Module* m : blk.modules()) mods.push_back(m);
  }
  return mods;
}

std::vector<Parameter*> TransformerMT::parameters() {
  return collect_parameters(all_modules());
}

void TransformerMT::zero_grad() {
  for (Module* m : all_modules()) m->zero_grad();
}

void TransformerMT::clear_caches() {
  for (Module* m : all_modules()) m->clear_cache();
  ctx_.clear();
}

// ----- TransformerDecoder ----------------------------------------------------

TransformerDecoder::TransformerDecoder(TransformerMT& model)
    : TransformerDecoder(model, Options()) {}

TransformerDecoder::TransformerDecoder(TransformerMT& model, Options opts)
    : model_(model), opts_(std::move(opts)) {
  const TransformerConfig& cfg = model_.cfg_;
  if (opts_.max_steps == 0) opts_.max_steps = cfg.max_len;
  if (opts_.max_steps > cfg.max_len) {
    // The positional table (and the monolithic path it must match) only
    // covers max_len positions — a longer plan could never be decoded.
    throw FaultError("decode", FaultKind::kMalformedInput,
                     "decode plan of " + std::to_string(opts_.max_steps) +
                         " steps exceeds max_len " +
                         std::to_string(cfg.max_len));
  }
  const auto layers = static_cast<std::size_t>(cfg.dec_layers);
  if (opts_.kv.quantized) kv_codecs_ = model_.kv_codecs(opts_.kv);
  self_kv_.resize(layers);
  cross_kv_.resize(layers);

  DecodeHooks hooks;
  hooks.setup = [this](ExecutionContext& c) { setup(c); };
  hooks.prefill = [this](ExecutionContext& c) { prefill(c); };
  hooks.step = [this](const std::vector<std::int64_t>& t,
                      ExecutionContext& c) {
    TransformerDecoder* self = this;
    return forward_rows(std::span<TransformerDecoder* const>(&self, 1), t, c);
  };
  modules_ = model_.all_modules();
  hooks.cache_probe = [this] {
    std::int64_t depth = 0;
    for (Module* m : modules_) depth += m->cache_depth();
    return depth;
  };
  DecodeSessionConfig scfg;
  scfg.ctx = opts_.ctx;
  scfg.max_steps = opts_.max_steps;
  session_ = std::make_unique<DecodeSession>(std::move(hooks),
                                             std::move(scfg));
}

void TransformerDecoder::setup(ExecutionContext&) {
  // Runs under the session's KV arena: every byte of cache storage is
  // planned here, once, to full capacity.
  const TransformerConfig& cfg = model_.cfg_;
  for (std::size_t i = 0; i < self_kv_.size(); ++i) {
    self_kv_[i].init(opts_.max_steps, cfg.d_model,
                     kv_codecs_ ? kv_codecs_->self[i] : KvQuantConfig{});
    cross_kv_[i].init(cfg.max_len, cfg.d_model,
                      kv_codecs_ ? kv_codecs_->cross[i] : KvQuantConfig{});
  }
}

void TransformerDecoder::begin(const TokenSeq& src, std::int64_t pad_id) {
  if (src.empty() ||
      static_cast<std::int64_t>(src.size()) > model_.cfg_.max_len) {
    throw FaultError("decode", FaultKind::kMalformedInput,
                     "decode source must be 1.." +
                         std::to_string(model_.cfg_.max_len) + " tokens, got " +
                         std::to_string(src.size()));
  }
  src_batch_.assign(1, src);
  src_lengths_ = valid_lengths(src_batch_, pad_id);
  session_->begin();
}

void TransformerDecoder::prefill(ExecutionContext& ctx) {
  Tensor enc = model_.encode(src_batch_, src_lengths_, ctx);
  for (std::size_t i = 0; i < self_kv_.size(); ++i) {
    self_kv_[i].reset();
    cross_kv_[i].reset();
    // The encoder side never changes during decoding: project K/V once.
    model_.dec_blocks_[i].cross_attn.prefill_cross(enc, cross_kv_[i], ctx);
  }
  pos_ = 0;
}

const Tensor& TransformerDecoder::step(
    const std::vector<std::int64_t>& last_tokens) {
  if (last_tokens.size() != 1) {
    throw FaultError("decode", FaultKind::kMalformedInput,
                     "decode step needs exactly one token");
  }
  return session_->step(last_tokens);
}

void TransformerDecoder::check_step(std::int64_t token) const {
  session_->check_step();
  const std::int64_t vocab = model_.cfg_.tgt_vocab;
  if (token < 0 || token >= vocab) {
    throw FaultError("decode", FaultKind::kMalformedInput,
                     "token id " + std::to_string(token) +
                         " out of vocab [0, " + std::to_string(vocab) + ")");
  }
}

bool TransformerDecoder::stacks_with(const TransformerDecoder& peer) const {
  const ExecutionContext& a = session_->context();
  const ExecutionContext& b = peer.session_->context();
  return &model_ == &peer.model_ && a.resilience == b.resilience &&
         a.guard == b.guard && a.report == b.report &&
         a.mac_hook == b.mac_hook && a.backend == b.backend;
}

Tensor TransformerDecoder::step_batch(
    std::span<TransformerDecoder* const> decs,
    const std::vector<std::int64_t>& ids, Arena& scratch) {
  if (decs.empty() || ids.size() != decs.size()) {
    throw FaultError("decode", FaultKind::kMalformedInput,
                     "decode batch needs one token per decoder");
  }
  std::vector<DecodeSession*> sessions;
  sessions.reserve(decs.size());
  for (std::size_t r = 0; r < decs.size(); ++r) {
    if (!decs.front()->stacks_with(*decs[r])) {
      throw FaultError("decode", FaultKind::kMalformedInput,
                       "decode batch mixes models or execution contexts");
    }
    decs[r]->check_step(ids[r]);
    sessions.push_back(decs[r]->session_.get());
  }
  return DecodeSession::step_batch(
      sessions, scratch,
      [&](ExecutionContext& ctx) { return forward_rows(decs, ids, ctx); });
}

Tensor TransformerDecoder::forward_rows(
    std::span<TransformerDecoder* const> decs,
    const std::vector<std::int64_t>& ids, ExecutionContext& ctx) {
  // One decoder timestep of S streams, rank-2 [S, D] throughout: row r of
  // every tensor here is a row of what stream r's teacher-forced [T, D]
  // path computes, and every layer is row-independent — the source of the
  // fp32-KV bit-equality, and of a stream's bits not depending on which
  // streams share its step.
  TransformerMT& model = decs.front()->model_;
  const std::int64_t d = model.cfg_.d_model;
  const std::size_t rows = decs.size();
  const std::size_t layers = model.dec_blocks_.size();

  Tensor e = model.tgt_emb_.forward(ids, ctx);  // [S, D]
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = e.data() + static_cast<std::int64_t>(r) * d;
    const float* prow = model.pos_table_.data() + decs[r]->pos_ * d;
    for (std::int64_t j = 0; j < d; ++j) row[j] += prow[j];
  }
  // Each layer's caches, one per row: entry [layer * S + r] is row r's.
  std::vector<KvState*> self_kv(layers * rows);
  std::vector<const KvState*> cross_kv(layers * rows);
  std::vector<std::int64_t> valid(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    valid[r] = decs[r]->src_lengths_[0];
    for (std::size_t i = 0; i < layers; ++i) {
      self_kv[i * rows + r] = &decs[r]->self_kv_[i];
      cross_kv[i * rows + r] = &decs[r]->cross_kv_[i];
    }
  }

  ActQuant& aq = model.act_quant_;
  Tensor y = aq.process("dec.embed", e);
  for (std::size_t i = 0; i < layers; ++i) {
    auto& blk = model.dec_blocks_[i];
    Tensor sa = blk.self_attn.decode_self_step(
        y, std::span<KvState* const>(self_kv).subspan(i * rows, rows), ctx);
    Tensor x1 = blk.ln1.forward(add(y, sa), ctx);
    Tensor ca = blk.cross_attn.decode_cross_step(
        x1, std::span<const KvState* const>(cross_kv).subspan(i * rows, rows),
        valid, ctx);
    Tensor x2 = blk.ln2.forward(add(x1, ca), ctx);
    Tensor h = blk.fc2.forward(
        blk.gelu.forward(blk.fc1.forward(x2, ctx), ctx), ctx);
    y = aq.process("dec.block" + std::to_string(i),
                   blk.ln3.forward(add(x2, h), ctx));
  }
  Tensor out = aq.process("dec.out", model.dec_final_.forward(y, ctx));
  for (TransformerDecoder* dec : decs) ++dec->pos_;
  return model.out_proj_.forward(out, ctx);
}

std::size_t TransformerDecoder::kv_bytes() const {
  std::size_t total = 0;
  for (const auto& kv : self_kv_) total += kv.payload_bytes();
  for (const auto& kv : cross_kv_) total += kv.payload_bytes();
  return total;
}

std::size_t TransformerDecoder::kv_bytes_per_step() const {
  std::size_t total = 0;
  for (const auto& kv : self_kv_) total += kv.bytes_per_step();
  return total;
}

// ----- TransformerStreamDecoder ----------------------------------------------

TransformerStreamDecoder::TransformerStreamDecoder(
    TransformerMT& model, TransformerDecoder::Options opts,
    std::int64_t pad_id, std::int64_t bos, std::int64_t eos)
    : dec_(model, std::move(opts)),
      pad_id_(pad_id),
      bos_(bos),
      eos_(eos) {}

void TransformerStreamDecoder::open(const std::vector<std::int64_t>& src) {
  dec_.begin(src, pad_id_);
}

std::int64_t TransformerStreamDecoder::step(std::int64_t last_token) {
  const Tensor& logits = dec_.step({last_token});
  return argmax_rows(logits)[0];
}

void TransformerStreamDecoder::step_batch(std::span<DecodeStepSlot> slots,
                                          Arena& scratch) {
  std::vector<TransformerDecoder*> decs;
  std::vector<std::int64_t> ids;
  std::vector<DecodeStepSlot*> rows;
  decs.reserve(slots.size());
  ids.reserve(slots.size());
  rows.reserve(slots.size());
  for (DecodeStepSlot& slot : slots) {
    auto* peer = dynamic_cast<TransformerStreamDecoder*>(slot.decoder);
    if (peer == nullptr || !dec_.stacks_with(peer->dec_)) {
      StreamDecoder::step_batch(std::span<DecodeStepSlot>(&slot, 1), scratch);
      continue;
    }
    // A member's own defect (out-of-vocab token, spent plan, no begin())
    // fails that member alone, before any member appends a row.
    try {
      peer->dec_.check_step(slot.last_token);
    } catch (...) {
      slot.error = std::current_exception();
      continue;
    }
    decs.push_back(&peer->dec_);
    ids.push_back(slot.last_token);
    rows.push_back(&slot);
  }
  if (decs.empty()) return;
  const std::vector<std::int64_t> next =
      argmax_rows(TransformerDecoder::step_batch(decs, ids, scratch));
  for (std::size_t r = 0; r < rows.size(); ++r) rows[r]->token = next[r];
}

}  // namespace af
