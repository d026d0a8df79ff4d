// Example: quantizing a trained Transformer end to end.
//
//   $ ./quantize_transformer
//
// Trains a small translation Transformer on the synthetic task, then walks
// the PTQ -> QAR pipeline at 5-bit weights for AdaptivFloat, exactly the
// protocol of the paper's Table 2 (a single cell of it, for speed), and
// finishes with an incremental-decoding demo: the same sentence decoded
// through a TransformerDecoder with fp32 and packed AdaptivFloat-8 KV
// caches.
#include <cstdio>

#include "src/models/trainer.hpp"
#include "src/numerics/registry.hpp"

namespace {

// Greedy argmax loop over a caller-owned TransformerDecoder. One begin()
// per sentence reuses the decoder's arena-planned KV storage, so steady
// state is zero heap allocations per emitted token.
af::TokenSeq decode_greedy(af::TransformerDecoder& dec, const af::TokenSeq& src,
                           std::int64_t max_steps) {
  using af::TranslationTask;
  dec.begin(src, TranslationTask::kPad);
  af::TokenSeq out;
  std::vector<std::int64_t> last = {TranslationTask::kBos};
  for (std::int64_t s = 0; s < max_steps; ++s) {
    const af::Tensor& logits = dec.step(last);
    const std::int64_t vocab = logits.shape()[1];
    const float* row = logits.data();
    std::int64_t next = 0;
    for (std::int64_t v = 1; v < vocab; ++v) {
      if (row[v] > row[next]) next = v;
    }
    if (next == TranslationTask::kEos) break;
    out.push_back(next);
    last[0] = next;
    if (s + 2 >= dec.max_steps()) break;
  }
  return out;
}

void print_tokens(const char* tag, const af::TokenSeq& seq) {
  std::printf("%s", tag);
  for (std::int64_t t : seq) std::printf(" %lld", static_cast<long long>(t));
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace af;

  // 1. Train the FP32 baseline to its plateau.
  std::printf("training FP32 baseline (this takes ~30s)...\n");
  TransformerBundle bundle(7);
  const float loss = train_transformer(bundle, 1500, 16, 2e-3f, 8);
  const double fp32 = eval_transformer_bleu(bundle, 32);
  std::printf("baseline: loss %.3f, BLEU %.2f\n\n", loss, fp32);
  auto baseline = snapshot_parameters(bundle.model.parameters());

  // 2. Post-training quantization: 5-bit AdaptivFloat on every layer.
  auto q = make_quantizer(FormatKind::kAdaptivFloat, 5);
  const double ptq = eval_transformer_bleu(bundle, 32, q.get());
  std::printf("PTQ  @ 5-bit AdaptivFloat: BLEU %.2f\n", ptq);

  // 3. Quantization-aware retraining with the straight-through estimator.
  std::printf("QAR fine-tuning (150 steps)...\n");
  train_transformer(bundle, 150, 16, 5e-4f, 9, q.get());
  const double qar = eval_transformer_bleu(bundle, 32, q.get());
  std::printf("QAR  @ 5-bit AdaptivFloat: BLEU %.2f\n\n", qar);

  // 4. Contrast with a non-adaptive float at the same width.
  restore_parameters(bundle.model.parameters(), baseline);
  auto fq = make_quantizer(FormatKind::kFloat, 5);
  std::printf("PTQ  @ 5-bit Float (non-adaptive): BLEU %.2f\n",
              eval_transformer_bleu(bundle, 32, fq.get()));
  std::printf("\nsummary: FP32 %.2f | AdaptivFloat PTQ %.2f -> QAR %.2f\n",
              fp32, ptq, qar);

  // 5. Incremental decoding with a packed KV cache. The decoder plans its
  // per-layer KV storage once; fp32 KV reproduces greedy_decode bit for
  // bit, while AdaptivFloat-8 KV stores cached K/V rows as packed codes
  // (per-layer exp_bias recalibrated from calibrate_transformer_kv ranges)
  // at a quarter of the bytes per decoded token.
  std::printf("\nincremental decode demo (TransformerDecoder KV cache)\n");
  calibrate_transformer_kv(bundle, 8, 11);
  Pcg32 demo_rng(13);
  const TokenSeq src = bundle.task.sample(demo_rng).source;
  print_tokens("  source:         ", src);

  TransformerDecoder fp32_dec(bundle.model);
  const TokenSeq fp32_out =
      decode_greedy(fp32_dec, src, bundle.cfg.max_len - 1);
  print_tokens("  fp32 KV:        ", fp32_out);

  TransformerDecoder::Options qopts;
  qopts.kv.quantized = true;
  qopts.kv.kind = FormatKind::kAdaptivFloat;
  qopts.kv.bits = 8;
  TransformerDecoder q_dec(bundle.model, qopts);
  const TokenSeq q_out = decode_greedy(q_dec, src, bundle.cfg.max_len - 1);
  print_tokens("  af<8> KV:       ", q_out);

  // Decode a second sentence through the same decoder: the KV plan is
  // already consolidated, so every step is allocation-free.
  const TokenSeq src2 = bundle.task.sample(demo_rng).source;
  decode_greedy(q_dec, src2, bundle.cfg.max_len - 1);
  std::printf("  kv bytes/token:  fp32 %zu | af<8> %zu\n",
              fp32_dec.kv_bytes_per_step(), q_dec.kv_bytes_per_step());
  std::printf("  steady-state heap allocs per step: %lld\n",
              static_cast<long long>(q_dec.last_step_heap_allocs()));
  return 0;
}
