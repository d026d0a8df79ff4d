// Incremental-decoding harness for the KV-cache runtime (DESIGN.md §15).
//
// Two paths decode the same trained Transformer:
//   full        — the pre-KV-cache loop: a teacher-forced forward over the
//                 whole growing prefix at every step (O(T^2) attention
//                 work per sequence).
//   incremental — TransformerDecoder: one [B, D] step per token against
//                 arena-planned KV caches (fp32 or packed quantized).
// With fp32 KV the emitted token stream must be bit-identical to the full
// recompute (the harness exits nonzero otherwise), and quantized decoding
// must run with zero steady-state heap allocations per token. The
// incremental-vs-full speedup at full sequence length goes into the
// artifact, where .github/scripts/bench_gate.py holds it to its 3x floor.
//
// Modes:
//   bench_decode            — trains the shared baseline, times both paths
//                             (and incremental over an 8-bit AdaptivFloat
//                             KV cache), sweeps KV widths {fp32, 8, 6, 4}
//                             across all five formats for BLEU +
//                             bytes/token, writes BENCH_decode.json.
//   bench_decode --verify   — tiny untrained model under the *current*
//                             AF_THREADS: prints full/incremental/quantized
//                             token-stream digests plus a digest of every
//                             fp32-KV incremental step's logits (CI diffs
//                             across thread counts and against
//                             tests/golden/bench_decode.scalar.verify) and
//                             enforces bit-equality plus the zero-alloc
//                             contract. Exits nonzero on any violation.
#include <cstdio>
#include <string>
#include <vector>

#include "src/data/metrics.hpp"
#include "src/models/trainer.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/hash.hpp"
#include "src/util/table.hpp"

#include "bench_common.hpp"
#include "bench_util.hpp"

namespace af {
namespace {

using bench::time_ms;

constexpr int kReps = 3;
constexpr std::int64_t kPad = TranslationTask::kPad;
constexpr std::int64_t kBos = TranslationTask::kBos;
constexpr std::int64_t kEos = TranslationTask::kEos;

std::uint64_t digest_tokens(const std::vector<TokenSeq>& seqs) {
  std::uint64_t h = kFnvOffset;
  for (const TokenSeq& s : seqs) {
    h = fnv1a64(s.data(), s.size() * sizeof(std::int64_t), h);
    const std::uint64_t sep = s.size();
    h = fnv1a64(&sep, sizeof(sep), h);
  }
  return h;
}

/// The pre-KV-cache greedy loop, kept verbatim as the reference: every step
/// re-runs the teacher-forced forward over the whole decoded prefix.
TokenSeq full_recompute_greedy(TransformerMT& model, const TokenSeq& src,
                               std::int64_t eos, std::int64_t max_steps) {
  const std::int64_t vocab = model.config().tgt_vocab;
  std::vector<TokenSeq> src_b = {src};
  std::vector<TokenSeq> tgt_b = {{kBos}};
  TokenSeq out;
  for (std::int64_t step = 0; step < max_steps; ++step) {
    Tensor logits = model.forward(src_b, tgt_b, kPad);  // [T, V]
    model.clear_caches();
    const std::int64_t t_len =
        static_cast<std::int64_t>(tgt_b[0].size());
    const float* row = logits.data() + (t_len - 1) * vocab;
    std::int64_t next = 0;
    for (std::int64_t v = 1; v < vocab; ++v) {
      if (row[v] > row[next]) next = v;
    }
    if (next == eos) break;
    out.push_back(next);
    tgt_b[0].push_back(next);
    if (t_len + 1 >= model.config().max_len) break;
  }
  return out;
}

/// Greedy decode through a (reusable) TransformerDecoder — the same loop
/// TransformerMT::greedy_decode runs, but against a caller-owned decoder so
/// one KV plan serves a whole evaluation sweep. A non-null `logits_digest`
/// folds every step's logits bytes into the running FNV-1a digest, which
/// pins the step bits that an argmax alone could hide.
TokenSeq incremental_greedy(TransformerDecoder& dec, const TokenSeq& src,
                            std::int64_t eos, std::int64_t max_steps,
                            std::uint64_t* logits_digest = nullptr) {
  dec.begin(src, kPad);
  TokenSeq out;
  std::vector<std::int64_t> last = {kBos};
  std::int64_t tgt_len = 1;
  for (std::int64_t step = 0; step < max_steps; ++step) {
    const Tensor& logits = dec.step(last);
    if (logits_digest != nullptr) {
      const std::size_t bytes =
          static_cast<std::size_t>(logits.numel()) * sizeof(float);
      *logits_digest = fnv1a64(logits.data(), bytes, *logits_digest);
    }
    const std::int64_t next = argmax_rows(logits)[0];
    if (next == eos) break;
    out.push_back(next);
    last[0] = next;
    // Same prefix-length bound as the full-recompute loop: the session's
    // plan defaults to the model's max_len.
    if (++tgt_len >= dec.session().max_steps()) break;
  }
  return out;
}

std::vector<TokenSeq> eval_sources(const TranslationTask& task, int n,
                                   std::vector<TokenSeq>* refs) {
  Pcg32 rng(bench::kSeed, 0x7119);
  std::vector<TokenSeq> srcs;
  for (int i = 0; i < n; ++i) {
    auto pair = task.sample(rng);
    srcs.push_back(pair.source);
    if (refs != nullptr) refs->push_back(pair.target);
  }
  return srcs;
}

// ----- --verify --------------------------------------------------------------

int run_verify_only() {
  // Tiny model so the mode stays ctest-fast; determinism and bit-equality
  // do not depend on training.
  TransformerConfig cfg;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ffn = 64;
  cfg.enc_layers = 1;
  cfg.dec_layers = 1;
  TransformerBundle b(bench::kSeed, cfg);

  std::vector<TokenSeq> srcs = eval_sources(b.task, 6, nullptr);
  bool ok = true;

  // fp32 KV: the incremental path must reproduce the full recompute
  // token-for-token (eos = -1 forces full-length streams so the equality
  // covers every position, ~150 steps total across the sources).
  std::vector<TokenSeq> full, inc;
  std::uint64_t logits_dig = kFnvOffset;
  for (const TokenSeq& src : srcs) {
    full.push_back(full_recompute_greedy(b.model, src, /*eos=*/-1,
                                         cfg.max_len));
  }
  {
    TransformerDecoder dec(b.model);
    for (const TokenSeq& src : srcs) {
      inc.push_back(incremental_greedy(dec, src, /*eos=*/-1, cfg.max_len,
                                       &logits_dig));
    }
  }
  const std::uint64_t full_dig = digest_tokens(full);
  const std::uint64_t inc_dig = digest_tokens(inc);
  ok = ok && full_dig == inc_dig;
  std::printf("decode fp32       full %s incremental %s\n",
              digest_hex(full_dig).c_str(), digest_hex(inc_dig).c_str());
  // Every fp32-KV incremental step's logits: CI diffs this line against a
  // golden recorded under AF_BACKEND=scalar, so a 1-ulp drift in any
  // projection shows even when the argmax tokens do not move.
  std::printf("decode fp32       logits %s\n", digest_hex(logits_dig).c_str());

  // Quantized KV across every format at 8 bits: digests must be stable
  // across AF_THREADS (CI diffs this output), and steady-state decoding —
  // second sequence onward — must not touch the heap.
  calibrate_transformer_kv(b, 4, bench::kSeed + 11);
  for (FormatKind kind : all_format_kinds()) {
    TransformerDecoder::Options opts;
    opts.kv.quantized = true;
    opts.kv.kind = kind;
    opts.kv.bits = 8;
    TransformerDecoder dec(b.model, opts);
    std::vector<TokenSeq> streams;
    std::int64_t steady_allocs = 0;
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      dec.begin(srcs[i], kPad);
      TokenSeq toks;
      std::vector<std::int64_t> last = {kBos};
      for (std::int64_t step = 0; step + 1 < cfg.max_len; ++step) {
        const Tensor& logits = dec.step(last);
        last[0] = argmax_rows(logits)[0];
        toks.push_back(last[0]);
        if (i > 0) steady_allocs += dec.session().last_step_heap_allocs();
      }
      streams.push_back(std::move(toks));
    }
    const std::uint64_t dig = digest_tokens(streams);
    const bool clean = steady_allocs == 0;
    ok = ok && clean;
    std::printf("decode %-11s digest %s steady_allocs %lld\n",
                format_kind_name(kind).c_str(), digest_hex(dig).c_str(),
                static_cast<long long>(steady_allocs));
  }

  if (!ok) {
    std::fprintf(stderr,
                 "bench_decode: incremental decode diverged from the full "
                 "recompute or allocated in steady state\n");
    return 1;
  }
  return 0;
}

// ----- full bench ------------------------------------------------------------

int run_bench(const char* json_path) {
  TransformerBundle b = bench::trained_transformer();
  const TransformerConfig& cfg = b.cfg;
  calibrate_transformer_kv(b, 16, bench::kSeed + 7);

  std::vector<TokenSeq> refs;
  std::vector<TokenSeq> srcs = eval_sources(b.task, bench::kEvalSentences,
                                            &refs);

  // --- wall-clock: full recompute vs incremental at full length (T=48) ---
  // eos = -1 so neither path stops early: both decode max_len-1 = 47 tokens
  // per sequence and the speedup measures the asymptotic O(T^2) vs O(T) gap.
  const TokenSeq timing_src = srcs.front();
  const std::int64_t steps_per_seq = cfg.max_len - 1;
  std::vector<TokenSeq> full_stream, inc_stream;
  const double full_ms = time_ms(
      [&] {
        full_stream.assign(
            1, full_recompute_greedy(b.model, timing_src, -1, cfg.max_len));
      },
      kReps);
  TransformerDecoder timing_dec(b.model);
  const double inc_ms = time_ms(
      [&] {
        inc_stream.assign(
            1, incremental_greedy(timing_dec, timing_src, -1, cfg.max_len));
      },
      kReps);
  // The same stream over an 8-bit AdaptivFloat KV cache: the per-step KV
  // decode cost quantized attention pays on top of the fp32-KV path.
  TransformerDecoder::Options af8_opts;
  af8_opts.kv.quantized = true;
  af8_opts.kv.kind = FormatKind::kAdaptivFloat;
  af8_opts.kv.bits = 8;
  TransformerDecoder af8_dec(b.model, af8_opts);
  const double af8_ms = time_ms(
      [&] { incremental_greedy(af8_dec, timing_src, -1, cfg.max_len); },
      kReps);
  const bool streams_equal = full_stream == inc_stream;
  const double speedup = full_ms / inc_ms;
  const double full_tps = 1000.0 * static_cast<double>(steps_per_seq) / full_ms;
  const double inc_tps = 1000.0 * static_cast<double>(steps_per_seq) / inc_ms;
  const double af8_tps = 1000.0 * static_cast<double>(steps_per_seq) / af8_ms;

  TextTable timing("bench_decode: greedy decode at T=" +
                   std::to_string(cfg.max_len) + " (one sequence)");
  timing.set_header({"Path", "ms/seq", "tokens/s", "Bit-equal"});
  timing.add_row({"full recompute", fmt_fixed(full_ms, 2),
                  fmt_fixed(full_tps, 1), "-"});
  timing.add_row({"incremental fp32", fmt_fixed(inc_ms, 2),
                  fmt_fixed(inc_tps, 1), streams_equal ? "yes" : "NO"});
  timing.add_row({"incremental af8 KV", fmt_fixed(af8_ms, 2),
                  fmt_fixed(af8_tps, 1), "-"});
  timing.print();
  std::printf("speedup %.2fx\n\n", speedup);

  // --- BLEU + bytes/token across KV widths and formats ---
  struct Cell {
    std::string format;
    int bits;  // 0 = fp32
    double bleu;
    std::size_t bytes_per_token;
  };
  std::vector<Cell> cells;

  auto bleu_with = [&](TransformerDecoder& dec) {
    std::vector<TokenSeq> hyps;
    for (const TokenSeq& src : srcs) {
      hyps.push_back(incremental_greedy(
          dec, src, kEos, static_cast<std::int64_t>(src.size()) + 4));
    }
    return bleu_score(refs, hyps);
  };

  {
    TransformerDecoder dec(b.model);
    cells.push_back({"fp32", 0, bleu_with(dec), dec.kv_bytes_per_step()});
  }
  for (FormatKind kind : all_format_kinds()) {
    for (int bits : {8, 6, 4}) {
      TransformerDecoder::Options opts;
      opts.kv.quantized = true;
      opts.kv.kind = kind;
      opts.kv.bits = bits;
      TransformerDecoder dec(b.model, opts);
      cells.push_back({format_kind_name(kind), bits, bleu_with(dec),
                       dec.kv_bytes_per_step()});
    }
  }

  const double fp32_bleu = cells.front().bleu;
  TextTable table("bench_decode: BLEU vs KV-cache bit width (fp32 baseline " +
                  fmt_fixed(fp32_bleu, 2) + ")");
  table.set_header({"KV format", "Bits", "BLEU", "dBLEU", "KV bytes/token"});
  for (const Cell& c : cells) {
    table.add_row({c.format, c.bits == 0 ? "fp32" : std::to_string(c.bits),
                   fmt_fixed(c.bleu, 2), fmt_fixed(c.bleu - fp32_bleu, 2),
                   std::to_string(c.bytes_per_token)});
  }
  table.print();

  // --- JSON ---
  std::string json = "  \"bench\": \"bench_decode\",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"timing\": {\"seq_len\": %lld, \"full_ms\": %.3f, "
                "\"incremental_ms\": %.3f, \"speedup\": %.3f, "
                "\"full_tokens_per_sec\": %.1f, "
                "\"incremental_tokens_per_sec\": %.1f, "
                "\"bit_equal\": %s, "
                "\"incremental_af8_kv_ms\": %.3f, "
                "\"incremental_af8_kv_tokens_per_sec\": %.1f},\n",
                static_cast<long long>(cfg.max_len), full_ms, inc_ms, speedup,
                full_tps, inc_tps, streams_equal ? "true" : "false", af8_ms,
                af8_tps);
  json += buf;
  json += "  \"bleu_vs_kv_bits\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"format\": \"%s\", \"bits\": %d, \"bleu\": %.3f, "
                  "\"kv_bytes_per_token\": %lld}%s\n",
                  c.format.c_str(), c.bits, c.bleu,
                  static_cast<long long>(c.bytes_per_token),
                  i + 1 < cells.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n";
  std::printf("\n");
  const bool wrote = bench::write_artifact(json_path, json);

  if (!streams_equal) {
    std::fprintf(stderr,
                 "bench_decode: INCREMENTAL STREAM DIVERGED from the full "
                 "recompute\n");
    return 1;
  }
  return wrote ? 0 : 1;
}

}  // namespace
}  // namespace af

int main(int argc, char** argv) {
  return af::bench::bench_main(argc, argv, "BENCH_decode.json",
                               af::run_verify_only, af::run_bench);
}
