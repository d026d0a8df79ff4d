// Incremental-decoding harness for the KV-cache runtime (DESIGN.md §15).
//
// Two paths decode the same trained Transformer:
//   full        — the pre-KV-cache loop: a teacher-forced forward over the
//                 whole growing prefix at every step (O(T^2) attention
//                 work per sequence).
//   incremental — TransformerDecoder: one [1, D] step per token against
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
//                             KV cache), times a step per KV format at
//                             T in {16, 48, 128} (each cell the minimum
//                             over 5 interleaved passes of the table),
//                             times a stacked step of S in {1, 2, 4, 8,
//                             16} streams per token (fp32 and AF8 KV),
//                             times the step's GELU
//                             map and AF8 KV-row encode per backend
//                             (ns/element), sweeps KV widths
//                             {fp32, 8, 6, 4}
//                             across all five formats for BLEU +
//                             bytes/token, writes BENCH_decode.json.
//   bench_decode --verify   — tiny untrained model under the *current*
//                             AF_THREADS: prints full/incremental/quantized
//                             token-stream digests plus a digest of every
//                             incremental step's logits, fp32 and
//                             quantized KV (CI diffs across thread counts
//                             and against
//                             tests/golden/bench_decode.scalar.verify) and
//                             enforces bit-equality plus the zero-alloc
//                             contract. Exits nonzero on any violation.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/data/metrics.hpp"
#include "src/models/trainer.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/kv_cache.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/hash.hpp"
#include "src/util/table.hpp"

#include "bench_common.hpp"
#include "bench_util.hpp"

namespace af {
namespace {

using bench::time_ms;

constexpr int kReps = 3;
// Passes over a whole timing table; each cell keeps its minimum.
constexpr int kPasses = 5;
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

  // Quantized KV across every format at 8 bits, plus AdaptivFloat at 6 and
  // 4 bits: token and logits digests must be stable across AF_THREADS and
  // backends (CI diffs this output against the scalar golden), and
  // steady-state decoding — second sequence onward — must not touch the
  // heap. The logits line pins every step's attend over packed codes.
  calibrate_transformer_kv(b, 4, bench::kSeed + 11);
  std::vector<KvCacheFormat> kv_formats;
  for (FormatKind kind : all_format_kinds()) {
    kv_formats.push_back({true, kind, 8});
  }
  kv_formats.push_back({true, FormatKind::kAdaptivFloat, 6});
  kv_formats.push_back({true, FormatKind::kAdaptivFloat, 4});
  for (const KvCacheFormat& kv : kv_formats) {
    TransformerDecoder::Options opts;
    opts.kv = kv;
    TransformerDecoder dec(b.model, opts);
    std::vector<TokenSeq> streams;
    std::int64_t steady_allocs = 0;
    std::uint64_t kv_logits_dig = kFnvOffset;
    for (std::size_t i = 0; i < srcs.size(); ++i) {
      dec.begin(srcs[i], kPad);
      TokenSeq toks;
      std::vector<std::int64_t> last = {kBos};
      for (std::int64_t step = 0; step + 1 < cfg.max_len; ++step) {
        const Tensor& logits = dec.step(last);
        kv_logits_dig = fnv1a64(
            logits.data(),
            static_cast<std::size_t>(logits.numel()) * sizeof(float),
            kv_logits_dig);
        last[0] = argmax_rows(logits)[0];
        toks.push_back(last[0]);
        if (i > 0) steady_allocs += dec.session().last_step_heap_allocs();
      }
      streams.push_back(std::move(toks));
    }
    const std::uint64_t dig = digest_tokens(streams);
    const bool clean = steady_allocs == 0;
    ok = ok && clean;
    // 8-bit rows keep their original label; other widths name the width.
    std::string label = format_kind_name(kv.kind);
    if (kv.bits != 8) {
      label += '/';
      label += std::to_string(kv.bits);
    }
    std::printf("decode %-11s digest %s steady_allocs %lld\n", label.c_str(),
                digest_hex(dig).c_str(),
                static_cast<long long>(steady_allocs));
    std::printf("decode %-11s logits %s\n", label.c_str(),
                digest_hex(kv_logits_dig).c_str());
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

  // --- per-token step cost vs decoded length, fp32 vs 8-bit KV ---
  // An untrained seeded model planned for 128 positions (a step's cost does
  // not depend on the weights' values). A cell is one greedy stream of
  // T - 1 steps from one source; begin() (encoder and cross prefill) stays
  // outside the clock. One best-of-reps run cannot resolve a 10% change on
  // a shared VM, so each cell is the minimum over kPasses passes of the
  // whole table, each pass starting the format list one further along.
  struct LenCell {
    std::string kv;
    std::int64_t t;
    double us_per_token;
  };
  std::vector<LenCell> len_cells;
  TransformerConfig long_cfg = cfg;
  long_cfg.max_len = 128;
  TransformerBundle long_b(bench::kSeed, long_cfg);
  calibrate_transformer_kv(long_b, 4, bench::kSeed + 11);
  {
    std::vector<std::pair<std::string, KvCacheFormat>> kv_list = {
        {"fp32", KvCacheFormat{}}};
    for (FormatKind kind : all_format_kinds()) {
      kv_list.push_back({format_kind_name(kind) + "/8", {true, kind, 8}});
    }
    const std::vector<std::int64_t> lengths = {16, 48, 128};
    std::vector<std::unique_ptr<TransformerDecoder>> decs;
    for (const std::int64_t t : lengths) {
      for (const auto& [name, kv] : kv_list) {
        TransformerDecoder::Options o;
        o.kv = kv;
        o.max_steps = t;
        decs.push_back(std::make_unique<TransformerDecoder>(long_b.model, o));
        len_cells.push_back({name, t, 1e300});
      }
    }
    const std::size_t n_kv = kv_list.size();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t ti = 0; ti < lengths.size(); ++ti) {
        for (std::size_t j = 0; j < n_kv; ++j) {
          const std::size_t cell =
              ti * n_kv + (j + static_cast<std::size_t>(pass)) % n_kv;
          TransformerDecoder& dec = *decs[cell];
          const std::int64_t t = lengths[ti];
          dec.begin(timing_src, kPad);
          std::vector<std::int64_t> last = {kBos};
          const double ms = time_ms(
              [&] {
                for (std::int64_t step = 0; step + 1 < t; ++step) {
                  last[0] = argmax_rows(dec.step(last))[0];
                }
              },
              1);
          len_cells[cell].us_per_token =
              std::min(len_cells[cell].us_per_token,
                       1000.0 * ms / static_cast<double>(t - 1));
        }
      }
    }
  }
  TextTable len_table(
      "bench_decode: step cost vs decoded length (untrained model, "
      "max_len 128)");
  len_table.set_header({"KV", "T", "us/token", "vs fp32"});
  for (const LenCell& c : len_cells) {
    double fp32_us = c.us_per_token;
    for (const LenCell& f : len_cells) {
      if (f.kv == "fp32" && f.t == c.t) fp32_us = f.us_per_token;
    }
    len_table.add_row({c.kv, std::to_string(c.t), fmt_fixed(c.us_per_token, 2),
                       fmt_fixed(c.us_per_token / fp32_us, 2) + "x"});
  }
  len_table.print();
  std::printf("\n");

  // --- per-token cost of a stacked step vs batch width ---
  // S streams on S sources step together through
  // TransformerDecoder::step_batch (what a serving worker runs when S
  // streams' steps are queued), T = 48 on the 128-position model; µs per
  // token is a whole stream's time over S * (T - 1) tokens, minimum over
  // kPasses interleaved passes. S = 1 is the solo step.
  struct StreamsCell {
    std::string kv;
    std::int64_t streams;
    double us_per_token;
  };
  std::vector<StreamsCell> streams_cells;
  {
    const std::vector<std::pair<std::string, KvCacheFormat>> kv_list = {
        {"fp32", KvCacheFormat{}},
        {"AdaptivFloat/8", {true, FormatKind::kAdaptivFloat, 8}}};
    const std::vector<std::int64_t> widths = {1, 2, 4, 8, 16};
    constexpr std::int64_t kStreamT = 48;
    std::vector<std::vector<std::unique_ptr<TransformerDecoder>>> groups;
    for (const std::int64_t s_width : widths) {
      for (const auto& [name, kv] : kv_list) {
        TransformerDecoder::Options o;
        o.kv = kv;
        o.max_steps = kStreamT;
        groups.emplace_back();
        for (std::int64_t r = 0; r < s_width; ++r) {
          groups.back().push_back(
              std::make_unique<TransformerDecoder>(long_b.model, o));
        }
        streams_cells.push_back({name, s_width, 1e300});
      }
    }
    Arena scratch;
    const std::size_t n_cells = streams_cells.size();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t j = 0; j < n_cells; ++j) {
        const std::size_t cell = (j + static_cast<std::size_t>(pass)) % n_cells;
        std::vector<TransformerDecoder*> decs;
        for (std::size_t r = 0; r < groups[cell].size(); ++r) {
          groups[cell][r]->begin(srcs[r % srcs.size()], kPad);
          decs.push_back(groups[cell][r].get());
        }
        std::vector<std::int64_t> ids(decs.size(), kBos);
        const double ms = time_ms(
            [&] {
              for (std::int64_t step = 0; step + 1 < kStreamT; ++step) {
                ids = argmax_rows(
                    TransformerDecoder::step_batch(decs, ids, scratch));
              }
            },
            1);
        streams_cells[cell].us_per_token = std::min(
            streams_cells[cell].us_per_token,
            1000.0 * ms /
                static_cast<double>(decs.size() * (kStreamT - 1)));
      }
    }
  }
  TextTable streams_table(
      "bench_decode: stacked step cost vs streams per step (T=48, "
      "max_len 128)");
  streams_table.set_header({"KV", "Streams", "us/token", "vs 1 stream"});
  for (const StreamsCell& c : streams_cells) {
    double solo_us = c.us_per_token;
    for (const StreamsCell& f : streams_cells) {
      if (f.kv == c.kv && f.streams == 1) solo_us = f.us_per_token;
    }
    streams_table.add_row({c.kv, std::to_string(c.streams),
                           fmt_fixed(c.us_per_token, 2),
                           fmt_fixed(solo_us / c.us_per_token, 2) + "x"});
  }
  streams_table.print();
  std::printf("\n");

  // --- decode-step elementwise work, per backend ---
  // ns per element of the two elementwise passes a step runs outside the
  // GEMMs: the FFN's GELU (a [1, d_ffn] map, tanh through the backend's
  // tanh_map) and the AdaptivFloat/8 KV append (one [1, d_model] K and V
  // row encoded through the backend's encode entry, then packed).
  struct ElemCell {
    std::string backend;
    double gelu_ns;
    double kv_encode_ns;
  };
  std::vector<ElemCell> elem_cells;
  {
    constexpr int kIters = 20000;
    Pcg32 rng(bench::kSeed, 0xe1e);
    const Tensor ffn_row = Tensor::randn({1, cfg.d_ffn}, rng);
    const Tensor kv_row = Tensor::randn({1, cfg.d_model}, rng);
    KvQuantConfig af8;
    af8.k_codec = make_codec(FormatKind::kAdaptivFloat, 8, 3.0f);
    af8.v_codec = make_codec(FormatKind::kAdaptivFloat, 8, 3.0f);
    std::vector<const KernelBackend*> backends = {&scalar_backend()};
    if (const KernelBackend* avx2 = avx2_backend()) backends.push_back(avx2);
    for (const KernelBackend* be : backends) {
      GELU gelu;
      ExecutionContext ctx{.backend = be};
      const double gelu_ms = time_ms(
          [&] {
            for (int i = 0; i < kIters; ++i) (void)gelu.forward(ffn_row, ctx);
          },
          kReps);
      KvState kv;
      kv.init(256, cfg.d_model, af8);
      const double kv_ms = time_ms(
          [&] {
            for (int i = 0; i < kIters; ++i) {
              if (kv.len() == kv.capacity()) kv.reset();
              kv.append(kv_row, kv_row, *be);
            }
          },
          kReps);
      elem_cells.push_back(
          {be->name,
           1e6 * gelu_ms / (static_cast<double>(kIters) * cfg.d_ffn),
           1e6 * kv_ms / (static_cast<double>(kIters) * 2 * cfg.d_model)});
    }
  }
  TextTable elem_table(
      "bench_decode: decode-step elementwise passes (ns/element)");
  elem_table.set_header({"Backend", "GELU map", "AF8 KV-row encode"});
  for (const ElemCell& c : elem_cells) {
    elem_table.add_row(
        {c.backend, fmt_fixed(c.gelu_ns, 2), fmt_fixed(c.kv_encode_ns, 2)});
  }
  elem_table.print();
  std::printf("\n");

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
  json += "  \"step_us_vs_len\": [\n";
  for (std::size_t i = 0; i < len_cells.size(); ++i) {
    const LenCell& c = len_cells[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"kv\": \"%s\", \"t\": %lld, "
                  "\"us_per_token\": %.3f}%s\n",
                  c.kv.c_str(), static_cast<long long>(c.t), c.us_per_token,
                  i + 1 < len_cells.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"step_us_vs_streams\": [\n";
  for (std::size_t i = 0; i < streams_cells.size(); ++i) {
    const StreamsCell& c = streams_cells[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"kv\": \"%s\", \"streams\": %lld, "
                  "\"us_per_token\": %.3f}%s\n",
                  c.kv.c_str(), static_cast<long long>(c.streams),
                  c.us_per_token, i + 1 < streams_cells.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"elementwise_ns_per_element\": [\n";
  for (std::size_t i = 0; i < elem_cells.size(); ++i) {
    const ElemCell& c = elem_cells[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"backend\": \"%s\", \"gelu_map\": %.3f, "
                  "\"af8_kv_row_encode\": %.3f}%s\n",
                  c.backend.c_str(), c.gelu_ns, c.kv_encode_ns,
                  i + 1 < elem_cells.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
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
