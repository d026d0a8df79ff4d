// Resilience sweep: model accuracy under weight-memory bit errors, for all
// five formats, with and without storage protection + hardened decode.
//
// The paper's Section 4 argues AdaptivFloat degrades gracefully under
// quantization because every code decodes into the calibrated
// [-value_max, value_max] window. This harness extends that argument to
// soft errors: a bit flip in an AdaptivFloat weight word is bounded by
// 2*value_max, while an IEEE-style exponent flip can scale a weight by
// 2^8 and a posit sign-region flip can jump to maxpos. We corrupt the
// packed weight payloads of a trained MLP and LSTM at increasing bit-error
// rates and report Top-1 accuracy per format:
//   * "raw":       unprotected payload, raw (hardware-faithful) decode;
//   * "protected": per-word parity + per-block checksum with detect-and-
//                  zero scrub, then range-hardened decode.
// A final table injects faults into the accelerator PE accumulators to
// exercise the datapath (not storage) fault model end-to-end.
//
// The compute-fault arm then targets the multiply itself: upsets land in
// the GEMM output registers while the product is in flight, and the ABFT
// checksums plus the calibrated activation guard fight back (unprotected
// vs abft vs abft+guard), followed by the guarded 4-PE LSTM accelerator
// run under the same upset model.
//
// Flags: --seed N, --trials N (defaults 2020 / 3 keep the output
// byte-identical to the golden capture).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/core/bitpack.hpp"
#include "src/data/metrics.hpp"
#include "src/hw/accelerator.hpp"
#include "src/models/resilience_eval.hpp"
#include "src/numerics/registry.hpp"
#include "src/resilience/abft.hpp"
#include "src/resilience/codec.hpp"
#include "src/resilience/fault_injector.hpp"
#include "src/resilience/guard.hpp"
#include "src/resilience/protection.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/table.hpp"

namespace af {
namespace {

// CLI-overridable; the defaults reproduce the golden output byte for byte.
std::uint64_t g_seed = 2020;
int g_trials = 3;
const std::vector<double> kRates = {1e-4, 1e-3, 3e-3, 1e-2};
const std::vector<int> kBitWidths = {8, 6, 4};

// Deterministic per-cell seed so every (format, rate, trial, layer) cell
// replays exactly and formats face comparable fault streams.
std::uint64_t cell_seed(std::uint64_t model_tag, int bits, double rate,
                        int trial) {
  std::uint64_t h = g_seed ^ model_tag;
  h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(bits);
  h = h * 0x9e3779b97f4a7c15ULL +
      static_cast<std::uint64_t>(rate * 1e9 + 0.5);
  h = h * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(trial);
  return h;
}

// Weight transform implementing one corruption pipeline cell: quantize the
// layer to `kind`/`bits`, pack, flip bits at `rate`, optionally scrub, then
// decode (raw or hardened). One injector per evaluation, shared across
// layers so the Bernoulli stream spans the whole weight store.
struct CorruptionCell {
  FormatKind kind;
  int bits;
  bool protect;  // parity+checksum scrub and hardened decode
  FaultInjector* injector;

  Tensor operator()(const Tensor& w, int /*layer*/) const {
    auto codec = make_codec(kind, bits, w.max_abs());
    std::vector<std::uint16_t> codes = codec->encode_tensor(w);
    if (protect) {
      ProtectedCodes pc(codes, bits, ProtectionMode::kParityChecksum);
      injector->corrupt_bytes(pc.payload());
      pc.scrub();
      return codec->decode_tensor(pc.codes(), w.shape(), /*hardened=*/true);
    }
    std::vector<std::uint8_t> payload = pack_codes(codes, bits);
    injector->corrupt_bytes(payload);
    codes = unpack_codes(payload, bits, codes.size(), StrayBits::kMask);
    return codec->decode_tensor(codes, w.shape(), /*hardened=*/false);
  }
};

using EvalFn = double (*)(const CorruptionCell&, std::uint64_t, int);

double sweep_cell(FormatKind kind, int bits, double rate, bool protect,
                  std::uint64_t model_tag, EvalFn eval) {
  // Trials are independent (each owns its injector, seeded per cell+trial)
  // and their accuracies sum in trial order, so the mean is bit-identical
  // to the serial loop for any AF_THREADS value.
  return bench::mean_over_trials(g_trials, [&](int trial) {
    FaultConfig cfg;
    cfg.bit_error_rate = rate;
    cfg.seed = cell_seed(model_tag, bits, rate, trial);
    FaultInjector injector(cfg);
    CorruptionCell cell{kind, bits, protect, &injector};
    return eval(cell, model_tag, trial);
  });
}

void run_model_sweep(const char* model_name, std::uint64_t model_tag,
                     double fp32_baseline, EvalFn eval) {
  for (int bits : kBitWidths) {
    TextTable table("Resilience: " + std::string(model_name) + " Top-1 (%) vs "
                    "weight bit-error rate, " + std::to_string(bits) +
                    "-bit weights (FP32 baseline " +
                    fmt_fixed(fp32_baseline, 1) + "%, mean of " +
                    std::to_string(g_trials) + " trials)");
    std::vector<std::string> header = {"Format", "Mode", "BER=0"};
    for (double r : kRates) header.push_back("BER=" + fmt_sig(r, 1));
    table.set_header(std::move(header));

    for (FormatKind kind : all_format_kinds()) {
      for (bool protect : {false, true}) {
        std::vector<std::string> row = {format_kind_name(kind),
                                        protect ? "protected" : "raw"};
        row.push_back(fmt_fixed(
            sweep_cell(kind, bits, 0.0, protect, model_tag, eval), 1));
        for (double rate : kRates) {
          row.push_back(fmt_fixed(
              sweep_cell(kind, bits, rate, protect, model_tag, eval), 1));
        }
        table.add_row(std::move(row));
      }
    }
    table.print();
    std::printf("\n");
  }
}

// Globals keep the trained models out of the per-cell closures (EvalFn is a
// plain function pointer so CorruptionCell stays copyable/cheap).
const MlpEvalModel* g_mlp = nullptr;
const LstmEvalModel* g_lstm = nullptr;

double eval_mlp_cell(const CorruptionCell& cell, std::uint64_t, int) {
  return eval_mlp_top1(*g_mlp, cell);
}

double eval_lstm_cell(const CorruptionCell& cell, std::uint64_t, int) {
  return eval_lstm_top1(*g_lstm, cell);
}

// ----- PE accumulator fault demo --------------------------------------------

void run_accumulator_demo() {
  TextTable table(
      "Resilience: accelerator PE accumulator upsets (HFINT, 8-bit), MLP "
      "run_fc — prediction flips vs fault-free run over " +
      std::to_string(16) + " inputs");
  table.set_header({"Acc BER", "Pred flips (%)", "Bits flipped"});

  AcceleratorConfig cfg;
  cfg.kind = PeKind::kHfint;
  cfg.op_bits = 8;
  std::vector<FcLayer> layers(2);
  layers[0] = {g_mlp->weights[0], g_mlp->biases[0], /*relu=*/true};
  layers[1] = {g_mlp->weights[1], g_mlp->biases[1], /*relu=*/false};

  const int kInputs = 16;
  Accelerator clean_acc(cfg);
  std::vector<std::int64_t> clean_preds;
  for (int i = 0; i < kInputs; ++i) {
    // Scale inputs into the |x| <= ~2 operating range of the datapath.
    Tensor x = g_mlp->eval_set.inputs[static_cast<std::size_t>(i)];
    const float scale = 2.0f / std::max(1.0f, x.max_abs());
    for (std::int64_t j = 0; j < x.numel(); ++j) x[j] *= scale;
    AcceleratorRun run = clean_acc.run_fc(layers, x);
    std::int64_t best = 0;
    for (std::size_t c = 1; c < run.final_h.size(); ++c) {
      if (run.final_h[c] > run.final_h[static_cast<std::size_t>(best)]) {
        best = static_cast<std::int64_t>(c);
      }
    }
    clean_preds.push_back(best);
  }

  for (double rate : {0.0, 1e-6, 1e-5, 1e-4, 1e-3}) {
    FaultConfig fcfg;
    fcfg.bit_error_rate = rate;
    fcfg.seed = g_seed ^ 0xacc;
    FaultInjector injector(fcfg);
    Accelerator acc(cfg);
    acc.set_fault_hook(&injector);
    std::vector<std::int64_t> preds;
    for (int i = 0; i < kInputs; ++i) {
      Tensor x = g_mlp->eval_set.inputs[static_cast<std::size_t>(i)];
      const float scale = 2.0f / std::max(1.0f, x.max_abs());
      for (std::int64_t j = 0; j < x.numel(); ++j) x[j] *= scale;
      AcceleratorRun run = acc.run_fc(layers, x);
      std::int64_t best = 0;
      for (std::size_t c = 1; c < run.final_h.size(); ++c) {
        if (run.final_h[c] > run.final_h[static_cast<std::size_t>(best)]) {
          best = static_cast<std::int64_t>(c);
        }
      }
      preds.push_back(best);
    }
    table.add_row({fmt_sig(rate, 1),
                   fmt_fixed(prediction_flip_rate(clean_preds, preds), 1),
                   std::to_string(injector.stats().bits_flipped)});
  }
  table.print();
  std::printf("\n");
}

// ----- live-MAC compute-fault sweep ------------------------------------------

// Protection arms for faults injected into the GEMM output registers while
// the multiply is in flight:
//   none:       ABFT in observe-only mode — faults pass through unchanged;
//   abft:       checksum verify + correct -> recompute -> degrade ladder;
//   abft+guard: abft plus the activation-range/NaN guard calibrated from
//               the format's value_range (Algorithm 1 bound).
enum class ComputeArm { kNone, kAbft, kAbftGuard };

const char* compute_arm_name(ComputeArm arm) {
  switch (arm) {
    case ComputeArm::kNone: return "none";
    case ComputeArm::kAbft: return "abft";
    case ComputeArm::kAbftGuard: return "abft+guard";
  }
  return "?";
}

const std::vector<double> kComputeRates = {1e-6, 1e-5, 1e-4};

// The eval set as one activation matrix [images, pixels].
Tensor eval_matrix() {
  const auto batch = static_cast<std::int64_t>(g_mlp->eval_set.inputs.size());
  const std::int64_t in_dim = g_mlp->weights.front().dim(1);
  Tensor x({batch, in_dim});
  for (std::int64_t i = 0; i < batch; ++i) {
    const Tensor& input = g_mlp->eval_set.inputs[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < in_dim; ++j) x[i * in_dim + j] = input[j];
  }
  return x;
}

// MLP Top-1 with every layer product through abft_matmul under the cell's
// upset stream, the whole eval set batched into one GEMM per layer.
double compute_fault_cell(FormatKind kind, int bits, double rate,
                          ComputeArm arm, int trial, AbftReport* totals) {
  FaultConfig fcfg;
  fcfg.bit_error_rate = rate;
  // The seed ignores the arm, so all three arms face an identical upset
  // stream — the accuracy spread is purely the protection's doing.
  fcfg.seed = cell_seed(0xc0de, bits, rate, trial);
  FaultInjector injector(fcfg);

  AbftConfig acfg;
  acfg.policy = arm == ComputeArm::kNone ? RecoveryPolicy::kDetect
                                         : RecoveryPolicy::kDegradeToZero;
  AbftReport report;
  const std::vector<Tensor>& weights = g_mlp->weights;
  Tensor act = eval_matrix();
  for (std::size_t l = 0; l < weights.size(); ++l) {
    // Weights quantized cleanly to the format: this arm targets the
    // compute, not storage (the sweeps above already cover data at rest).
    auto codec = make_codec(kind, bits, weights[l].max_abs());
    const Tensor w = codec->decode_tensor(codec->encode_tensor(weights[l]),
                                          weights[l].shape(),
                                          /*hardened=*/false);
    acfg.layer = "mlp_fc" + std::to_string(l);
    Tensor y = abft_matmul(act, w, /*trans_b=*/true, acfg, &report,
                           rate > 0.0 ? &injector : nullptr);
    if (arm == ComputeArm::kAbftGuard) {
      auto q = make_quantizer(kind, bits);
      q->calibrate(w);
      LayerGuard guard(acfg.layer, {RecoveryPolicy::kDegradeToZero, 1, 0.0f});
      // Worst-case accumulation gain of the product: fan-in times the
      // activation magnitude; the quantizer supplies the weight range.
      guard.calibrate(*q, static_cast<double>(w.dim(1)) * act.max_abs());
      guard.apply(y, nullptr);
    }
    if (g_mlp->biases[l].numel() > 0) add_row_bias_inplace(y, g_mlp->biases[l]);
    if (l + 1 < weights.size()) {
      for (std::int64_t i = 0; i < y.numel(); ++i) y[i] = std::max(y[i], 0.0f);
    }
    act = std::move(y);
  }
  if (totals != nullptr) totals->merge(report);
  return top1_accuracy(g_mlp->eval_set.labels, argmax_rows(act));
}

void run_compute_fault_sweep() {
  const int bits = 8;
  TextTable table(
      "Resilience: MLP Top-1 (%) under live MAC upsets in the GEMM output "
      "registers, 8-bit weights (mean of " + std::to_string(g_trials) +
      " trials; det/corr/deg summed across the row)");
  std::vector<std::string> header = {"Format", "Arm"};
  for (double r : kComputeRates) header.push_back("BER=" + fmt_sig(r, 1));
  header.insert(header.end(), {"det", "corr", "deg"});
  table.set_header(std::move(header));

  for (FormatKind kind : all_format_kinds()) {
    for (ComputeArm arm :
         {ComputeArm::kNone, ComputeArm::kAbft, ComputeArm::kAbftGuard}) {
      std::vector<std::string> row = {format_kind_name(kind),
                                      compute_arm_name(arm)};
      AbftReport totals;
      for (double rate : kComputeRates) {
        // Serial trial loop: the counters accumulate in trial order, so the
        // row is bit-identical for any AF_THREADS value.
        double sum = 0.0;
        for (int trial = 0; trial < g_trials; ++trial) {
          sum += compute_fault_cell(kind, bits, rate, arm, trial, &totals);
        }
        row.push_back(fmt_fixed(sum / g_trials, 1));
      }
      row.push_back(std::to_string(totals.detected));
      row.push_back(std::to_string(totals.corrected));
      row.push_back(std::to_string(totals.degraded));
      table.add_row(std::move(row));
    }
  }
  table.print();
  std::printf("\n");
}

// ABFT cost relative to the bare kernel, on the sweep's own layer shape.
// Timing is machine-dependent, so it goes to stderr (the determinism diff
// reads stdout only); EXPERIMENTS.md records a reference measurement.
void time_abft_overhead() {
  const Tensor& w = g_mlp->weights[0];
  const Tensor x = eval_matrix();
  const int reps = 40;
  using Clock = std::chrono::steady_clock;
  float sink = 0.0f;
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    sink += matmul(x, w, false, true)[0];
  }
  const auto t1 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    sink += abft_matmul(x, w, /*trans_b=*/true)[0];
  }
  const auto t2 = Clock::now();
  const double plain_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count() / reps;
  const double abft_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count() / reps;
  std::fprintf(stderr,
               "[bench] ABFT overhead on [%lld,%lld]x[%lld,%lld]^T: plain "
               "%.3f ms, abft %.3f ms (+%.1f%%) [sink %.1f]\n",
               static_cast<long long>(x.dim(0)),
               static_cast<long long>(x.dim(1)),
               static_cast<long long>(w.dim(0)),
               static_cast<long long>(w.dim(1)), plain_ms, abft_ms,
               (abft_ms / plain_ms - 1.0) * 100.0, static_cast<double>(sink));
}

// ----- guarded LSTM accelerator demo -----------------------------------------

void run_guarded_lstm_demo() {
  TextTable table(
      "Resilience: 4-PE LSTM accelerator (HFINT, 8-bit) under accumulator "
      "upsets — recovery policies over 16 sequences ('crash' = FaultError "
      "escaped)");
  table.set_header({"Acc BER", "Policy", "Pred flips (%)", "Faults",
                    "Retried", "Degraded"});

  AcceleratorConfig cfg;
  cfg.kind = PeKind::kHfint;
  cfg.op_bits = 8;
  cfg.hidden = g_lstm->hidden;
  cfg.input = g_lstm->input;
  const LstmLayerWeights weights{g_lstm->wx, g_lstm->wh, g_lstm->b};
  const int kSeqs = 16;

  auto predict = [&](Accelerator& acc, int i) {
    const Tensor& seq = g_lstm->eval_set.inputs[static_cast<std::size_t>(i)];
    std::vector<Tensor> steps;
    for (std::int64_t t = 0; t < g_lstm->timesteps; ++t) {
      Tensor x({g_lstm->input});
      for (std::int64_t j = 0; j < g_lstm->input; ++j) {
        x[j] = seq[t * g_lstm->input + j];
      }
      steps.push_back(std::move(x));
    }
    AcceleratorRun run = acc.run(weights, steps);
    // Readout in FP32 over the decoded hidden state.
    std::int64_t best = 0;
    float best_v = 0.0f;
    for (std::int64_t c = 0; c < g_lstm->classes; ++c) {
      float v = g_lstm->b_out[c];
      for (std::int64_t h = 0; h < g_lstm->hidden; ++h) {
        v += g_lstm->w_out[c * g_lstm->hidden + h] *
             run.final_h[static_cast<std::size_t>(h)];
      }
      if (c == 0 || v > best_v) {
        best = c;
        best_v = v;
      }
    }
    return std::make_pair(best, run);
  };

  Accelerator clean_acc(cfg);
  std::vector<std::int64_t> clean_preds;
  for (int i = 0; i < kSeqs; ++i) {
    clean_preds.push_back(predict(clean_acc, i).first);
  }

  const struct {
    RecoveryPolicy policy;
    const char* name;
  } kArms[] = {{RecoveryPolicy::kDetect, "detect"},
               {RecoveryPolicy::kRecompute, "recompute"},
               {RecoveryPolicy::kDegradeToZero, "degrade"}};
  for (double rate : {1e-5, 1e-4, 1e-3}) {
    for (const auto& arm : kArms) {
      FaultConfig fcfg;
      fcfg.bit_error_rate = rate;
      fcfg.seed = g_seed ^ 0x157b;
      FaultInjector injector(fcfg);
      AcceleratorConfig run_cfg = cfg;
      run_cfg.policy = arm.policy;
      Accelerator acc(run_cfg);
      acc.set_fault_hook(&injector);
      std::vector<std::int64_t> preds;
      AcceleratorRun totals;
      bool crashed = false;
      for (int i = 0; i < kSeqs && !crashed; ++i) {
        try {
          auto [pred, run] = predict(acc, i);
          preds.push_back(pred);
          totals.faults_detected += run.faults_detected;
          totals.rows_retried += run.rows_retried;
          totals.rows_degraded += run.rows_degraded;
        } catch (const FaultError&) {
          crashed = true;
        }
      }
      std::vector<std::int64_t> clean_prefix(
          clean_preds.begin(),
          clean_preds.begin() + static_cast<std::ptrdiff_t>(preds.size()));
      table.add_row(
          {fmt_sig(rate, 1), arm.name,
           crashed ? "crash" : fmt_fixed(
                                   prediction_flip_rate(clean_prefix, preds),
                                   1),
           std::to_string(totals.faults_detected),
           std::to_string(totals.rows_retried),
           std::to_string(totals.rows_degraded)});
    }
  }
  table.print();
  std::printf("\n");
}

int run(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      g_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trials" && i + 1 < argc) {
      g_trials = std::atoi(argv[++i]);
      if (g_trials < 1) {
        std::fprintf(stderr, "--trials must be >= 1\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--seed N] [--trials N]\n", argv[0]);
      return 2;
    }
  }

  std::fprintf(stderr, "[bench] training MLP eval model...\n");
  MlpEvalModel mlp = make_mlp_eval_model(g_seed);
  std::fprintf(stderr, "[bench] MLP baseline Top-1: %.1f%%\n",
               mlp.baseline_top1);
  std::fprintf(stderr, "[bench] training LSTM eval model...\n");
  LstmEvalModel lstm = make_lstm_eval_model(g_seed);
  std::fprintf(stderr, "[bench] LSTM baseline Top-1: %.1f%%\n",
               lstm.baseline_top1);
  g_mlp = &mlp;
  g_lstm = &lstm;

  run_model_sweep("MLP", 0x11a9, mlp.baseline_top1, eval_mlp_cell);
  run_model_sweep("LSTM", 0x15f3, lstm.baseline_top1, eval_lstm_cell);
  run_accumulator_demo();
  run_compute_fault_sweep();
  run_guarded_lstm_demo();
  time_abft_overhead();
  return 0;
}

}  // namespace
}  // namespace af

int main(int argc, char** argv) { return af::run(argc, argv); }
