#include "src/hw/accelerator.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/algorithm1.hpp"
#include "src/kernels/backend.hpp"
#include "src/util/check.hpp"

namespace af {
namespace {

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

std::int32_t clamp_int(std::int64_t v, int bits) {
  const std::int64_t lim = (std::int64_t{1} << (bits - 1)) - 1;
  if (v > lim) v = lim;
  if (v < -lim - 1) v = -lim - 1;
  return static_cast<std::int32_t>(v);
}

/// Outcome of one gate-row computation: the post-processed gate value and
/// whether a detector (row_bound plausibility check) flagged the row.
struct RowResult {
  std::int32_t gate = 0;
  bool suspect = false;
};

/// Runs one gate row under the recovery ladder. `compute` performs the MAC
/// sequence and postprocessing; it throws FaultError on accumulator
/// overflow and reports suspect=true on a plausibility violation (having
/// already clamped the value when the policy permits repair). Retries make
/// the fault hook draw fresh bits, so transient upsets clear; persistent
/// ones degrade to a zeroed gate under kDegradeToZero and escalate
/// otherwise.
template <typename ComputeRow>
std::int32_t guarded_row(const AcceleratorConfig& cfg, ComputeRow&& compute,
                         AcceleratorRun& run) {
  int attempt = 0;
  for (;;) {
    bool threw = false;
    RowResult r;
    try {
      r = compute();
    } catch (const FaultError&) {
      // Observe-only (and correct-only, which has no repair for a broken
      // register) keep the historical propagate-the-error behavior.
      if (cfg.policy <= RecoveryPolicy::kCorrect) throw;
      threw = true;
      r.suspect = true;
    }
    if (!r.suspect) return r.gate;
    ++run.faults_detected;
    if (cfg.policy >= RecoveryPolicy::kRecompute && attempt < cfg.max_retries) {
      ++attempt;
      ++run.rows_retried;
      continue;
    }
    if (threw) {
      if (cfg.policy == RecoveryPolicy::kDegradeToZero) {
        ++run.rows_degraded;
        return 0;
      }
      throw FaultError(cfg.name(), FaultKind::kUncorrectable,
                       "gate row still overflows after " +
                           std::to_string(attempt) + " recompute(s)");
    }
    // Plausibility violation with a usable value: keep the raw value under
    // kDetect, the bound-clamped one under kCorrect/kRecompute, zero under
    // kDegradeToZero.
    if (cfg.policy == RecoveryPolicy::kDegradeToZero) {
      ++run.rows_degraded;
      return 0;
    }
    if (cfg.policy >= RecoveryPolicy::kCorrect) ++run.rows_corrected;
    return r.gate;
  }
}

}  // namespace

std::string AcceleratorConfig::name() const {
  if (kind == PeKind::kInt) {
    IntPeConfig pc{op_bits, scale_bits, vector_size, 256};
    return "Accelerator<" + pc.name() + ">";
  }
  HfintPeConfig pc{op_bits, exp_bits, vector_size, 256};
  return "Accelerator<" + pc.name() + ">";
}

Accelerator::Accelerator(AcceleratorConfig cfg, const CostConstants& costs)
    : cfg_(cfg), costs_(costs) {
  AF_CHECK(cfg_.num_pes >= 1, "need at least one PE");
  AF_CHECK(cfg_.hidden % (cfg_.num_pes) == 0,
           "hidden size must split evenly across PEs");
}

std::int64_t Accelerator::cycles_per_timestep() const {
  const std::int64_t k = cfg_.vector_size;
  const std::int64_t rows_per_pe = ceil_div(4 * cfg_.hidden, cfg_.num_pes);
  const std::int64_t macs_per_row = cfg_.input + cfg_.hidden;
  const std::int64_t mac_cycles = ceil_div(rows_per_pe * macs_per_row, k * k);
  const std::int64_t act_cycles = ceil_div(rows_per_pe, k);
  const std::int64_t elem_cycles =
      3 * ceil_div(cfg_.hidden / cfg_.num_pes, k);
  const std::int64_t writeback =
      ceil_div(cfg_.hidden, cfg_.num_pes * k) + 4;  // + crossbar arbitration
  const std::int64_t broadcast = ceil_div(cfg_.hidden, k);
  const std::int64_t pipeline_fill = 12;
  return mac_cycles + act_cycles + elem_cycles + writeback + broadcast +
         pipeline_fill;
}

double Accelerator::area_mm2() const {
  const std::int64_t rows_per_pe = ceil_div(4 * cfg_.hidden, cfg_.num_pes);
  const std::int64_t macs_per_row = cfg_.input + cfg_.hidden;
  // Double-buffered weight slice per PE, 4KB input/bias buffer, 1MB GB.
  const std::int64_t wb_bytes = std::max<std::int64_t>(
      2 * rows_per_pe * macs_per_row * cfg_.op_bits / 8, 256 << 10);
  const double sram_um2 =
      costs_.sram_um2_per_byte *
      (static_cast<double>(cfg_.num_pes) * (wb_bytes + (4 << 10)) +
       static_cast<double>(cfg_.gb_bytes));

  double logic_mm2 = 0.0;
  if (cfg_.kind == PeKind::kInt) {
    IntPe pe({cfg_.op_bits, cfg_.scale_bits, cfg_.vector_size, 256}, costs_);
    logic_mm2 = cfg_.num_pes * pe.area_mm2();
  } else {
    HfintPe pe({cfg_.op_bits, cfg_.exp_bits, cfg_.vector_size, 256}, costs_);
    logic_mm2 = cfg_.num_pes * pe.area_mm2();
  }
  // Crossbar + streaming bus.
  const double interconnect_mm2 =
      0.002 * cfg_.num_pes * cfg_.vector_size * cfg_.op_bits / 8.0;
  return logic_mm2 + sram_um2 / 1e6 + interconnect_mm2;
}

AcceleratorRun Accelerator::run(const LstmLayerWeights& w,
                                const std::vector<Tensor>& inputs) {
  const std::int64_t hidden = cfg_.hidden, in_dim = cfg_.input;
  AF_CHECK(w.wx.shape() == (Shape{4 * hidden, in_dim}), "wx shape mismatch");
  AF_CHECK(w.wh.shape() == (Shape{4 * hidden, hidden}), "wh shape mismatch");
  AF_CHECK(w.bias.shape() == (Shape{4 * hidden}), "bias shape mismatch");
  const int n = cfg_.op_bits;
  const int act_lsb = -(n - 2);   // activations ~ [-2, 2)
  const int gate_lsb = 4 - n;     // pre-activations ~ [-8, 8)
  const int frac = -act_lsb;

  // Activation LUTs shared by both datapaths (the sigma unit of Fig. 5).
  const ActivationUnit sigmoid(ActivationUnit::Kind::kSigmoid, n, gate_lsb,
                               act_lsb);
  const ActivationUnit tanh_gate(ActivationUnit::Kind::kTanh, n, gate_lsb,
                                 act_lsb);

  // ----- quantize weights once (weight-stationary) -------------------------
  const float wmax = std::max(w.wx.max_abs(), w.wh.max_abs());

  // INT path state.
  IntPe int_pe({n, cfg_.scale_bits, cfg_.vector_size, 256}, costs_);
  float sw = 0.0f;
  std::vector<std::int32_t> wx_int, wh_int;
  std::int32_t scale_int = 0;
  // HFINT path state.
  HfintPe hf_pe({n, cfg_.exp_bits, cfg_.vector_size, 256}, costs_);
  AdaptivFloatFormat wf = format_for_max_abs(std::max(wmax, 1e-6f), n,
                                             cfg_.exp_bits);
  AdaptivFloatFormat af_act = format_for_max_abs(1.98f, n, cfg_.exp_bits);
  std::vector<std::uint16_t> wx_codes, wh_codes;

  if (cfg_.kind == PeKind::kInt) {
    sw = wmax / static_cast<float>(int_pe.op_max());
    AF_CHECK(sw > 0.0f, "all-zero weights");
    auto q = [&](const Tensor& t, std::vector<std::int32_t>& out) {
      out.resize(static_cast<std::size_t>(t.numel()));
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        out[static_cast<std::size_t>(i)] = clamp_int(
            static_cast<std::int64_t>(std::nearbyint(t[i] / sw)), n);
      }
    };
    q(w.wx, wx_int);
    q(w.wh, wh_int);
    if (fault_hook_ != nullptr) {
      // Weight-stationary: the buffers are written once, so the SRAM
      // corruption model touches them once per run.
      fault_hook_->on_ints(PeFaultHook::Site::kWeight, wx_int, n);
      fault_hook_->on_ints(PeFaultHook::Site::kWeight, wh_int, n);
    }
    // Requantize multiplier M = sw * sa / 2^gate_lsb as S-bit fixed point.
    const double m_real =
        static_cast<double>(sw) * std::ldexp(1.0, act_lsb - gate_lsb);
    scale_int = static_cast<std::int32_t>(
        std::nearbyint(m_real * std::ldexp(1.0, cfg_.scale_bits)));
    AF_CHECK(scale_int >= 0 && scale_int < (1 << cfg_.scale_bits),
             "requantization scale does not fit S bits");
  } else {
    // Bulk weight-buffer fills go through the backend's encode entry; the
    // codes written to the buffers equal wf.encode's.
    auto q = [&](const Tensor& t, std::vector<std::uint16_t>& out) {
      out.resize(static_cast<std::size_t>(t.numel()));
      encode_span(wf, t.data(), out.data(), t.numel(), active_backend());
    };
    q(w.wx, wx_codes);
    q(w.wh, wh_codes);
    if (fault_hook_ != nullptr) {
      fault_hook_->on_codes(PeFaultHook::Site::kWeight, wx_codes, n);
      fault_hook_->on_codes(PeFaultHook::Site::kWeight, wh_codes, n);
    }
  }
  if (fault_hook_ != nullptr) {
    int_pe.set_fault_hook(fault_hook_);
    hf_pe.set_fault_hook(fault_hook_);
  }

  // ----- run timesteps ------------------------------------------------------
  std::vector<std::int32_t> h_int(static_cast<std::size_t>(hidden), 0);
  std::vector<std::int32_t> c_int(static_cast<std::size_t>(hidden), 0);
  std::vector<std::uint16_t> h_codes(static_cast<std::size_t>(hidden),
                                     af_act.encode(0.0f));

  const int m = cfg_.op_bits - cfg_.exp_bits - 1;
  const int unit_exp = wf.exp_bias() + af_act.exp_bias() - 2 * m;

  // Per-row folded biases and plausibility bounds. Weights are stationary,
  // so both are computed once, from the resident (possibly hook-corrupted)
  // buffers — the bounds track whatever the buffers actually hold, and only
  // an accumulator upset can breach them.
  std::vector<std::int64_t> bias_acc(static_cast<std::size_t>(4 * hidden), 0);
  std::vector<std::int64_t> row_lim(static_cast<std::size_t>(4 * hidden), 0);
  for (std::int64_t r = 0; r < 4 * hidden; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    if (cfg_.kind == PeKind::kInt) {
      // Bias folded into the accumulator in units of sw * 2^act_lsb.
      bias_acc[ri] = static_cast<std::int64_t>(std::nearbyint(
          w.bias[r] / (static_cast<double>(sw) * std::ldexp(1.0, act_lsb))));
      const std::vector<std::int32_t> wrow_x(
          wx_int.begin() + r * in_dim, wx_int.begin() + (r + 1) * in_dim);
      const std::vector<std::int32_t> wrow_h(
          wh_int.begin() + r * hidden, wh_int.begin() + (r + 1) * hidden);
      row_lim[ri] =
          int_pe.row_bound(bias_acc[ri], wrow_x) + int_pe.row_bound(0, wrow_h);
    } else {
      // Bias folded in units of 2^(bias_w + bias_a - 2m).
      bias_acc[ri] = static_cast<std::int64_t>(std::nearbyint(
          std::ldexp(static_cast<double>(w.bias[r]), -unit_exp)));
      const std::vector<std::uint16_t> wrow_x(
          wx_codes.begin() + r * in_dim, wx_codes.begin() + (r + 1) * in_dim);
      const std::vector<std::uint16_t> wrow_h(
          wh_codes.begin() + r * hidden, wh_codes.begin() + (r + 1) * hidden);
      row_lim[ri] =
          hf_pe.row_bound(bias_acc[ri], wrow_x) + hf_pe.row_bound(0, wrow_h);
    }
  }

  AcceleratorRun run_result;
  for (const Tensor& x : inputs) {
    AF_CHECK(x.shape() == (Shape{in_dim}), "input shape mismatch");
    // Encode the step input.
    std::vector<std::int32_t> x_int;
    std::vector<std::uint16_t> x_codes;
    if (cfg_.kind == PeKind::kInt) {
      x_int.resize(static_cast<std::size_t>(in_dim));
      for (std::int64_t i = 0; i < in_dim; ++i) {
        x_int[static_cast<std::size_t>(i)] = clamp_int(
            static_cast<std::int64_t>(
                std::nearbyint(std::ldexp(x[i], -act_lsb))),
            n);
      }
    } else {
      x_codes.resize(static_cast<std::size_t>(in_dim));
      encode_span(af_act, x.data(), x_codes.data(), in_dim, active_backend());
    }
    if (fault_hook_ != nullptr) {
      if (cfg_.kind == PeKind::kInt) {
        fault_hook_->on_ints(PeFaultHook::Site::kActivation, x_int, n);
      } else {
        fault_hook_->on_codes(PeFaultHook::Site::kActivation, x_codes, n);
      }
    }

    // Gate pre-activations for all 4H rows, each under the recovery ladder.
    std::vector<std::int32_t> gates(static_cast<std::size_t>(4 * hidden));
    for (std::int64_t r = 0; r < 4 * hidden; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      auto compute = [&]() -> RowResult {
        std::int64_t acc;
        if (cfg_.kind == PeKind::kInt) {
          std::vector<std::int32_t> wrow_x(
              wx_int.begin() + r * in_dim, wx_int.begin() + (r + 1) * in_dim);
          std::vector<std::int32_t> wrow_h(
              wh_int.begin() + r * hidden, wh_int.begin() + (r + 1) * hidden);
          acc = int_pe.accumulate(bias_acc[ri], wrow_x, x_int);
          acc = int_pe.accumulate(acc, wrow_h, h_int);
        } else {
          std::vector<std::uint16_t> wrow_x(
              wx_codes.begin() + r * in_dim,
              wx_codes.begin() + (r + 1) * in_dim);
          std::vector<std::uint16_t> wrow_h(
              wh_codes.begin() + r * hidden,
              wh_codes.begin() + (r + 1) * hidden);
          acc = hf_pe.accumulate(bias_acc[ri], wrow_x, x_codes);
          acc = hf_pe.accumulate(acc, wrow_h, h_codes);
        }
        RowResult out;
        if (acc > row_lim[ri] || acc < -row_lim[ri]) {
          out.suspect = true;
          if (cfg_.policy != RecoveryPolicy::kDetect) {
            acc = acc > 0 ? row_lim[ri] : -row_lim[ri];
          }
        }
        out.gate =
            cfg_.kind == PeKind::kInt
                ? int_pe.postprocess(acc, scale_int, cfg_.scale_bits, false)
                : hf_pe.postprocess_to_int(acc, wf, af_act, gate_lsb, false);
        return out;
      };
      gates[ri] = guarded_row(cfg_, compute, run_result);
    }

    // Elementwise LSTM update in the shared integer activation domain.
    for (std::int64_t j = 0; j < hidden; ++j) {
      const std::int32_t i_g = sigmoid.apply(gates[static_cast<std::size_t>(j)]);
      const std::int32_t f_g =
          sigmoid.apply(gates[static_cast<std::size_t>(hidden + j)]);
      const std::int32_t g_g =
          tanh_gate.apply(gates[static_cast<std::size_t>(2 * hidden + j)]);
      const std::int32_t o_g =
          sigmoid.apply(gates[static_cast<std::size_t>(3 * hidden + j)]);
      const std::int64_t c_new =
          (static_cast<std::int64_t>(f_g) * c_int[static_cast<std::size_t>(j)] >>
           frac) +
          (static_cast<std::int64_t>(i_g) * g_g >> frac);
      // c is carried at act_lsb in a wider register; clamp into the tanh
      // LUT's gate-domain input before the output nonlinearity.
      c_int[static_cast<std::size_t>(j)] =
          clamp_int(c_new, n + 4);
      const std::int32_t c_gate = clamp_int(
          c_new >> (gate_lsb - act_lsb), n);
      const std::int32_t t_c = tanh_gate.apply(c_gate);
      const std::int32_t h_new = clamp_int(
          static_cast<std::int64_t>(o_g) * t_c >> frac, n);
      h_int[static_cast<std::size_t>(j)] = h_new;
      if (cfg_.kind == PeKind::kHfint) {
        h_codes[static_cast<std::size_t>(j)] =
            hf_pe.int_to_adaptivfloat(h_new, act_lsb, af_act);
      }
    }
    // For the HFINT path the MAC consumes codes; re-encoding happened above.
    // For INT the MAC consumes h_int directly.
  }

  // ----- assemble the result ------------------------------------------------
  run_result.timesteps = static_cast<std::int64_t>(inputs.size());
  run_result.final_h.resize(static_cast<std::size_t>(hidden));
  for (std::int64_t j = 0; j < hidden; ++j) {
    if (cfg_.kind == PeKind::kInt) {
      run_result.final_h[static_cast<std::size_t>(j)] = static_cast<float>(
          std::ldexp(static_cast<double>(h_int[static_cast<std::size_t>(j)]),
                     act_lsb));
    } else {
      run_result.final_h[static_cast<std::size_t>(j)] =
          af_act.decode(h_codes[static_cast<std::size_t>(j)]);
    }
  }
  run_result.cycles = cycles_per_timestep() * run_result.timesteps;

  // Energy accounting.
  const std::int64_t k = cfg_.vector_size;
  const std::int64_t rows_per_pe = ceil_div(4 * hidden, cfg_.num_pes);
  const std::int64_t mac_cycles =
      ceil_div(rows_per_pe * (in_dim + hidden), k * k);
  const double pe_cycle_fj = cfg_.kind == PeKind::kInt
                                 ? int_pe.energy_per_cycle_fj()
                                 : hf_pe.energy_per_cycle_fj();
  const std::int64_t other_cycles = cycles_per_timestep() - mac_cycles;
  double step_fj = cfg_.num_pes * (mac_cycles * pe_cycle_fj +
                                   other_cycles * costs_.pe_ctrl_fj);
  // Activation unit + elementwise update.
  step_fj += 4.0 * hidden * sigmoid.energy_fj(costs_);
  step_fj += 3.0 * hidden *
             (mult_energy_fj(costs_, n, n) + reg_energy_fj(costs_, n));
  // Global buffer traffic: h writeback once, broadcast read per PE; input
  // vector read once.
  step_fj += costs_.gb_fj_per_bit *
             (static_cast<double>(hidden) * n * (1 + cfg_.num_pes) +
              static_cast<double>(in_dim) * n);
  run_result.energy_fj = step_fj * static_cast<double>(run_result.timesteps);
  return run_result;
}

std::int64_t Accelerator::cycles_per_fc_pass(
    const std::vector<FcLayer>& layers) const {
  const std::int64_t k = cfg_.vector_size;
  std::int64_t total = 0;
  for (const FcLayer& layer : layers) {
    const std::int64_t rows_per_pe =
        ceil_div(layer.weight.dim(0), cfg_.num_pes);
    total += ceil_div(rows_per_pe * layer.weight.dim(1), k * k);  // MACs
    total += ceil_div(rows_per_pe, k);                            // act unit
    total += ceil_div(layer.weight.dim(0), cfg_.num_pes * k) + 4; // writeback
    total += ceil_div(layer.weight.dim(0), k);                    // broadcast
  }
  return total + 12;  // pipeline fill
}

AcceleratorRun Accelerator::run_fc(const std::vector<FcLayer>& layers,
                                   const Tensor& x) {
  AF_CHECK(!layers.empty(), "empty FC network");
  AF_CHECK(x.rank() == 1 && x.dim(0) == layers.front().weight.dim(1),
           "FC input shape mismatch");
  const int n = cfg_.op_bits;
  const int act_lsb = -(n - 2);
  const int m = cfg_.op_bits - cfg_.exp_bits - 1;

  IntPe int_pe({n, cfg_.scale_bits, cfg_.vector_size, 256}, costs_);
  HfintPe hf_pe({n, cfg_.exp_bits, cfg_.vector_size, 256}, costs_);
  if (fault_hook_ != nullptr) {
    int_pe.set_fault_hook(fault_hook_);
    hf_pe.set_fault_hook(fault_hook_);
  }
  const AdaptivFloatFormat af_act = format_for_max_abs(1.98f, n, cfg_.exp_bits);

  // Current activations carried in the integer act domain.
  std::vector<std::int32_t> act(static_cast<std::size_t>(x.numel()));
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    act[static_cast<std::size_t>(i)] = clamp_int(
        static_cast<std::int64_t>(std::nearbyint(std::ldexp(x[i], -act_lsb))),
        n);
  }

  AcceleratorRun result;
  double energy = 0.0;
  for (const FcLayer& layer : layers) {
    const std::int64_t out_dim = layer.weight.dim(0);
    const std::int64_t in_dim = layer.weight.dim(1);
    AF_CHECK(static_cast<std::int64_t>(act.size()) == in_dim,
             "FC layer width mismatch");
    std::vector<std::int32_t> next(static_cast<std::size_t>(out_dim));
    const float wmax = std::max(layer.weight.max_abs(), 1e-6f);

    if (cfg_.kind == PeKind::kInt) {
      const float sw = wmax / static_cast<float>(int_pe.op_max());
      const double m_real = static_cast<double>(sw);  // act_lsb == out lsb
      const auto scale_int = static_cast<std::int32_t>(std::nearbyint(
          m_real * std::ldexp(1.0, cfg_.scale_bits)));
      AF_CHECK(scale_int >= 0 && scale_int < (1 << cfg_.scale_bits),
               "FC requantization scale does not fit");
      if (fault_hook_ != nullptr) {
        fault_hook_->on_ints(PeFaultHook::Site::kActivation, act, n);
      }
      for (std::int64_t r = 0; r < out_dim; ++r) {
        // Weights stream per row in the FC dataflow, so a retry re-reads
        // the row through the fault hook — persistent buffer faults stay,
        // transient accumulator upsets clear.
        auto compute = [&]() -> RowResult {
          std::vector<std::int32_t> wrow(static_cast<std::size_t>(in_dim));
          for (std::int64_t c = 0; c < in_dim; ++c) {
            wrow[static_cast<std::size_t>(c)] = clamp_int(
                static_cast<std::int64_t>(
                    std::nearbyint(layer.weight[r * in_dim + c] / sw)),
                n);
          }
          if (fault_hook_ != nullptr) {
            fault_hook_->on_ints(PeFaultHook::Site::kWeight, wrow, n);
          }
          const auto bias_acc = static_cast<std::int64_t>(std::nearbyint(
              layer.bias[r] /
              (static_cast<double>(sw) * std::ldexp(1.0, act_lsb))));
          std::int64_t acc = int_pe.accumulate(bias_acc, wrow, act);
          const std::int64_t lim = int_pe.row_bound(bias_acc, wrow);
          RowResult out;
          if (acc > lim || acc < -lim) {
            out.suspect = true;
            if (cfg_.policy != RecoveryPolicy::kDetect) {
              acc = acc > 0 ? lim : -lim;
            }
          }
          out.gate =
              int_pe.postprocess(acc, scale_int, cfg_.scale_bits, layer.relu);
          return out;
        };
        next[static_cast<std::size_t>(r)] = guarded_row(cfg_, compute, result);
      }
    } else {
      const AdaptivFloatFormat wf =
          format_for_max_abs(wmax, n, cfg_.exp_bits);
      std::vector<std::uint16_t> act_codes(act.size());
      for (std::size_t i = 0; i < act.size(); ++i) {
        act_codes[i] = hf_pe.int_to_adaptivfloat(act[i], act_lsb, af_act);
      }
      if (fault_hook_ != nullptr) {
        fault_hook_->on_codes(PeFaultHook::Site::kActivation, act_codes, n);
      }
      const int unit_exp = wf.exp_bias() + af_act.exp_bias() - 2 * m;
      for (std::int64_t r = 0; r < out_dim; ++r) {
        auto compute = [&]() -> RowResult {
          std::vector<std::uint16_t> wrow(static_cast<std::size_t>(in_dim));
          encode_span(wf, layer.weight.data() + r * in_dim, wrow.data(),
                      in_dim, active_backend());
          if (fault_hook_ != nullptr) {
            fault_hook_->on_codes(PeFaultHook::Site::kWeight, wrow, n);
          }
          const auto bias_acc = static_cast<std::int64_t>(std::nearbyint(
              std::ldexp(static_cast<double>(layer.bias[r]), -unit_exp)));
          std::int64_t acc = hf_pe.accumulate(bias_acc, wrow, act_codes);
          const std::int64_t lim = hf_pe.row_bound(bias_acc, wrow);
          RowResult out;
          if (acc > lim || acc < -lim) {
            out.suspect = true;
            if (cfg_.policy != RecoveryPolicy::kDetect) {
              acc = acc > 0 ? lim : -lim;
            }
          }
          out.gate =
              hf_pe.postprocess_to_int(acc, wf, af_act, act_lsb, layer.relu);
          return out;
        };
        next[static_cast<std::size_t>(r)] = guarded_row(cfg_, compute, result);
      }
    }
    act = std::move(next);

    // Energy: MAC cycles at full PE power plus buffer traffic.
    const std::int64_t k = cfg_.vector_size;
    const std::int64_t mac_cycles =
        ceil_div(ceil_div(out_dim, cfg_.num_pes) * in_dim, k * k);
    const double pe_cycle_fj = cfg_.kind == PeKind::kInt
                                   ? int_pe.energy_per_cycle_fj()
                                   : hf_pe.energy_per_cycle_fj();
    energy += cfg_.num_pes * mac_cycles * pe_cycle_fj;
    energy += costs_.gb_fj_per_bit * static_cast<double>(out_dim) * n *
              (1 + cfg_.num_pes);
  }

  result.timesteps = 1;
  result.cycles = cycles_per_fc_pass(layers);
  result.energy_fj = energy;
  result.final_h.resize(act.size());
  for (std::size_t i = 0; i < act.size(); ++i) {
    result.final_h[i] = static_cast<float>(
        std::ldexp(static_cast<double>(act[i]), act_lsb));
  }
  return result;
}

std::vector<float> fc_reference(const std::vector<FcLayer>& layers,
                                const Tensor& x) {
  std::vector<double> act(static_cast<std::size_t>(x.numel()));
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    act[static_cast<std::size_t>(i)] = x[i];
  }
  for (const FcLayer& layer : layers) {
    const std::int64_t out_dim = layer.weight.dim(0);
    const std::int64_t in_dim = layer.weight.dim(1);
    std::vector<double> next(static_cast<std::size_t>(out_dim));
    for (std::int64_t r = 0; r < out_dim; ++r) {
      double acc = layer.bias[r];
      for (std::int64_t c = 0; c < in_dim; ++c) {
        acc += static_cast<double>(layer.weight[r * in_dim + c]) *
               act[static_cast<std::size_t>(c)];
      }
      next[static_cast<std::size_t>(r)] =
          layer.relu ? std::max(acc, 0.0) : acc;
    }
    act = std::move(next);
  }
  std::vector<float> out(act.size());
  for (std::size_t i = 0; i < act.size(); ++i) {
    out[i] = static_cast<float>(act[i]);
  }
  return out;
}

PpaReport Accelerator::report(const AcceleratorRun& run_result) const {
  PpaReport r;
  r.area_mm2 = area_mm2();
  r.time_us = static_cast<double>(run_result.cycles) / (cfg_.clock_ghz * 1e3);
  const double energy_j = run_result.energy_fj * 1e-15;
  r.power_mw = energy_j / (r.time_us * 1e-6) * 1e3;
  return r;
}

std::vector<float> lstm_reference(const LstmLayerWeights& w,
                                  const std::vector<Tensor>& inputs) {
  const std::int64_t hidden = w.wh.dim(1);
  const std::int64_t in_dim = w.wx.dim(1);
  std::vector<double> h(static_cast<std::size_t>(hidden), 0.0);
  std::vector<double> c(static_cast<std::size_t>(hidden), 0.0);
  for (const Tensor& x : inputs) {
    std::vector<double> gates(static_cast<std::size_t>(4 * hidden), 0.0);
    for (std::int64_t r = 0; r < 4 * hidden; ++r) {
      double acc = w.bias[r];
      for (std::int64_t i = 0; i < in_dim; ++i) {
        acc += static_cast<double>(w.wx[r * in_dim + i]) * x[i];
      }
      for (std::int64_t j = 0; j < hidden; ++j) {
        acc += static_cast<double>(w.wh[r * hidden + j]) *
               h[static_cast<std::size_t>(j)];
      }
      gates[static_cast<std::size_t>(r)] = acc;
    }
    auto sigmoid = [](double v) { return 1.0 / (1.0 + std::exp(-v)); };
    for (std::int64_t j = 0; j < hidden; ++j) {
      const double i_g = sigmoid(gates[static_cast<std::size_t>(j)]);
      const double f_g = sigmoid(gates[static_cast<std::size_t>(hidden + j)]);
      const double g_g = std::tanh(gates[static_cast<std::size_t>(2 * hidden + j)]);
      const double o_g = sigmoid(gates[static_cast<std::size_t>(3 * hidden + j)]);
      c[static_cast<std::size_t>(j)] =
          f_g * c[static_cast<std::size_t>(j)] + i_g * g_g;
      h[static_cast<std::size_t>(j)] = o_g * std::tanh(c[static_cast<std::size_t>(j)]);
    }
  }
  std::vector<float> out(h.size());
  for (std::size_t j = 0; j < h.size(); ++j) out[j] = static_cast<float>(h[j]);
  return out;
}

}  // namespace af
