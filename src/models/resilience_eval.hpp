// Compact eval models for the bit-error resilience sweep.
//
// The Table 2/3 models retrain for minutes per baseline; a fault-injection
// sweep needs hundreds of corrupt-and-evaluate cells, so it runs on two
// purpose-built small models instead: an MLP classifier on the synthetic
// vision task and an LSTM sequence classifier on a synthetic frequency-
// discrimination task. Both expose their trained weights as plain tensors
// and evaluate through a caller-supplied per-layer weight transform — the
// sweep's encode → corrupt → (scrub) → decode pipeline slots in there
// without the model knowing anything about formats or faults.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace af {

/// Per-layer weight substitution: receives the trained weight matrix and
/// its layer index, returns the tensor to use instead (same shape). An
/// empty function means "use the trained weights unchanged".
using WeightTransform = std::function<Tensor(const Tensor& w, int layer)>;

/// Fixed held-out evaluation set (inputs are model-specific layouts).
struct EvalSet {
  std::vector<Tensor> inputs;
  std::vector<std::int64_t> labels;
};

// ----- MLP on the vision task ------------------------------------------------

/// Two-layer ReLU MLP over flattened vision-task images. Layer indices for
/// the transform: 0 = hidden weight [H, D], 1 = output weight [C, H].
/// Biases are not exposed to the transform (they are a vanishing fraction
/// of the stored bits; the sweep documents this).
struct MlpEvalModel {
  std::vector<Tensor> weights;  // [out, in] per layer
  std::vector<Tensor> biases;   // [out] per layer
  EvalSet eval_set;             // inputs: flattened images [D]
  double baseline_top1 = 0.0;   // fault-free accuracy on eval_set (%)
};

/// Trains the MLP to plateau on the vision task (deterministic in `seed`).
MlpEvalModel make_mlp_eval_model(std::uint64_t seed, int train_steps = 400,
                                 int eval_images = 240);

/// Argmax predictions on the eval set under the transform.
std::vector<std::int64_t> mlp_predict(const MlpEvalModel& m,
                                      const WeightTransform& transform = {});

/// Top-1 accuracy (%) on the eval set under the transform.
double eval_mlp_top1(const MlpEvalModel& m,
                     const WeightTransform& transform = {});

// ----- LSTM on a synthetic sequence task -------------------------------------

/// Single-cell LSTM + linear readout classifying which class prototype
/// (a distinct frequency/phase mixture) generated a noisy sequence.
/// Layer indices for the transform: 0 = wx [4H, I], 1 = wh [4H, H],
/// 2 = readout weight [C, H].
struct LstmEvalModel {
  std::int64_t input = 0;
  std::int64_t hidden = 0;
  std::int64_t classes = 0;
  std::int64_t timesteps = 0;
  Tensor wx;     // [4H, I], gate order i, f, g, o
  Tensor wh;     // [4H, H]
  Tensor b;      // [4H]
  Tensor w_out;  // [C, H]
  Tensor b_out;  // [C]
  EvalSet eval_set;  // inputs: sequences [T, I]
  double baseline_top1 = 0.0;
};

/// Trains the LSTM classifier to plateau (deterministic in `seed`).
LstmEvalModel make_lstm_eval_model(std::uint64_t seed, int train_steps = 400,
                                   int eval_sequences = 240);

std::vector<std::int64_t> lstm_predict(const LstmEvalModel& m,
                                       const WeightTransform& transform = {});

double eval_lstm_top1(const LstmEvalModel& m,
                      const WeightTransform& transform = {});

}  // namespace af
