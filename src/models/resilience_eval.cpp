#include "src/models/resilience_eval.hpp"

#include <cmath>
#include <utility>

#include "src/data/metrics.hpp"
#include "src/data/vision_task.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/lstm.hpp"
#include "src/nn/optimizer.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"
#include "src/util/rng.hpp"

namespace af {
namespace {

// y = W x + b for a single vector x. Plain double accumulation keeps the
// inference path independent of the training modules, so a weight transform
// affects exactly the multiplies and nothing cached inside a layer.
std::vector<float> affine(const Tensor& w, const Tensor& b,
                          const std::vector<float>& x) {
  const std::int64_t out = w.dim(0), in = w.dim(1);
  AF_CHECK(static_cast<std::int64_t>(x.size()) == in,
           "affine: input size mismatch");
  std::vector<float> y(static_cast<std::size_t>(out));
  for (std::int64_t o = 0; o < out; ++o) {
    double acc = (b.numel() > 0) ? static_cast<double>(b[o]) : 0.0;
    const float* row = w.data() + o * in;
    for (std::int64_t i = 0; i < in; ++i) {
      acc += static_cast<double>(row[i]) * static_cast<double>(x[static_cast<std::size_t>(i)]);
    }
    y[static_cast<std::size_t>(o)] = static_cast<float>(acc);
  }
  return y;
}

std::int64_t argmax(const std::vector<float>& v) {
  std::int64_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[best]) best = static_cast<std::int64_t>(i);
  }
  return best;
}

Tensor apply_transform(const WeightTransform& transform, const Tensor& w,
                       int layer) {
  if (!transform) return w;
  Tensor out = transform(w, layer);
  AF_CHECK(out.shape() == w.shape(),
           "weight transform must preserve the layer shape");
  return out;
}

// ----- LSTM synthetic sequence task -----------------------------------------

struct SeqTask {
  std::int64_t classes, timesteps, input;
  // Per class and input channel: frequency and phase of a sinusoid.
  std::vector<float> freq;   // [classes * input]
  std::vector<float> phase;  // [classes * input]
  float noise;

  SeqTask(std::int64_t c, std::int64_t t, std::int64_t i, float n,
          Pcg32& rng)
      : classes(c), timesteps(t), input(i), noise(n) {
    freq.resize(static_cast<std::size_t>(c * i));
    phase.resize(static_cast<std::size_t>(c * i));
    for (auto& f : freq) f = rng.uniform(0.3f, 2.2f);
    for (auto& p : phase) p = rng.uniform(0.0f, 6.28318f);
  }

  // One noisy sequence [T, I] of the given class.
  Tensor sample(std::int64_t label, Pcg32& rng) const {
    Tensor x({timesteps, input});
    for (std::int64_t t = 0; t < timesteps; ++t) {
      for (std::int64_t i = 0; i < input; ++i) {
        const std::size_t k = static_cast<std::size_t>(label * input + i);
        const float clean =
            std::sin(freq[k] * static_cast<float>(t) + phase[k]);
        x[t * input + i] = clean + rng.normal(0.0f, noise);
      }
    }
    return x;
  }
};

}  // namespace

// ----- MLP ------------------------------------------------------------------

MlpEvalModel make_mlp_eval_model(std::uint64_t seed, int train_steps,
                                 int eval_images) {
  const std::int64_t kClasses = 10, kSize = 12, kHidden = 64;
  const std::int64_t kInput = kSize * kSize;
  const std::int64_t kBatch = 32;

  VisionTask task(kClasses, /*channels=*/1, kSize, /*noise=*/0.25f, seed);
  Pcg32 rng(seed ^ 0x9e3779b97f4a7c15ULL);

  Linear fc1(kInput, kHidden, rng);
  ReLU relu;
  Linear fc2(kHidden, kClasses, rng);
  Adam opt(collect_parameters({&fc1, &fc2}), 3e-3f);
  ExecutionContext train{.training = true};

  for (int step = 0; step < train_steps; ++step) {
    auto batch = task.sample_batch(kBatch, rng);
    Tensor x = batch.images.reshaped({kBatch, kInput});
    Tensor h = relu.forward(fc1.forward(x, train), train);
    Tensor logits = fc2.forward(h, train);
    LossResult loss = softmax_cross_entropy(logits, batch.labels);
    fc1.zero_grad();
    fc2.zero_grad();
    fc1.backward(relu.backward(fc2.backward(loss.dlogits)));
    opt.step();
  }

  MlpEvalModel m;
  m.weights = {fc1.weight().value, fc2.weight().value};
  m.biases = {fc1.bias().value, fc2.bias().value};

  // Fixed held-out set, drawn from a dedicated stream so its contents do not
  // depend on the training schedule.
  Pcg32 eval_rng(seed ^ 0xc2b2ae3d27d4eb4fULL);
  for (int i = 0; i < eval_images; ++i) {
    const std::int64_t label = static_cast<std::int64_t>(
        eval_rng.next_below(static_cast<std::uint32_t>(kClasses)));
    Tensor img = task.sample_image(label, eval_rng);
    m.eval_set.inputs.push_back(img.reshaped({kInput}));
    m.eval_set.labels.push_back(label);
  }
  m.baseline_top1 = eval_mlp_top1(m);
  return m;
}

std::vector<std::int64_t> mlp_predict(const MlpEvalModel& m,
                                      const WeightTransform& transform) {
  std::vector<Tensor> w(m.weights.size());
  for (std::size_t l = 0; l < m.weights.size(); ++l) {
    w[l] = apply_transform(transform, m.weights[l], static_cast<int>(l));
  }
  std::vector<std::int64_t> preds;
  preds.reserve(m.eval_set.inputs.size());
  for (const Tensor& input : m.eval_set.inputs) {
    std::vector<float> act = input.vec();
    for (std::size_t l = 0; l < w.size(); ++l) {
      act = affine(w[l], m.biases[l], act);
      if (l + 1 < w.size()) {
        for (float& v : act) v = (v > 0.0f) ? v : 0.0f;
      }
    }
    preds.push_back(argmax(act));
  }
  return preds;
}

double eval_mlp_top1(const MlpEvalModel& m, const WeightTransform& transform) {
  return top1_accuracy(m.eval_set.labels, mlp_predict(m, transform));
}

// ----- LSTM -----------------------------------------------------------------

LstmEvalModel make_lstm_eval_model(std::uint64_t seed, int train_steps,
                                   int eval_sequences) {
  const std::int64_t kClasses = 6, kT = 12, kInput = 8, kHidden = 24;
  const std::int64_t kBatch = 24;

  Pcg32 task_rng(seed ^ 0xa0761d6478bd642fULL);
  SeqTask task(kClasses, kT, kInput, /*noise=*/0.3f, task_rng);

  Pcg32 rng(seed ^ 0xe7037ed1a0b428dbULL);
  Lstm lstm(kInput, kHidden, /*num_layers=*/1, rng);
  Linear readout(kHidden, kClasses, rng);
  Adam opt(collect_parameters({&lstm, &readout}), 5e-3f);
  ExecutionContext train{.training = true};

  for (int step = 0; step < train_steps; ++step) {
    std::vector<std::int64_t> labels(static_cast<std::size_t>(kBatch));
    Tensor x({kT, kBatch, kInput});
    for (std::int64_t n = 0; n < kBatch; ++n) {
      labels[static_cast<std::size_t>(n)] = static_cast<std::int64_t>(
          rng.next_below(static_cast<std::uint32_t>(kClasses)));
      Tensor seq = task.sample(labels[static_cast<std::size_t>(n)], rng);
      for (std::int64_t t = 0; t < kT; ++t) {
        for (std::int64_t i = 0; i < kInput; ++i) {
          x[(t * kBatch + n) * kInput + i] = seq[t * kInput + i];
        }
      }
    }

    Tensor out = lstm.forward(x, train);  // [T, B, H]
    Tensor last({kBatch, kHidden});
    for (std::int64_t n = 0; n < kBatch; ++n) {
      for (std::int64_t h = 0; h < kHidden; ++h) {
        last[n * kHidden + h] = out[((kT - 1) * kBatch + n) * kHidden + h];
      }
    }
    Tensor logits = readout.forward(last, train);
    LossResult loss = softmax_cross_entropy(logits, labels);

    lstm.zero_grad();
    readout.zero_grad();
    Tensor dlast = readout.backward(loss.dlogits);  // [B, H]
    Tensor dout({kT, kBatch, kHidden});             // zero except last step
    for (std::int64_t n = 0; n < kBatch; ++n) {
      for (std::int64_t h = 0; h < kHidden; ++h) {
        dout[((kT - 1) * kBatch + n) * kHidden + h] = dlast[n * kHidden + h];
      }
    }
    lstm.backward(dout);
    opt.step();
  }

  LstmEvalModel m;
  m.input = kInput;
  m.hidden = kHidden;
  m.classes = kClasses;
  m.timesteps = kT;
  auto params = lstm.cell(0).parameters();  // {wx, wh, b}
  m.wx = params[0]->value;
  m.wh = params[1]->value;
  m.b = params[2]->value;
  m.w_out = readout.weight().value;
  m.b_out = readout.bias().value;

  Pcg32 eval_rng(seed ^ 0x589965cc75374cc3ULL);
  for (int i = 0; i < eval_sequences; ++i) {
    const std::int64_t label = static_cast<std::int64_t>(
        eval_rng.next_below(static_cast<std::uint32_t>(kClasses)));
    m.eval_set.inputs.push_back(task.sample(label, eval_rng));
    m.eval_set.labels.push_back(label);
  }
  m.baseline_top1 = eval_lstm_top1(m);
  return m;
}

std::vector<std::int64_t> lstm_predict(const LstmEvalModel& m,
                                       const WeightTransform& transform) {
  const Tensor wx = apply_transform(transform, m.wx, 0);
  const Tensor wh = apply_transform(transform, m.wh, 1);
  const Tensor w_out = apply_transform(transform, m.w_out, 2);
  const std::int64_t H = m.hidden, I = m.input;

  std::vector<std::int64_t> preds;
  preds.reserve(m.eval_set.inputs.size());
  for (const Tensor& seq : m.eval_set.inputs) {
    std::vector<float> h(static_cast<std::size_t>(H), 0.0f);
    std::vector<float> c(static_cast<std::size_t>(H), 0.0f);
    for (std::int64_t t = 0; t < m.timesteps; ++t) {
      std::vector<float> x(seq.data() + t * I, seq.data() + (t + 1) * I);
      std::vector<float> gx = affine(wx, m.b, x);   // [4H], includes bias
      std::vector<float> gh = affine(wh, Tensor(), h);
      for (std::int64_t k = 0; k < H; ++k) {
        const std::size_t ki = static_cast<std::size_t>(k);
        const float zi = gx[ki] + gh[ki];
        const float zf = gx[ki + H] + gh[ki + H];
        const float zg = gx[ki + 2 * H] + gh[ki + 2 * H];
        const float zo = gx[ki + 3 * H] + gh[ki + 3 * H];
        const float i_g = sigmoid_value(zi);
        const float f_g = sigmoid_value(zf);
        const float g_g = tanh_value(zg);
        const float o_g = sigmoid_value(zo);
        c[ki] = f_g * c[ki] + i_g * g_g;
        h[ki] = o_g * tanh_value(c[ki]);
      }
    }
    preds.push_back(argmax(affine(w_out, m.b_out, h)));
  }
  return preds;
}

double eval_lstm_top1(const LstmEvalModel& m,
                      const WeightTransform& transform) {
  return top1_accuracy(m.eval_set.labels, lstm_predict(m, transform));
}

}  // namespace af
