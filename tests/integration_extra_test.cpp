// Cross-module integration tests that tie the stack together end to end:
// datapath-vs-quantizer consistency and the determinism guarantees the
// benches rely on.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/algorithm1.hpp"
#include "src/hw/accelerator.hpp"
#include "src/hw/hfint_pe.hpp"
#include "src/models/trainer.hpp"
#include "src/numerics/registry.hpp"
#include "src/util/check.hpp"

namespace af {
namespace {

TransformerConfig small_tf() {
  TransformerConfig cfg;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ffn = 64;
  cfg.enc_layers = 1;
  cfg.dec_layers = 1;
  return cfg;
}

TEST(Integration, HfintDatapathMatchesFakeQuantizedMatmul) {
  // The hardware GEMV and the software fake-quantization must describe the
  // same arithmetic: datapath(acc) == dot(Q(w), Q(x)) exactly.
  Pcg32 rng(53);
  HfintPe pe({8, 3, 16, 256});
  auto wq = make_quantizer(FormatKind::kAdaptivFloat, 8);
  for (int trial = 0; trial < 20; ++trial) {
    Tensor w = Tensor::randn({64}, rng, rng.uniform(0.05f, 3.0f));
    Tensor x = Tensor::randn({64}, rng, rng.uniform(0.05f, 3.0f));
    const AdaptivFloatFormat wf = format_for_tensor(w, 8, 3);
    const AdaptivFloatFormat xf = format_for_tensor(x, 8, 3);
    std::vector<std::uint16_t> wc(64), xc(64);
    for (int i = 0; i < 64; ++i) {
      wc[i] = wf.encode(w[i]);
      xc[i] = xf.encode(x[i]);
    }
    // Software: quantize both tensors, dot product in double.
    wq->calibrate(w);
    Tensor qw = wq->quantize(w);
    wq->calibrate(x);
    Tensor qx = wq->quantize(x);
    double ref = 0;
    for (int i = 0; i < 64; ++i) ref += double(qw[i]) * qx[i];
    // Hardware: exact fixed-point accumulation.
    const std::int64_t acc = pe.accumulate(0, wc, xc);
    EXPECT_DOUBLE_EQ(pe.acc_to_value(acc, wf, xf), ref) << trial;
  }
}

TEST(Integration, AcceleratorIsDeterministic) {
  Pcg32 rng(54);
  LstmLayerWeights w;
  w.wx = Tensor::randn({4 * 32, 32}, rng, 0.08f);
  w.wh = Tensor::randn({4 * 32, 32}, rng, 0.08f);
  w.bias = Tensor::randn({4 * 32}, rng, 0.1f);
  std::vector<Tensor> xs;
  for (int t = 0; t < 4; ++t) {
    xs.push_back(Tensor::rand_uniform({32}, rng, -1.0f, 1.0f));
  }
  AcceleratorConfig cfg;
  cfg.kind = PeKind::kHfint;
  cfg.hidden = 32;
  cfg.input = 32;
  cfg.vector_size = 8;
  Accelerator a(cfg), b(cfg);
  auto ra = a.run(w, xs);
  auto rb = b.run(w, xs);
  EXPECT_EQ(ra.cycles, rb.cycles);
  EXPECT_EQ(ra.final_h, rb.final_h);
  EXPECT_DOUBLE_EQ(ra.energy_fj, rb.energy_fj);
}

TEST(Integration, FourBitAcceleratorStillTracksReference) {
  // The deployment headline: even a 4-bit HFINT datapath (AdaptivFloat<4,3>
  // operands — pure powers of two) produces a usable LSTM trajectory.
  Pcg32 rng(55);
  LstmLayerWeights w;
  w.wx = Tensor::randn({4 * 32, 32}, rng, 0.08f);
  w.wh = Tensor::randn({4 * 32, 32}, rng, 0.08f);
  w.bias = Tensor::randn({4 * 32}, rng, 0.1f);
  std::vector<Tensor> xs;
  for (int t = 0; t < 4; ++t) {
    xs.push_back(Tensor::rand_uniform({32}, rng, -1.0f, 1.0f));
  }
  AcceleratorConfig cfg;
  cfg.kind = PeKind::kHfint;
  cfg.op_bits = 4;
  cfg.scale_bits = 8;
  cfg.hidden = 32;
  cfg.input = 32;
  cfg.vector_size = 8;
  Accelerator acc(cfg);
  auto run = acc.run(w, xs);
  auto ref = lstm_reference(w, xs);
  double err = 0;
  for (std::size_t j = 0; j < ref.size(); ++j) {
    err += std::fabs(run.final_h[j] - ref[j]);
  }
  EXPECT_LT(err / ref.size(), 0.5);  // coarse but not broken
  for (float h : run.final_h) EXPECT_TRUE(std::isfinite(h));
}

TEST(Integration, EvalSetsAreFixedAcrossCalls) {
  // The PTQ/QAR comparisons in the benches require every evaluation call to
  // see the identical held-out set.
  TransformerBundle b(56, small_tf());
  EXPECT_DOUBLE_EQ(eval_transformer_bleu(b, 10), eval_transformer_bleu(b, 10));
  ResNetConfig rc;
  rc.base_width = 4;
  rc.blocks_per_stage = 1;
  ResNetBundle r(57, rc);
  EXPECT_DOUBLE_EQ(eval_resnet_top1(r, 50), eval_resnet_top1(r, 50));
}

TEST(Integration, QuantizerSweepNeverThrowsAcrossWidths) {
  // Factory + calibrate + quantize must be total over the full grid the
  // benches exercise (all kinds x widths 3..16) on adversarial inputs.
  Pcg32 rng(58);
  Tensor nasty({6}, {0.0f, 1e-30f, -1e30f, 3.14159f, -0.5f, 1e6f});
  for (FormatKind kind : all_format_kinds()) {
    for (int bits = 3; bits <= 16; ++bits) {
      auto q = make_quantizer(kind, bits);
      q->calibrate(nasty);
      Tensor out = q->quantize(nasty);
      for (std::int64_t i = 0; i < out.numel(); ++i) {
        EXPECT_TRUE(std::isfinite(out[i]))
            << format_kind_name(kind) << " " << bits;
      }
    }
  }
}

}  // namespace
}  // namespace af
