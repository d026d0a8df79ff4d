// Compact ResNet (He et al., 2016) for the synthetic image task — the
// narrow-weight-distribution, batch-normalized CNN of the paper's
// evaluation. Architecturally a CIFAR-style ResNet: 3x3 stem, two stages of
// basic blocks with stride-2 downsampling between stages, global average
// pooling and a linear classifier.
#pragma once

#include <memory>
#include <vector>

#include "src/nn/activations.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/quant.hpp"

namespace af {

struct ResNetConfig {
  std::int64_t in_channels = 3;
  std::int64_t base_width = 8;
  std::int64_t num_classes = 10;
  std::int64_t image_size = 16;
  std::int64_t blocks_per_stage = 2;
  std::int64_t num_stages = 2;
};

class ResNetClassifier {
 public:
  ResNetClassifier(const ResNetConfig& cfg, std::uint64_t seed);

  /// x: [N, C, H, W] -> logits [N, num_classes]. Batch norm follows
  /// ectx.training; inference pushes nothing (not even the pooling dims).
  Tensor forward(const Tensor& x, ExecutionContext& ectx);

  /// Adjoint of the training-context forward.
  void backward(const Tensor& dlogits);

  /// Argmax class predictions through an inference context.
  std::vector<std::int64_t> predict(const Tensor& x);

  /// Cached forward records across the whole model (sessions assert 0).
  std::int64_t cache_depth() const;

  std::vector<Parameter*> parameters();
  void zero_grad();
  void clear_caches();

  ActQuant& act_quant() { return act_quant_; }
  const ResNetConfig& config() const { return cfg_; }

 private:
  struct BasicBlock {
    BasicBlock(std::int64_t in_ch, std::int64_t out_ch, std::int64_t stride,
               Pcg32& rng, const std::string& name);
    Tensor forward(const Tensor& x, ExecutionContext& ectx);
    Tensor backward(const Tensor& dy);
    std::vector<Module*> modules();

    bool has_projection;
    Conv2d conv1, conv2;
    std::unique_ptr<Conv2d> proj;  // 1x1 stride-s shortcut when shapes change
    BatchNorm2d bn1, bn2;
    ReLU relu1, relu2;
  };

  std::vector<Module*> all_modules();

  ResNetConfig cfg_;
  Conv2d stem_;
  BatchNorm2d stem_bn_;
  ReLU stem_relu_;
  std::vector<BasicBlock> blocks_;
  Linear fc_;
  ActQuant act_quant_;

  struct StepCtx {
    std::int64_t n = 0, c = 0, h = 0, w = 0;  // pooled feature map dims
  };
  std::vector<StepCtx> ctx_;
};

}  // namespace af
