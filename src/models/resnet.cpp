#include "src/models/resnet.hpp"

#include <algorithm>

#include "src/runtime/execution_context.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"

namespace af {

ResNetClassifier::BasicBlock::BasicBlock(std::int64_t in_ch,
                                         std::int64_t out_ch,
                                         std::int64_t stride, Pcg32& rng,
                                         const std::string& name)
    : has_projection(stride != 1 || in_ch != out_ch),
      conv1(in_ch, out_ch, 3, stride, 1, rng, /*has_bias=*/false,
            name + ".conv1"),
      conv2(out_ch, out_ch, 3, 1, 1, rng, /*has_bias=*/false, name + ".conv2"),
      bn1(out_ch, name + ".bn1"),
      bn2(out_ch, name + ".bn2") {
  if (has_projection) {
    proj = std::make_unique<Conv2d>(in_ch, out_ch, 1, stride, 0, rng,
                                    /*has_bias=*/false, name + ".proj");
  }
}

Tensor ResNetClassifier::BasicBlock::forward(const Tensor& x,
                                             ExecutionContext& ectx) {
  Tensor h = relu1.forward(bn1.forward(conv1.forward(x, ectx), ectx), ectx);
  h = bn2.forward(conv2.forward(h, ectx), ectx);
  Tensor shortcut = has_projection ? proj->forward(x, ectx) : x;
  return relu2.forward(add(h, shortcut), ectx);
}

Tensor ResNetClassifier::BasicBlock::backward(const Tensor& dy) {
  Tensor dsum = relu2.backward(dy);
  // Main path.
  Tensor dx = conv1.backward(
      bn1.backward(relu1.backward(conv2.backward(bn2.backward(dsum)))));
  // Shortcut path.
  if (has_projection) {
    add_inplace(dx, proj->backward(dsum));
  } else {
    add_inplace(dx, dsum);
  }
  return dx;
}

std::vector<Module*> ResNetClassifier::BasicBlock::modules() {
  std::vector<Module*> mods = {&conv1, &conv2, &bn1, &bn2, &relu1, &relu2};
  if (proj) mods.push_back(proj.get());
  return mods;
}

ResNetClassifier::ResNetClassifier(const ResNetConfig& cfg, std::uint64_t seed)
    : cfg_(cfg),
      stem_([&] {
        Pcg32 r(seed, 21);
        return Conv2d(cfg.in_channels, cfg.base_width, 3, 1, 1, r,
                      /*has_bias=*/false, "stem");
      }()),
      stem_bn_(cfg.base_width, "stem_bn"),
      fc_([&] {
        Pcg32 r(seed, 22);
        const std::int64_t top_width = cfg.base_width
                                       << (cfg.num_stages - 1);
        return Linear(top_width, cfg.num_classes, r, true, "fc");
      }()) {
  Pcg32 rng(seed, 23);
  std::int64_t in_ch = cfg.base_width;
  for (std::int64_t stage = 0; stage < cfg.num_stages; ++stage) {
    const std::int64_t out_ch = cfg.base_width << stage;
    for (std::int64_t b = 0; b < cfg.blocks_per_stage; ++b) {
      const std::int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      // Built with += rather than operator+ chains: GCC 12's -Wrestrict
      // pass reports a false positive on `const char* + std::string&&`.
      std::string name = "s";
      name += std::to_string(stage);
      name += "b";
      name += std::to_string(b);
      blocks_.emplace_back(in_ch, out_ch, stride, rng, name);
      in_ch = out_ch;
    }
  }
}

Tensor ResNetClassifier::forward(const Tensor& x, ExecutionContext& ectx) {
  AF_CHECK(x.rank() == 4 && x.dim(1) == cfg_.in_channels,
           "ResNet expects [N, C, H, W]");
  Tensor h = stem_relu_.forward(
      stem_bn_.forward(stem_.forward(x, ectx), ectx), ectx);
  h = act_quant_.process("stem", h);
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    h = act_quant_.process("block" + std::to_string(i),
                           blocks_[i].forward(h, ectx));
  }
  // Global average pooling.
  const std::int64_t n = h.dim(0), c = h.dim(1), hh = h.dim(2), ww = h.dim(3);
  Tensor pooled({n, c});
  const float inv = 1.0f / static_cast<float>(hh * ww);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = h.data() + (i * c + ch) * hh * ww;
      double acc = 0;
      for (std::int64_t j = 0; j < hh * ww; ++j) acc += plane[j];
      pooled[i * c + ch] = static_cast<float>(acc) * inv;
    }
  }
  if (ectx.training) ctx_.push_back({n, c, hh, ww});
  return fc_.forward(act_quant_.process("pooled", pooled), ectx);
}

void ResNetClassifier::backward(const Tensor& dlogits) {
  AF_CHECK(!ctx_.empty(), "ResNet backward without forward");
  const StepCtx ctx = ctx_.back();
  ctx_.pop_back();
  Tensor dpooled = fc_.backward(dlogits);
  // Un-pool: spread the averaged gradient uniformly over the plane.
  Tensor dh({ctx.n, ctx.c, ctx.h, ctx.w});
  const float inv = 1.0f / static_cast<float>(ctx.h * ctx.w);
  for (std::int64_t i = 0; i < ctx.n; ++i) {
    for (std::int64_t ch = 0; ch < ctx.c; ++ch) {
      const float g = dpooled[i * ctx.c + ch] * inv;
      float* plane = dh.data() + (i * ctx.c + ch) * ctx.h * ctx.w;
      for (std::int64_t j = 0; j < ctx.h * ctx.w; ++j) plane[j] = g;
    }
  }
  for (std::size_t i = blocks_.size(); i-- > 0;) {
    dh = blocks_[i].backward(dh);
  }
  stem_.backward(stem_bn_.backward(stem_relu_.backward(dh)));
}

std::vector<std::int64_t> ResNetClassifier::predict(const Tensor& x) {
  ExecutionContext ectx;
  return argmax_rows(forward(x, ectx));
}

std::vector<Module*> ResNetClassifier::all_modules() {
  std::vector<Module*> mods = {&stem_, &stem_bn_, &stem_relu_, &fc_};
  for (auto& blk : blocks_) {
    for (Module* m : blk.modules()) mods.push_back(m);
  }
  return mods;
}

std::int64_t ResNetClassifier::cache_depth() const {
  std::int64_t n = stem_.cache_depth() + stem_bn_.cache_depth() +
                   stem_relu_.cache_depth() + fc_.cache_depth() +
                   static_cast<std::int64_t>(ctx_.size());
  for (const auto& blk : blocks_) {
    n += blk.conv1.cache_depth() + blk.conv2.cache_depth() +
         blk.bn1.cache_depth() + blk.bn2.cache_depth() +
         blk.relu1.cache_depth() + blk.relu2.cache_depth();
    if (blk.proj) n += blk.proj->cache_depth();
  }
  return n;
}

std::vector<Parameter*> ResNetClassifier::parameters() {
  return collect_parameters(all_modules());
}

void ResNetClassifier::zero_grad() {
  for (Module* m : all_modules()) m->zero_grad();
}

void ResNetClassifier::clear_caches() {
  for (Module* m : all_modules()) m->clear_cache();
  ctx_.clear();
}

}  // namespace af
