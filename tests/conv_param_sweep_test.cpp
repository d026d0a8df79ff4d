// Parameterized sweep of Conv2d against a naive direct-convolution
// reference across kernel/stride/padding/channel combinations, plus
// gradient checks at each geometry. im2col lowering has sharp edge cases
// (padding corners, stride remainders); this locks all of them.
#include <gtest/gtest.h>

#include <cmath>

#include "src/nn/conv2d.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"
#include "tests/grad_check.hpp"

namespace af {
namespace {

struct ConvCase {
  std::int64_t in_ch, out_ch, kernel, stride, pad, size;
};

std::string case_name(const testing::TestParamInfo<ConvCase>& info) {
  // Built with += rather than operator+ chains: GCC 12's -Wrestrict pass
  // reports a false positive on `const char* + std::string&&` under -O2.
  const auto& c = info.param;
  std::string s = "c";
  s += std::to_string(c.in_ch);
  s += "f";
  s += std::to_string(c.out_ch);
  s += "k";
  s += std::to_string(c.kernel);
  s += "s";
  s += std::to_string(c.stride);
  s += "p";
  s += std::to_string(c.pad);
  s += "n";
  s += std::to_string(c.size);
  return s;
}

class ConvSweep : public testing::TestWithParam<ConvCase> {};

// Direct convolution, the obviously-correct O(everything) reference.
Tensor conv_reference(const Tensor& x, const Tensor& w, const Tensor& b,
                      std::int64_t stride, std::int64_t pad) {
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), ww = x.dim(3);
  const std::int64_t f = w.dim(0), k = w.dim(2);
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (ww + 2 * pad - k) / stride + 1;
  Tensor y({n, f, oh, ow});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t fo = 0; fo < f; ++fo) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = b[fo];
          for (std::int64_t ci = 0; ci < c; ++ci) {
            for (std::int64_t ky = 0; ky < k; ++ky) {
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t sy = oy * stride + ky - pad;
                const std::int64_t sx = ox * stride + kx - pad;
                if (sy < 0 || sy >= h || sx < 0 || sx >= ww) continue;
                acc += double(w.at({fo, ci, ky, kx})) * x.at({i, ci, sy, sx});
              }
            }
          }
          y.at({i, fo, oy, ox}) = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

TEST_P(ConvSweep, ForwardMatchesDirectReference) {
  const auto& p = GetParam();
  Pcg32 rng(11);
  Conv2d conv(p.in_ch, p.out_ch, p.kernel, p.stride, p.pad, rng);
  Tensor x = Tensor::randn({2, p.in_ch, p.size, p.size}, rng);
  ExecutionContext infer;
  Tensor y = conv.forward(x, infer);
  Tensor ref = conv_reference(x, conv.parameters()[0]->value,
                              conv.parameters()[1]->value, p.stride, p.pad);
  ASSERT_EQ(y.shape(), ref.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_NEAR(y[i], ref[i], 1e-4f) << i;
  }
}

TEST_P(ConvSweep, GradCheckInput) {
  ExecutionContext train{.training = true};
  const auto& p = GetParam();
  Pcg32 rng(12);
  Conv2d conv(p.in_ch, p.out_ch, p.kernel, p.stride, p.pad, rng);
  Tensor x = Tensor::randn({1, p.in_ch, p.size, p.size}, rng);
  Tensor y = conv.forward(x, train);
  Tensor dy = Tensor::randn(y.shape(), rng);
  Tensor dx = conv.backward(dy);
  expect_grad_matches(x, dx, [&] {
    Tensor yy = conv.forward(x, train);
    double l = dot_all(yy, dy);
    conv.backward(dy);
    return l;
  }, 1e-3f, 4e-2f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSweep,
    testing::Values(ConvCase{1, 1, 1, 1, 0, 5},   // pointwise
                    ConvCase{2, 3, 3, 1, 1, 6},   // padded same-size
                    ConvCase{3, 2, 3, 2, 1, 8},   // strided downsample
                    ConvCase{1, 4, 5, 1, 2, 7},   // large kernel
                    ConvCase{2, 2, 3, 1, 0, 6},   // valid (no pad)
                    ConvCase{4, 1, 1, 2, 0, 8},   // 1x1 strided projection
                    ConvCase{2, 2, 3, 3, 1, 9},   // stride > 2, remainder
                    ConvCase{1, 2, 2, 2, 0, 6}),  // even kernel
    case_name);

}  // namespace
}  // namespace af
