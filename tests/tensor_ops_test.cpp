#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"
#include "src/util/parallel.hpp"

namespace af {
namespace {

TEST(Matmul, Known2x2) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c = matmul(a, b);
  EXPECT_EQ(c.at({0, 0}), 19.0f);
  EXPECT_EQ(c.at({0, 1}), 22.0f);
  EXPECT_EQ(c.at({1, 0}), 43.0f);
  EXPECT_EQ(c.at({1, 1}), 50.0f);
}

TEST(Matmul, RectangularShapes) {
  Tensor a({2, 3}, {1, 0, 2, 0, 1, 1});
  Tensor b({3, 1}, {1, 2, 3});
  Tensor c = matmul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 1}));
  EXPECT_EQ(c[0], 7.0f);
  EXPECT_EQ(c[1], 5.0f);
}

TEST(Matmul, TransposeFlagsAgreeWithExplicitTranspose) {
  Pcg32 rng(1);
  Tensor a = Tensor::randn({3, 4}, rng);
  Tensor b = Tensor::randn({3, 5}, rng);
  Tensor expect = matmul(transpose2d(a), b);
  Tensor got = matmul(a, b, /*trans_a=*/true);
  ASSERT_EQ(got.shape(), expect.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-5f);
  }
}

bool same_bits(const float* x, const float* y, std::int64_t n) {
  return std::memcmp(x, y, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

// x*W^T (the backend dot chain) must equal the non-transposed panel
// product bit for bit: m runs from one row past the AVX2 entry's 4-row
// blocks and across the 16-row parallel chunks (at 1 and 4 threads), k
// crosses the 256-wide k-block, n has an 8-column tail, C starts nonzero,
// and a column of signed-zero A meets infinite B (the zero skip keeps
// 0*inf out).
TEST(Matmul, TransBAgreesWithExplicitTranspose) {
  Pcg32 rng(2);
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    for (const std::int64_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33, 64}) {
      for (std::int64_t k : {1, 7, 64, 256, 300, 600}) {
        for (std::int64_t n : {1, 7, 8, 24, 67}) {
          Tensor a = Tensor::randn({m, k}, rng);
          Tensor b = Tensor::randn({n, k}, rng);
          const std::int64_t kz = k / 2;
          for (std::int64_t i = 0; i < m; ++i) {
            a[i * k + kz] = i % 2 == 0 ? 0.0f : -0.0f;
            if (k > 1) a[i * k + (i * 5 + 1) % k] = 0.0f;
          }
          for (std::int64_t j = 0; j < n; ++j) {
            b[j * k + kz] = j % 2 == 0 ? INFINITY : -INFINITY;
          }
          const Tensor c0 = Tensor::randn({m, n}, rng);
          Tensor got = c0;
          Tensor expect = c0;
          matmul_acc(got, a, b, false, /*trans_b=*/true);
          matmul_acc(expect, a, transpose2d(b));
          EXPECT_TRUE(same_bits(got.data(), expect.data(), got.numel()))
              << "threads=" << threads << " m=" << m << " k=" << k
              << " n=" << n;
          for (std::int64_t i = 0; i < got.numel(); ++i) {
            ASSERT_FALSE(std::isnan(got[i])) << "zero skip lost at " << i;
          }
          const Tensor fresh = matmul(a, b, false, /*trans_b=*/true);
          const Tensor fresh_expect = matmul(a, transpose2d(b));
          EXPECT_TRUE(same_bits(fresh.data(), fresh_expect.data(),
                                fresh.numel()))
              << "threads=" << threads << " m=" << m << " k=" << k
              << " n=" << n;
        }
      }
    }
  }
  set_num_threads(0);
  // Row i of a 33-row product (three row chunks) equals the same row run
  // solo: what makes incremental decode equal full recompute.
  const std::int64_t m = 33, k = 300, n = 67;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({n, k}, rng);
  const Tensor full = matmul(a, b, false, /*trans_b=*/true);
  for (std::int64_t i = 0; i < m; ++i) {
    Tensor row({1, k});
    std::memcpy(row.data(), a.data() + i * k,
                static_cast<std::size_t>(k) * sizeof(float));
    const Tensor solo = matmul(row, b, false, /*trans_b=*/true);
    EXPECT_TRUE(same_bits(solo.data(), full.data() + i * n, n)) << "row " << i;
  }
}

TEST(Matmul, InnerDimMismatchThrows) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_THROW(matmul(a, b), Error);
}

TEST(Matmul, BothTransposeFlagsThrow) {
  // No product runs op(A)^T * op(B)^T; the combination is rejected even
  // when the shapes agree.
  Tensor a({3, 2});
  Tensor b({4, 3});
  EXPECT_THROW(matmul(a, b, /*trans_a=*/true, /*trans_b=*/true), Error);
  Tensor c({2, 4});
  EXPECT_THROW(matmul_acc(c, a, b, true, true), Error);
}

TEST(MatmulAcc, Accumulates) {
  Tensor a({1, 1}, {2});
  Tensor b({1, 1}, {3});
  Tensor c({1, 1}, {10});
  matmul_acc(c, a, b);
  EXPECT_EQ(c[0], 16.0f);
}

TEST(Elementwise, AddSubMulScale) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {4, 5, 6});
  EXPECT_TRUE(add(a, b).equals(Tensor({3}, {5, 7, 9})));
  EXPECT_TRUE(sub(b, a).equals(Tensor({3}, {3, 3, 3})));
  EXPECT_TRUE(mul(a, b).equals(Tensor({3}, {4, 10, 18})));
  EXPECT_TRUE(scale(a, 2.0f).equals(Tensor({3}, {2, 4, 6})));
}

TEST(Elementwise, InplaceVariants) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {10, 20});
  add_inplace(a, b);
  EXPECT_TRUE(a.equals(Tensor({2}, {11, 22})));
  axpy_inplace(a, -1.0f, b);
  EXPECT_TRUE(a.equals(Tensor({2}, {1, 2})));
}

TEST(Elementwise, ShapeMismatchThrows) {
  Tensor a({2}), b({3});
  EXPECT_THROW(add(a, b), Error);
}

TEST(RowBias, AddsToEveryRow) {
  Tensor x({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor bias({3}, {1, 2, 3});
  add_row_bias_inplace(x, bias);
  EXPECT_TRUE(x.equals(Tensor({2, 3}, {1, 2, 3, 2, 3, 4})));
}

TEST(SumRows, CollapsesRows) {
  Tensor x({2, 3}, {1, 2, 3, 10, 20, 30});
  EXPECT_TRUE(sum_rows(x).equals(Tensor({3}, {11, 22, 33})));
}

TEST(Transpose2d, Involution) {
  Pcg32 rng(3);
  Tensor x = Tensor::randn({3, 5}, rng);
  EXPECT_TRUE(transpose2d(transpose2d(x)).equals(x));
}

TEST(ConcatSplit, RoundTrip) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 3}, {5, 6, 7, 8, 9, 10});
  Tensor cat = concat_cols(a, b);
  ASSERT_EQ(cat.shape(), (Shape{2, 5}));
  EXPECT_EQ(cat.at({0, 0}), 1.0f);
  EXPECT_EQ(cat.at({0, 2}), 5.0f);
  EXPECT_EQ(cat.at({1, 4}), 10.0f);
  Tensor a2, b2;
  split_cols(cat, 2, a2, b2);
  EXPECT_TRUE(a2.equals(a));
  EXPECT_TRUE(b2.equals(b));
}

TEST(Softmax, RowsSumToOne) {
  Tensor x({2, 4}, {1, 2, 3, 4, -1, 0, 1, 100});
  Tensor y = softmax_rows(x);
  for (std::int64_t i = 0; i < 2; ++i) {
    float s = 0;
    for (std::int64_t j = 0; j < 4; ++j) s += y.at({i, j});
    EXPECT_NEAR(s, 1.0f, 1e-5f);
  }
  // The huge logit dominates without overflow.
  EXPECT_NEAR(y.at({1, 3}), 1.0f, 1e-5f);
}

TEST(Softmax, InvariantToRowShift) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b({1, 3}, {11, 12, 13});
  Tensor ya = softmax_rows(a), yb = softmax_rows(b);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_NEAR(ya[i], yb[i], 1e-6f);
}

TEST(Softmax, BackwardMatchesFiniteDifference) {
  Pcg32 rng(4);
  Tensor x = Tensor::randn({2, 5}, rng);
  Tensor dy = Tensor::randn({2, 5}, rng);
  Tensor y = softmax_rows(x);
  Tensor dx = softmax_rows_backward(y, dy);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    Tensor yp = softmax_rows(xp), ym = softmax_rows(xm);
    double fd = 0;
    for (std::int64_t j = 0; j < x.numel(); ++j) {
      fd += double(yp[j] - ym[j]) / (2 * eps) * dy[j];
    }
    EXPECT_NEAR(dx[i], fd, 5e-3f) << "element " << i;
  }
}

TEST(ArgmaxRows, PicksFirstOfRowMax) {
  Tensor x({2, 3}, {0, 5, 1, 9, 2, 3});
  auto idx = argmax_rows(x);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Im2col, IdentityKernelNoPad) {
  // 1x1 kernel, stride 1: im2col is just a reshape.
  Tensor img({1, 2, 2}, {1, 2, 3, 4});
  Conv2dSpec spec{1, 1, 1, 1, 0};
  Tensor cols = im2col(img, spec);
  ASSERT_EQ(cols.shape(), (Shape{1, 4}));
  EXPECT_TRUE(cols.equals(Tensor({1, 4}, {1, 2, 3, 4})));
}

TEST(Im2col, KnownPatchesWithPadding) {
  Tensor img({1, 2, 2}, {1, 2, 3, 4});
  Conv2dSpec spec{1, 3, 3, 1, 1};
  Tensor cols = im2col(img, spec);
  ASSERT_EQ(cols.shape(), (Shape{9, 4}));
  // Center tap (kh=1,kw=1) reproduces the image.
  const std::int64_t center = 4;
  EXPECT_EQ(cols.at({center, 0}), 1.0f);
  EXPECT_EQ(cols.at({center, 3}), 4.0f);
  // Top-left tap at output (0,0) looks at padded region.
  EXPECT_EQ(cols.at({0, 0}), 0.0f);
  // Top-left tap at output (1,1) sees pixel (0,0).
  EXPECT_EQ(cols.at({0, 3}), 1.0f);
}

TEST(Im2col, StrideReducesOutput) {
  Tensor img({1, 4, 4});
  Conv2dSpec spec{1, 2, 2, 2, 0};
  Tensor cols = im2col(img, spec);
  EXPECT_EQ(cols.shape(), (Shape{4, 4}));
}

TEST(Col2im, AdjointOfIm2col) {
  // <col2im(C), X> == <C, im2col(X)> for random C, X (adjoint property).
  Pcg32 rng(5);
  Tensor img = Tensor::randn({2, 5, 5}, rng);
  Conv2dSpec spec{2, 3, 3, 2, 1};
  Tensor cols = im2col(img, spec);
  Tensor c = Tensor::randn(cols.shape(), rng);
  Tensor back = col2im(c, spec, 5, 5);
  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < img.numel(); ++i) {
    lhs += double(back[i]) * img[i];
  }
  for (std::int64_t i = 0; i < cols.numel(); ++i) {
    rhs += double(c[i]) * cols[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Conv2dSpec, OutputDims) {
  Conv2dSpec spec{3, 3, 3, 1, 1};
  EXPECT_EQ(spec.out_h(16), 16);
  Conv2dSpec down{3, 3, 3, 2, 1};
  EXPECT_EQ(down.out_h(16), 8);
}

}  // namespace
}  // namespace af
