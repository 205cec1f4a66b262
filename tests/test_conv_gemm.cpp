#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

struct ConvCase {
  std::size_t in_c, out_c, h, w, k, stride, pad;
};

// Stride/padding/kernel grid including the drone-policy layer geometries
// (3->6 k4 s3, 6->12 k3 s2, 12->16 k2 s1 in the paper's DroneNav net).
const ConvCase kCases[] = {
    {1, 1, 5, 5, 3, 1, 0},  {1, 2, 6, 6, 3, 1, 1},  {2, 3, 7, 9, 3, 2, 1},
    {3, 6, 18, 32, 4, 3, 0}, {6, 12, 5, 10, 3, 2, 0}, {12, 16, 2, 4, 2, 1, 0},
    {2, 4, 8, 8, 5, 1, 2},  {3, 2, 9, 7, 4, 3, 2},  {1, 1, 4, 4, 4, 1, 0},
    {2, 2, 6, 5, 2, 2, 1},
    // Kernel extends past the whole image for some taps (k-1-pad >= w) with
    // stride > 1: regression for a truncation-vs-floor bug in the im2col
    // valid-range computation that read/wrote out of bounds.
    {1, 1, 2, 2, 4, 2, 1},  {2, 3, 3, 2, 4, 2, 1},
};

Tensor random_input(const ConvCase& c, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::random_uniform({c.in_c, c.h, c.w}, rng, -1.0f, 1.0f);
}

Tensor random_grad(Conv2D& conv, const ConvCase& c, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::random_uniform(
      {c.out_c, conv.out_extent(c.h), conv.out_extent(c.w)}, rng, -1.0f, 1.0f);
}

void expect_tensor_near(const Tensor& got, const Tensor& want, float tol,
                        const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(want[i]));
    EXPECT_NEAR(got[i], want[i], tol * scale) << what << " element " << i;
  }
}

TEST(ConvGemm, ForwardMatchesNaive) {
  for (const auto& c : kCases) {
    Rng rng(100 + c.k);
    Conv2D conv(c.in_c, c.out_c, c.k, c.stride, c.pad, rng, "conv");
    // Nonzero bias so bias-ordering bugs can't hide.
    for (std::size_t oc = 0; oc < c.out_c; ++oc)
      conv.bias().value[oc] = 0.1f * static_cast<float>(oc + 1);
    const Tensor x = random_input(c, 55 + c.h);
    const Tensor naive = conv.forward_naive(x);
    const Tensor fast = conv.forward(x);
    ASSERT_EQ(fast.shape(), naive.shape());
    // Wide outputs ride the ordered saxpy kernel and must be bit-identical;
    // narrow outputs (< 8 patch columns) use the packed dot kernel, which
    // reassociates, so they get the 1e-5 tolerance the issue allows.
    const std::size_t ncols = conv.out_extent(c.h) * conv.out_extent(c.w);
    for (std::size_t i = 0; i < fast.size(); ++i) {
      if (ncols >= 8) {
        EXPECT_EQ(fast[i], naive[i])
            << "k=" << c.k << " s=" << c.stride << " p=" << c.pad << " elem "
            << i;
      } else {
        EXPECT_NEAR(fast[i], naive[i],
                    1e-5f * std::max(1.0f, std::fabs(naive[i])))
            << "k=" << c.k << " s=" << c.stride << " p=" << c.pad << " elem "
            << i;
      }
    }
  }
}

TEST(ConvGemm, BackwardMatchesNaiveWithinTolerance) {
  for (const auto& c : kCases) {
    Rng rng_a(200 + c.k), rng_b(200 + c.k);
    Conv2D fast(c.in_c, c.out_c, c.k, c.stride, c.pad, rng_a, "fast");
    Conv2D naive(c.in_c, c.out_c, c.k, c.stride, c.pad, rng_b, "naive");
    ASSERT_EQ(fast.weight().value.data(), naive.weight().value.data());
    const Tensor x = random_input(c, 77 + c.w);
    const Tensor g = random_grad(fast, c, 99 + c.k);
    fast.forward(x);
    const Tensor gx_fast = fast.backward(g);
    const Tensor gx_naive = naive.backward_naive(x, g);
    expect_tensor_near(gx_fast, gx_naive, 1e-5f, "input grad");
    expect_tensor_near(fast.weight().grad, naive.weight().grad, 1e-5f,
                       "weight grad");
    expect_tensor_near(fast.bias().grad, naive.bias().grad, 1e-5f, "bias grad");
  }
}

TEST(ConvGemm, BackwardAccumulatesAcrossSteps) {
  // Two forward/backward steps must sum gradients the same way on both paths.
  const ConvCase c{3, 6, 18, 32, 4, 3, 0};
  Rng rng_a(31), rng_b(31);
  Conv2D fast(c.in_c, c.out_c, c.k, c.stride, c.pad, rng_a, "fast");
  Conv2D naive(c.in_c, c.out_c, c.k, c.stride, c.pad, rng_b, "naive");
  for (std::uint64_t step = 0; step < 2; ++step) {
    const Tensor x = random_input(c, 300 + step);
    const Tensor g = random_grad(fast, c, 400 + step);
    fast.forward(x);
    fast.backward(g);
    naive.backward_naive(x, g);
  }
  expect_tensor_near(fast.weight().grad, naive.weight().grad, 1e-5f,
                     "accumulated weight grad");
  expect_tensor_near(fast.bias().grad, naive.bias().grad, 1e-5f,
                     "accumulated bias grad");
}

TEST(ConvGemm, GradZeroSparsityStillExact) {
  // The naive backward skips zero grad elements; the GEMM path multiplies
  // them through. Both must agree when most of the gradient is zeroed.
  const ConvCase c{2, 3, 7, 9, 3, 2, 1};
  Rng rng_a(41), rng_b(41);
  Conv2D fast(c.in_c, c.out_c, c.k, c.stride, c.pad, rng_a, "fast");
  Conv2D naive(c.in_c, c.out_c, c.k, c.stride, c.pad, rng_b, "naive");
  const Tensor x = random_input(c, 500);
  Tensor g = random_grad(fast, c, 501);
  Rng mask(502);
  for (std::size_t i = 0; i < g.size(); ++i)
    if (mask.uniform() < 0.8) g[i] = 0.0f;
  fast.forward(x);
  const Tensor gx_fast = fast.backward(g);
  const Tensor gx_naive = naive.backward_naive(x, g);
  expect_tensor_near(gx_fast, gx_naive, 1e-5f, "sparse input grad");
  expect_tensor_near(fast.weight().grad, naive.weight().grad, 1e-5f,
                     "sparse weight grad");
}

TEST(Im2Col, RoundTripAdjoint) {
  // <im2col(x), y> == <x, col2im(y)>: the scatter is the exact adjoint of
  // the gather, which is what backward correctness rests on.
  const ConvShape s{2, 6, 7, 3, 2, 1};
  Rng rng(61);
  const Tensor x = Tensor::random_uniform({s.in_c, s.h, s.w}, rng, -1.0f, 1.0f);
  std::vector<float> cols(s.rows() * s.cols());
  im2col(x.data().data(), s, cols.data());
  std::vector<float> y(cols.size());
  for (auto& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> back(x.size(), 0.0f);
  col2im_accumulate(y.data(), s, back.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.size(); ++i)
    lhs += static_cast<double>(cols[i]) * y[i];
  for (std::size_t i = 0; i < back.size(); ++i)
    rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(Im2Col, PaddingColumnsAreZero) {
  const ConvShape s{1, 3, 3, 3, 1, 1};
  Tensor x = testing::filled({1, 3, 3}, 1.0f);
  std::vector<float> cols(s.rows() * s.cols());
  im2col(x.data().data(), s, cols.data());
  // Top-left output taps the (-1,-1) corner through kernel tap (0,0):
  // row r=0, column 0 must be an explicit zero.
  EXPECT_EQ(cols[0], 0.0f);
  // Center tap (ky=1,kx=1) never leaves the image: its whole row is ones.
  const std::size_t center = 1 * s.k + 1;
  for (std::size_t j = 0; j < s.cols(); ++j)
    EXPECT_EQ(cols[center * s.cols() + j], 1.0f);
}

}  // namespace
}  // namespace frlfi
