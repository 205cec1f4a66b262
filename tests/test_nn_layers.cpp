#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

/// Finite-difference check of dLoss/dInput and dLoss/dParams for a network
/// under the scalar loss L = sum(output). Returns max relative error.
double gradient_check(Network& net, const Tensor& input) {
  const double eps = 1e-3;
  const auto loss = [&](const Tensor& x) {
    return static_cast<double>(testing::sum_of(net.forward(x)));
  };

  // Analytic gradients.
  net.zero_grad();
  const Tensor out = net.forward(input);
  const Tensor grad_in =
      testing::backward_through_layers(net, testing::filled(out.shape(), 1.0f));

  double max_err = 0.0;
  // Input gradient.
  for (std::size_t i = 0; i < input.size(); ++i) {
    Tensor xp = input, xm = input;
    xp[i] += static_cast<float>(eps);
    xm[i] -= static_cast<float>(eps);
    const double num = (loss(xp) - loss(xm)) / (2 * eps);
    const double err = std::abs(num - grad_in[i]) /
                       std::max(1.0, std::abs(num) + std::abs(grad_in[i]));
    max_err = std::max(max_err, err);
  }
  // Parameter gradients, through the training path (a tape step).
  net.zero_grad();
  Tape tape;
  net.forward(input, tape);
  net.backward(testing::filled(out.shape(), 1.0f), tape, 0);
  for (Parameter* p : net.parameters()) {
    std::vector<float> analytic = p->grad.data();
    for (std::size_t i = 0; i < p->value.size(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + static_cast<float>(eps);
      const double lp = loss(input);
      p->value[i] = saved - static_cast<float>(eps);
      const double lm = loss(input);
      p->value[i] = saved;
      const double num = (lp - lm) / (2 * eps);
      const double err = std::abs(num - analytic[i]) /
                         std::max(1.0, std::abs(num) + std::abs(analytic[i]));
      max_err = std::max(max_err, err);
    }
  }
  return max_err;
}

TEST(Dense, ForwardKnownValues) {
  Rng rng(1);
  Dense d(2, 2, rng, "d");
  d.weight().value = testing::tensor_of({1, 2, 3, 4}).reshaped({2, 2});
  d.bias().value = testing::tensor_of({0.5f, -0.5f});
  const Tensor y = d.forward(testing::tensor_of({1, 1}));
  EXPECT_FLOAT_EQ(y[0], 3.5f);
  EXPECT_FLOAT_EQ(y[1], 6.5f);
}

TEST(Dense, RejectsWrongInputSize) {
  Rng rng(1);
  Dense d(3, 2, rng);
  EXPECT_THROW(d.forward(Tensor({4})), Error);
  EXPECT_THROW(d.backward(Tensor({2})), Error);  // before forward
}

TEST(Dense, GradientCheck) {
  Rng rng(2);
  Network net;
  net.add(std::make_unique<Dense>(4, 3, rng));
  const Tensor x = Tensor::random_uniform({4}, rng, -1, 1);
  EXPECT_LT(gradient_check(net, x), 1e-3);
}

TEST(Dense, XavierInitBounded) {
  Rng rng(3);
  Dense d(100, 100, rng);
  const float bound = std::sqrt(6.0f / 200.0f);
  EXPECT_GE(*std::min_element(d.weight().value.data().begin(),
                              d.weight().value.data().end()),
            -bound);
  EXPECT_LE(d.weight().value.max(), bound);
  EXPECT_EQ(testing::sum_of(d.bias().value), 0.0f);
}

TEST(Conv2D, OutExtentFormula) {
  Rng rng(1);
  Conv2D c(1, 1, 3, 2, 1, rng);
  EXPECT_EQ(c.out_extent(5), 3u);  // (5+2-3)/2+1
  Conv2D c2(1, 1, 4, 3, 0, rng);
  EXPECT_EQ(c2.out_extent(18), 5u);
}

TEST(Conv2D, ForwardIdentityKernel) {
  Rng rng(1);
  Conv2D c(1, 1, 1, 1, 0, rng);
  c.weight().value = testing::filled({1, 1, 1, 1}, 2.0f);
  c.bias().value = testing::filled({1}, 1.0f);
  Tensor x({1, 2, 2});
  x.at3(0, 0, 0) = 1;
  x.at3(0, 1, 1) = 3;
  const Tensor y = c.forward(x);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 1, 1), 7.0f);
  EXPECT_FLOAT_EQ(y.at3(0, 0, 1), 1.0f);
}

TEST(Conv2D, ForwardSumKernel) {
  Rng rng(1);
  Conv2D c(1, 1, 2, 1, 0, rng);
  c.weight().value = testing::filled({1, 1, 2, 2}, 1.0f);
  c.bias().value = testing::filled({1}, 0.0f);
  Tensor x({1, 2, 3});
  for (std::size_t i = 0; i < 6; ++i) x[i] = static_cast<float>(i + 1);
  // x = [[1 2 3],[4 5 6]]; 2x2 sums: [1+2+4+5, 2+3+5+6] = [12, 16]
  const Tensor y = c.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 16.0f);
}

TEST(Conv2D, PaddingContributesZeros) {
  Rng rng(1);
  Conv2D c(1, 1, 3, 1, 1, rng);
  c.weight().value = testing::filled({1, 1, 3, 3}, 1.0f);
  c.bias().value = testing::filled({1}, 0.0f);
  const Tensor y = c.forward(testing::filled({1, 2, 2}, 1.0f));
  // Corner output touches 4 real pixels (others are padding).
  EXPECT_FLOAT_EQ(y.at3(0, 0, 0), 4.0f);
}

TEST(Conv2D, GradientCheck) {
  Rng rng(5);
  Network net;
  net.add(std::make_unique<Conv2D>(2, 3, 3, 2, 1, rng));
  const Tensor x = Tensor::random_uniform({2, 5, 6}, rng, -1, 1);
  EXPECT_LT(gradient_check(net, x), 1e-3);
}

TEST(Conv2D, RejectsWrongChannelCount) {
  Rng rng(1);
  Conv2D c(3, 4, 3, 1, 0, rng);
  EXPECT_THROW(c.forward(Tensor({2, 5, 5})), Error);
}

TEST(ReLU, ForwardBackward) {
  ReLU r;
  const Tensor y = r.forward(testing::tensor_of({-1, 0, 2}));
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  const Tensor g = r.backward(testing::tensor_of({5, 5, 5}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);  // gradient is zero at the kink's left side
  EXPECT_FLOAT_EQ(g[2], 5.0f);
}

TEST(Flatten, RoundTripsShape) {
  Flatten f;
  const Tensor y = f.forward(testing::filled({2, 3, 4}, 1.0f));
  EXPECT_EQ(y.rank(), 1u);
  EXPECT_EQ(y.size(), 24u);
  const Tensor g = f.backward(y);
  EXPECT_EQ(g.shape(), (std::vector<std::size_t>{2, 3, 4}));
}

TEST(Softmax, SumsToOneAndOrders) {
  const Tensor p = softmax(testing::tensor_of({1, 2, 3}));
  EXPECT_NEAR(testing::sum_of(p), 1.0f, 1e-6);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Softmax, StableForHugeLogits) {
  const Tensor p = softmax(testing::tensor_of({1000.0f, 1001.0f}));
  EXPECT_NEAR(testing::sum_of(p), 1.0f, 1e-6);
  EXPECT_FALSE(std::isnan(p[0]));
}

TEST(LogSoftmaxAt, MatchesLogOfSoftmax) {
  const Tensor logits = testing::tensor_of({0.3f, -1.2f, 2.0f});
  const Tensor p = softmax(logits);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(log_softmax_at(logits, i), std::log(p[i]), 1e-5);
}

TEST(Layers, CloneDropsCachesButKeepsParams) {
  Rng rng(7);
  Dense d(2, 2, rng);
  d.forward(testing::filled({2}, 1.0f));
  auto copy = d.clone();
  // The clone must refuse backward before its own forward.
  EXPECT_THROW(copy->backward(testing::filled({2}, 1.0f)), Error);
  auto* dc = dynamic_cast<Dense*>(copy.get());
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(dc->weight().value.data(), d.weight().value.data());
}

TEST(Layers, NamesDescribeConfiguration) {
  Rng rng(1);
  EXPECT_NE(Dense(2, 3, rng, "fc").name().find("2->3"), std::string::npos);
  EXPECT_NE(Conv2D(1, 2, 3, 1, 0, rng, "cv").name().find("k3"),
            std::string::npos);
}

}  // namespace
}  // namespace frlfi
