#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include "nn/dense.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

Network one_dense(Rng& rng) {
  Network net;
  net.add(std::make_unique<Dense>(1, 1, rng));
  return net;
}

TEST(Sgd, PlainStepMovesAgainstGradient) {
  Rng rng(1);
  Network net = one_dense(rng);
  auto params = net.parameters();
  params[0]->value[0] = 1.0f;
  params[0]->grad[0] = 2.0f;
  params[1]->grad[0] = -1.0f;
  SgdOptimizer opt(net, {.learning_rate = 0.1f, .momentum = 0.0f, .clip_norm = 0.0f});
  opt.step();
  EXPECT_FLOAT_EQ(params[0]->value[0], 0.8f);
  EXPECT_FLOAT_EQ(params[1]->value[0], 0.1f);
  // Gradients cleared after the step.
  EXPECT_EQ(params[0]->grad[0], 0.0f);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  Rng rng(2);
  Network net = one_dense(rng);
  auto params = net.parameters();
  params[0]->value[0] = 0.0f;
  SgdOptimizer opt(net, {.learning_rate = 0.1f, .momentum = 0.5f, .clip_norm = 0.0f});
  params[0]->grad[0] = 1.0f;
  opt.step();
  EXPECT_FLOAT_EQ(params[0]->value[0], -0.1f);  // v = -0.1
  params[0]->grad[0] = 1.0f;
  opt.step();
  // v = 0.5*(-0.1) - 0.1 = -0.15; w = -0.25
  EXPECT_FLOAT_EQ(params[0]->value[0], -0.25f);
}

TEST(Sgd, ClippingBoundsUpdateNorm) {
  Rng rng(3);
  Network net = one_dense(rng);
  auto params = net.parameters();
  params[0]->value[0] = 0.0f;
  params[1]->value[0] = 0.0f;
  params[0]->grad[0] = 300.0f;
  params[1]->grad[0] = 400.0f;  // norm 500
  SgdOptimizer opt(net, {.learning_rate = 1.0f, .momentum = 0.0f, .clip_norm = 5.0f});
  opt.step();
  // Scaled by 5/500: updates -3, -4 -> norm 5.
  EXPECT_FLOAT_EQ(params[0]->value[0], -3.0f);
  EXPECT_FLOAT_EQ(params[1]->value[0], -4.0f);
}

TEST(Sgd, NoClippingBelowThreshold) {
  Rng rng(4);
  Network net = one_dense(rng);
  auto params = net.parameters();
  params[0]->value[0] = 0.0f;
  params[1]->value[0] = 0.0f;
  params[0]->grad[0] = 1.0f;
  SgdOptimizer opt(net, {.learning_rate = 1.0f, .momentum = 0.0f, .clip_norm = 5.0f});
  opt.step();
  EXPECT_FLOAT_EQ(params[0]->value[0], -1.0f);
}

TEST(Sgd, RejectsBadHyperparameters) {
  Rng rng(5);
  Network net = one_dense(rng);
  EXPECT_THROW(SgdOptimizer(net, {.learning_rate = 0.0f, .momentum = 0.0f,
                                  .clip_norm = 0.0f}),
               Error);
  EXPECT_THROW(SgdOptimizer(net, {.learning_rate = 0.1f, .momentum = 1.0f,
                                  .clip_norm = 0.0f}),
               Error);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // Minimize (w*x - 3)^2 with x = 1: w should approach 3.
  Rng rng(6);
  Network net = one_dense(rng);
  SgdOptimizer opt(net, {.learning_rate = 0.1f, .momentum = 0.0f, .clip_norm = 0.0f});
  const Tensor x = testing::filled({1}, 1.0f);
  for (int i = 0; i < 200; ++i) {
    const Tensor y = net.forward(x);
    Tensor grad({1});
    grad[0] = 2.0f * (y[0] - 3.0f);
    net.backward(grad);
    opt.step();
  }
  EXPECT_NEAR(net.forward(x)[0], 3.0f, 1e-3);
}

}  // namespace
}  // namespace frlfi
