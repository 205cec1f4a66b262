#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include "nn/activations.hpp"

namespace frlfi {
namespace {

TEST(TdLoss, GradientOnlyOnChosenAction) {
  const Tensor q = Tensor::from_vector({1.0f, 2.0f, 3.0f});
  float loss = 0.0f;
  const Tensor g = td_loss_grad(q, 1, 5.0f, &loss);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], -3.0f);
  EXPECT_FLOAT_EQ(g[2], 0.0f);
  EXPECT_FLOAT_EQ(loss, 4.5f);
}

TEST(TdLoss, ZeroErrorZeroGrad) {
  const Tensor q = Tensor::from_vector({1.0f, 2.0f});
  const Tensor g = td_loss_grad(q, 0, 1.0f);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
}

TEST(TdLoss, RejectsBadAction) {
  EXPECT_THROW(td_loss_grad(Tensor({2}), 2, 0.0f), Error);
}

TEST(PolicyGradient, MatchesFiniteDifference) {
  const Tensor logits = Tensor::from_vector({0.2f, -0.5f, 1.0f});
  const std::size_t action = 2;
  const float advantage = 1.7f;
  const Tensor g = policy_gradient_grad(logits, action, advantage);

  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += static_cast<float>(eps);
    lm[i] -= static_cast<float>(eps);
    // L = -advantage * log softmax(logits)[action]
    const double num = (-advantage * log_softmax_at(lp, action) +
                        advantage * log_softmax_at(lm, action)) /
                       (2 * eps);
    EXPECT_NEAR(g[i], num, 1e-3) << "component " << i;
  }
}

TEST(PolicyGradient, ZeroAdvantageZeroGrad) {
  const Tensor g =
      policy_gradient_grad(Tensor::from_vector({1.0f, 2.0f}), 0, 0.0f);
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);
}

TEST(PolicyGradient, GradSumsToZero) {
  // softmax - onehot always sums to zero; scaled by advantage it still does.
  const Tensor g = policy_gradient_grad(
      Tensor::from_vector({0.3f, -0.9f, 2.2f, 0.0f}), 1, 2.5f);
  EXPECT_NEAR(g.sum(), 0.0f, 1e-6);
}

}  // namespace
}  // namespace frlfi
