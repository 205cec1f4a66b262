#include <gtest/gtest.h>

#include "core/error.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "rl/qlearner.hpp"
#include "rl/reinforce.hpp"
#include "rl/schedule.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

using testing::BanditEnv;
using testing::ChainEnv;

Network tiny_net(Rng& rng, std::size_t in, std::size_t out) {
  Network net;
  net.add(std::make_unique<Dense>(in, 16, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(16, out, rng));
  return net;
}

TEST(EpsilonSchedule, LinearDecayEndpoints) {
  EpsilonSchedule s(1.0, 0.1, 100);
  EXPECT_DOUBLE_EQ(s.at(0), 1.0);
  EXPECT_NEAR(s.at(50), 0.55, 1e-12);
  EXPECT_DOUBLE_EQ(s.at(100), 0.1);
  EXPECT_DOUBLE_EQ(s.at(100000), 0.1);
  EXPECT_DOUBLE_EQ(s.terminal(), 0.1);
}

TEST(EpsilonSchedule, RejectsBadRanges) {
  EXPECT_THROW(EpsilonSchedule(0.1, 0.5, 10), Error);  // end > start
  EXPECT_THROW(EpsilonSchedule(1.5, 0.1, 10), Error);
  EXPECT_THROW(EpsilonSchedule(0.5, 0.1, 0), Error);
}

TEST(QLearner, LearnsChainEnv) {
  Rng rng(1);
  Network net = tiny_net(rng, 1, 2);
  QLearner::Options opts;
  opts.learning_rate = 0.05f;
  opts.gamma = 0.9f;
  opts.max_steps = 50;
  QLearner q(net, opts);
  ChainEnv env(5);
  for (int ep = 0; ep < 300; ++ep) {
    Rng er = rng.split(ep);
    q.run_episode(env, er, 0.3, /*learn=*/true);
  }
  Rng ev(99);
  const EpisodeStats stats = q.run_episode(env, ev, 0.0, /*learn=*/false);
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.steps, 5u);  // straight to the goal
}

TEST(QLearner, EvalDoesNotChangeWeights) {
  Rng rng(2);
  Network net = tiny_net(rng, 1, 2);
  QLearner q(net, {});
  const std::vector<float> before = net.flat_parameters();
  ChainEnv env(4);
  Rng ev(3);
  q.run_episode(env, ev, 0.5, /*learn=*/false);
  EXPECT_EQ(net.flat_parameters(), before);
}

TEST(QLearner, StepCapReportsFailure) {
  Rng rng(4);
  Network net = tiny_net(rng, 1, 2);
  QLearner::Options opts;
  opts.max_steps = 3;
  QLearner q(net, opts);
  ChainEnv env(100);
  Rng ev(5);
  const EpisodeStats stats = q.run_episode(env, ev, 0.0, false);
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.steps, 3u);
}

TEST(QLearner, RejectsBadOptions) {
  Rng rng(7);
  Network net = tiny_net(rng, 1, 2);
  QLearner::Options opts;
  opts.gamma = 1.5f;
  EXPECT_THROW(QLearner(net, opts), Error);
}

TEST(Reinforce, LearnsBandit) {
  Rng rng(8);
  Network net = tiny_net(rng, 1, 4);
  ReinforceTrainer::Options opts;
  opts.learning_rate = 0.05f;
  opts.max_steps = 2;
  ReinforceTrainer trainer(net, opts);
  BanditEnv env(4, 2);
  for (int ep = 0; ep < 400; ++ep) {
    Rng er = rng.split(ep);
    trainer.run_episode(env, er, /*learn=*/true);
  }
  EXPECT_EQ(net.forward(testing::filled({1}, 1.0f)).argmax(), 2u);
}

TEST(Reinforce, EvalIsGreedyAndPure) {
  Rng rng(9);
  Network net = tiny_net(rng, 1, 3);
  ReinforceTrainer trainer(net, {});
  const std::vector<float> before = net.flat_parameters();
  BanditEnv env(3, 0);
  Rng ev(10);
  const EpisodeStats stats = trainer.run_episode(env, ev, /*learn=*/false);
  EXPECT_EQ(net.flat_parameters(), before);
  EXPECT_EQ(stats.steps, 1u);
}

TEST(Reinforce, RejectsBadOptions) {
  Rng rng(11);
  Network net = tiny_net(rng, 1, 2);
  ReinforceTrainer::Options opts;
  opts.baseline_beta = 1.0f;
  EXPECT_THROW(ReinforceTrainer(net, opts), Error);
}

TEST(Reinforce, LearnsChainPreference) {
  // On the chain, always-right is optimal; after training the greedy
  // action at the start state should be 1 (right).
  Rng rng(12);
  Network net = tiny_net(rng, 1, 2);
  ReinforceTrainer::Options opts;
  opts.learning_rate = 0.02f;
  opts.gamma = 0.95f;
  opts.max_steps = 30;
  ReinforceTrainer trainer(net, opts);
  ChainEnv env(4);
  for (int ep = 0; ep < 500; ++ep) {
    Rng er = rng.split(ep);
    trainer.run_episode(env, er, true);
  }
  EXPECT_EQ(net.forward(testing::filled({1}, 0.0f)).argmax(), 1u);
}

}  // namespace
}  // namespace frlfi
