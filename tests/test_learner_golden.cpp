/// \file test_learner_golden.cpp
/// Golden digests of the two learners' training bits on the real
/// environments: a few REINFORCE episodes of the drone policy on
/// DroneNavEnv, the offline drone pretraining (DAgger imitation with
/// momentum SGD), and TD(0) QLearner episodes of
/// the GridWorld policy on GridWorldEnv. Each digest folds the trained
/// parameters, every EpisodeStats field, the learner state and the next
/// draw of the training stream, so a change to the forward, the backward,
/// the gradient accumulation order or the learners' RNG consumption shows
/// as a digest change.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "dronesim/drone_env.hpp"
#include "envs/gridworld.hpp"
#include "frl/drone_system.hpp"
#include "frl/policies.hpp"
#include "rl/qlearner.hpp"
#include "rl/reinforce.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

using testing::Digest;

void add_stats(Digest& d, const EpisodeStats& s) {
  d.f32(s.total_reward);
  d.u64(s.steps);
  d.u64(s.success ? 1 : 0);
}

TEST(LearnerGolden, ReinforceDronePolicyOnDroneNav) {
  SKIP_ON_FMA();
  SKIP_UNLESS_PORTABLE_NARROW_REDUCTION();
  const DroneFrlSystem::Config cfg;  // the fine-tuning learner and env
  Rng init(31);
  Network net = make_drone_policy(init);
  DroneNavEnv env(0xD0E5, cfg.env, DroneCamera::Options{});
  ReinforceTrainer trainer(net, cfg.learner);
  Rng rng(77);
  Digest d;
  std::size_t steps = 0;
  for (int ep = 0; ep < 8; ++ep) {
    const EpisodeStats s = trainer.run_episode(env, rng, /*learn=*/true);
    steps += s.steps;
    add_stats(d, s);
    const ReinforceTrainer::BaselineState b = trainer.baseline_state();
    d.f32(b.value);
    d.u64(b.initialized ? 1 : 0);
  }
  add_stats(d, trainer.run_episode(env, rng, /*learn=*/false));
  d.floats(net.flat_parameters());
  d.u64(rng.next_u64());
  EXPECT_GT(steps, 400u);  // the digest covers real learn passes
  EXPECT_EQ(d.value(), 0xC2FF17A924B82A40ULL);
}

TEST(LearnerGolden, DronePretraining) {
  SKIP_ON_FMA();
  SKIP_UNLESS_PORTABLE_NARROW_REDUCTION();
  DroneFrlSystem::Config cfg;
  cfg.imitation_episodes = 4;
  cfg.env.max_steps = 90;
  Digest d;
  d.floats(DroneFrlSystem::pretrained_parameters(cfg, 5150));
  EXPECT_EQ(d.value(), 0xF0E7F209D84BA168ULL);
}

TEST(LearnerGolden, QLearnerGridPolicyOnGridWorld) {
  SKIP_ON_FMA();
  Rng layout_rng(8);
  const GridLayout layout = GridLayout::random(layout_rng, 12);
  GridWorldEnv env(layout);
  Rng init(41);
  Network net = make_gridworld_policy(init);
  QLearner learner(net, {});
  Rng rng(99);
  Digest d;
  std::size_t steps = 0;
  for (int ep = 0; ep < 30; ++ep) {
    const EpisodeStats s =
        learner.run_episode(env, rng, /*epsilon=*/0.3, /*learn=*/true);
    steps += s.steps;
    add_stats(d, s);
  }
  add_stats(d, learner.run_episode(env, rng, 0.0, /*learn=*/false));
  d.floats(net.flat_parameters());
  d.u64(rng.next_u64());
  EXPECT_GT(steps, 1000u);
  EXPECT_EQ(d.value(), 0xFFB551FF9B9C4392ULL);
}

}  // namespace
}  // namespace frlfi
