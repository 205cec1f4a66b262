#pragma once

/// \file qlearner.hpp
/// Online NN Q-learning (TD(0)) — the GridWorld learning algorithm.
/// The Q-function is a small MLP mapping the 4-feature local observation to
/// 4 action values; updates happen per transition against the bootstrap
/// target r + gamma * max_a' Q(s', a').

#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "rl/env.hpp"

namespace frlfi {

/// Per-episode outcome statistics.
struct EpisodeStats {
  /// Sum of rewards over the episode.
  float total_reward = 0.0f;
  /// Number of environment steps taken.
  std::size_t steps = 0;
  /// True if the episode ended in success (goal reached).
  bool success = false;
};

/// Online TD(0) Q-learner over an externally-owned network.
class QLearner {
 public:
  /// Hyperparameters.
  struct Options {
    float gamma = 0.9f;
    float learning_rate = 5e-3f;
    std::size_t max_steps = 400;
  };

  /// Bind to a Q-network (not owned).
  QLearner(Network& net, Options opts);

  /// Run one episode. With learn=true, applies a TD update per transition;
  /// epsilon controls exploration. With learn=false this is pure greedy
  /// evaluation (epsilon ignored).
  EpisodeStats run_episode(Environment& env, Rng& rng, double epsilon,
                           bool learn);

  /// The options in force (mutable: lr decay etc.).
  Options& options() { return opts_; }

 private:
  Network* net_;
  Options opts_;
  SgdOptimizer optimizer_;
};

}  // namespace frlfi
