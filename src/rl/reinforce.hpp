#pragma once

/// \file reinforce.hpp
/// REINFORCE (Monte-Carlo policy gradient) — the DroneNav learning
/// algorithm in the paper ("policy is first trained offline using
/// REINFORCE and then fine-tuned online"). The policy network outputs
/// 25 logits; actions are sampled from the softmax during training and
/// taken greedily (or sampled — configurable) during exploitation.

#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "rl/env.hpp"
#include "rl/qlearner.hpp"  // EpisodeStats

namespace frlfi {

/// Monte-Carlo policy-gradient trainer over an externally-owned network.
class ReinforceTrainer {
 public:
  /// Hyperparameters.
  struct Options {
    float gamma = 0.98f;
    float learning_rate = 1e-3f;
    std::size_t max_steps = 500;
    /// Running-baseline smoothing for variance reduction.
    float baseline_beta = 0.9f;
  };

  /// Bind to a policy network (not owned).
  ReinforceTrainer(Network& net, Options opts);

  /// Run one episode. With learn=true, performs a full-trajectory policy
  /// gradient update at episode end; actions are sampled from the policy.
  /// With learn=false, actions are greedy (argmax logits) and no update
  /// happens.
  EpisodeStats run_episode(Environment& env, Rng& rng, bool learn);

  /// The options in force.
  Options& options() { return opts_; }

  /// Running-baseline state, exposed so training snapshots can capture and
  /// replay it exactly. `initialized` is false before the first update.
  struct BaselineState {
    float value = 0.0f;
    bool initialized = false;
  };
  BaselineState baseline_state() const {
    return {reward_baseline_, baseline_init_};
  }
  void set_baseline_state(const BaselineState& s) {
    reward_baseline_ = s.value;
    baseline_init_ = s.initialized;
  }

 private:
  Network* net_;
  Options opts_;
  SgdOptimizer optimizer_;
  float reward_baseline_ = 0.0f;
  bool baseline_init_ = false;
};

}  // namespace frlfi
