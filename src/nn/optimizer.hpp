#pragma once

/// \file optimizer.hpp
/// Gradient-descent optimizers for the online RL updates.

#include "nn/network.hpp"

namespace frlfi {

/// Stochastic gradient descent with optional classical momentum and
/// global-norm gradient clipping (policy-gradient updates on single
/// trajectories are high-variance; clipping keeps fine-tuning stable).
class SgdOptimizer {
 public:
  /// Hyperparameters.
  struct Options {
    float learning_rate = 1e-2f;
    float momentum = 0.0f;     // 0 disables the velocity buffer
    float clip_norm = 0.0f;    // 0 disables clipping
  };

  /// Bind to a network's parameters.
  SgdOptimizer(Network& net, Options opts);

  /// Apply one update from the accumulated gradients, then zero them
  /// (to +0.0f).
  void step();

  /// Current options (mutable to allow lr decay schedules).
  Options& options() { return opts_; }

  /// Momentum buffers, parallel to the network's parameters (empty when
  /// momentum is 0).
  const std::vector<Tensor>& velocity() const { return velocity_; }

 private:
  Network* net_;
  Options opts_;
  std::vector<Tensor> velocity_;  // parallel to net parameters
};

}  // namespace frlfi
