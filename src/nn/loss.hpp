#pragma once

/// \file loss.hpp
/// Loss gradients for the two learning algorithms in the paper:
///  * TD(0)/Q-learning (GridWorld): squared error on the selected action's
///    Q-value against a bootstrap target.
///  * REINFORCE (DroneNav): policy gradient of -return * log pi(a|s) with
///    the softmax differentiated analytically into logits space.

#include <cstddef>

#include "tensor/tensor.hpp"

namespace frlfi {

/// Gradient of 0.5*(q[action] - target)^2 with respect to the Q output
/// vector: zero everywhere except `action`, where it is (q - target).
/// Returns the loss value through `loss_out` when non-null.
Tensor td_loss_grad(const Tensor& q_values, std::size_t action, float target,
                    float* loss_out = nullptr);

/// Gradient of L = -advantage * log softmax(logits)[action] with respect to
/// the logits: advantage * (softmax(logits) - onehot(action)).
Tensor policy_gradient_grad(const Tensor& logits, std::size_t action,
                            float advantage);

}  // namespace frlfi
