#include "nn/loss.hpp"

#include "core/error.hpp"
#include "nn/activations.hpp"

namespace frlfi {

Tensor td_loss_grad(const Tensor& q_values, std::size_t action, float target,
                    float* loss_out) {
  FRLFI_CHECK_MSG(action < q_values.size(),
                  "action " << action << " of " << q_values.size());
  Tensor grad(q_values.shape());
  const float err = q_values[action] - target;
  grad[action] = err;
  if (loss_out) *loss_out = 0.5f * err * err;
  return grad;
}

Tensor policy_gradient_grad(const Tensor& logits, std::size_t action,
                            float advantage) {
  FRLFI_CHECK_MSG(action < logits.size(),
                  "action " << action << " of " << logits.size());
  Tensor grad = softmax(logits);
  grad[action] -= 1.0f;
  grad *= advantage;
  return grad;
}

}  // namespace frlfi
