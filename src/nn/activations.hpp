#pragma once

/// \file activations.hpp
/// Elementwise activations and the softmax helper used by the policy heads.

#include "nn/layer.hpp"

namespace frlfi {

/// Rectified linear unit, y = max(0, x), any tensor shape.
class ReLU final : public Layer {
 public:
  explicit ReLU(std::string layer_name = "relu");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Elementwise in place on the moved-in batch-inner buffer
  /// (layout-agnostic); bit-identical to the per-sample path, no backward
  /// cache written. Parameterless, so every source reads the same.
  Tensor infer(Tensor input, std::size_t batch,
               const ParamSource& src) override;

  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor cached_input_;
  std::string label_;
};

/// Numerically-stable softmax over a rank-1 tensor (free function; the
/// policy losses differentiate through it analytically, so it is not a
/// Layer).
Tensor softmax(const Tensor& logits);

/// log(softmax(logits)[index]) computed stably.
float log_softmax_at(const Tensor& logits, std::size_t index);

}  // namespace frlfi
