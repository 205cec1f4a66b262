#pragma once

/// \file flatten.hpp
/// Shape adapter between convolutional and dense stages.

#include "nn/layer.hpp"

namespace frlfi {

/// Flattens any input tensor to rank-1; backward restores the input shape.
class Flatten final : public TapedLayer {
 public:
  explicit Flatten(std::string layer_name = "flatten");

  using TapedLayer::backward;
  using TapedLayer::forward;
  Tensor forward(const Tensor& input, Tape& tape) override;
  Tensor backward(const Tensor& grad_output, Tape& tape,
                  bool need_input_grad) override;

  /// (..., B) -> (prod(...), B): in batch-inner layout flattening is a
  /// zero-copy reshape of the moved-in tensor; no cache written.
  Tensor infer(Tensor input, std::size_t batch,
               const ParamSource& src) override;

  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  std::string label_;
};

}  // namespace frlfi
