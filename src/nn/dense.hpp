#pragma once

/// \file dense.hpp
/// Fully-connected layer: y = W x + b over flat input vectors.

#include "nn/layer.hpp"

namespace frlfi {

/// Fully-connected (affine) layer. Input: rank-1 tensor of `in_features`;
/// output: rank-1 tensor of `out_features`. Weights are Xavier-uniform
/// initialized; biases start at zero.
class Dense final : public TapedLayer {
 public:
  /// Construct with explicit dimensions and an RNG for initialization.
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
        std::string layer_name = "dense");

  using TapedLayer::backward;
  using TapedLayer::forward;
  Tensor forward(const Tensor& input, Tape& tape) override;
  Tensor backward(const Tensor& grad_output, Tape& tape,
                  bool need_input_grad) override;

  /// Batch-inner inference: the (in, B) input IS the Xᵀ operand, so the
  /// bias-seeded GEMM consumes and produces the transposed layout with no
  /// repacking. Every output element accumulates bias-first then the
  /// in-features in increasing order — forward()'s exact gemv_bias chain —
  /// so column b is bit-identical to forward() of sample b at every batch
  /// size. A WeightView source reads weight and bias through the view
  /// (zero-copy when its overlay misses this layer): bit-identical to
  /// mutate-forward-restore.
  Tensor infer(Tensor input, std::size_t batch,
               const ParamSource& src) override;

  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  /// Input feature count.
  std::size_t in_features() const { return in_; }

  /// Output feature count.
  std::size_t out_features() const { return out_; }

  /// Direct access to the weight parameter (FI and tests).
  Parameter& weight() { return weight_; }

  /// Direct access to the bias parameter.
  Parameter& bias() { return bias_; }

 private:
  // infer()'s float compute with resolved weight and bias pointers.
  Tensor batch_inner_with(Tensor input, std::size_t batch, const float* wt,
                          const float* bias) const;

  std::size_t in_, out_;
  Parameter weight_;  // (out, in)
  Parameter bias_;    // (out)
  std::string label_;
};

}  // namespace frlfi
