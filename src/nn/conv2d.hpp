#pragma once

/// \file conv2d.hpp
/// 2-D convolution over CHW single-sample tensors — the building block of
/// the DroneNav perception policy (3 Conv layers in the paper).
///
/// forward()/backward() run on an im2col + blocked-GEMM path: forward()
/// builds the patch matrix straight into the tape, where backward() reads
/// it for the weight gradient; the input gradient (gemm_tn + col2im into
/// a reusable workspace) is skipped when it is not needed. The original
/// 7-deep loop nest is retained as forward_naive()/backward_naive() as the
/// golden reference for equivalence tests and before/after benches.
/// The GEMM forward is bit-identical to the naive forward (bias-seeded
/// accumulation in the same tap order, padding taps contributing exact
/// zeros) whenever the output has >= kGemmNarrowN spatial positions; tiny
/// outputs use gemm's packed narrow kernel and the GEMM backward vectorizes
/// its reductions, so those may differ from the reference in the last ulps.
/// infer() reproduces forward()'s bits at every batch width and geometry.

#include <vector>

#include "nn/im2col.hpp"
#include "nn/layer.hpp"

namespace frlfi {

/// 2-D convolution. Input: (in_channels, H, W); output:
/// (out_channels, H', W') with H' = (H + 2*pad - k)/stride + 1.
/// Weights Xavier-uniform, biases zero.
class Conv2D final : public TapedLayer {
 public:
  /// Construct with square kernels.
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t padding, Rng& rng,
         std::string layer_name = "conv");

  using TapedLayer::backward;
  using TapedLayer::forward;
  Tensor forward(const Tensor& input, Tape& tape) override;
  Tensor backward(const Tensor& grad_output, Tape& tape,
                  bool need_input_grad) override;

  /// Batch-inner inference over (in_c, H, W, B); column b is forward() of
  /// sample b, bit for bit, at every batch width and geometry. Batches of
  /// >= kBatchInnerWideKernelMin samples with >= kGemmNarrowN output
  /// positions each (where forward() runs the ordered GEMM chain) take a
  /// direct blocked convolution — every tap a unit-stride saxpy across the
  /// batch, output written straight into (out_c, OH, OW, B), no im2col; a
  /// padded layer zero-pads the batch into scratch first, so padding taps
  /// add the same +0.0f terms as im2col's. Every other batch runs
  /// forward()'s im2col+GEMM kernels per sample (on the input in place at
  /// width 1). A WeightView source reads weight and bias through the view
  /// (zero-copy when its overlay misses this layer's span).
  Tensor infer(Tensor input, std::size_t batch,
               const ParamSource& src) override;

  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  /// Reference forward: the direct 7-deep loop nest, the same output
  /// contract as forward() but cache-free; kept for golden tests and
  /// benches.
  Tensor forward_naive(const Tensor& input) const;

  /// Reference backward at `input`, the direct loop nest, cache-free:
  /// accumulates parameter gradients and returns the input gradient, like
  /// backward() after forward(input).
  Tensor backward_naive(const Tensor& input, const Tensor& grad_output);

  /// Output spatial size for an input spatial size.
  std::size_t out_extent(std::size_t in_extent) const;

  /// Direct access to the weight parameter (FI and tests).
  Parameter& weight() { return weight_; }

  /// Direct access to the bias parameter.
  Parameter& bias() { return bias_; }

 private:
  // The (validated) geometry of an input of spatial size h x w.
  ConvShape shape_for(std::size_t h, std::size_t w) const;
  void check_grad_shape(const Tensor& grad_output, std::size_t oh,
                        std::size_t ow) const;
  // infer()'s float compute with resolved weight and bias pointers (the
  // layer's own tensors or a resolved view span).
  Tensor batch_inner_with(Tensor input, std::size_t batch, const float* wt,
                          const float* bias) const;

  std::size_t in_c_, out_c_, k_, stride_, pad_;
  Parameter weight_;  // (out_c, in_c, k, k)
  Parameter bias_;    // (out_c)
  // Patch-space input gradient, rows() x cols(), reused across calls so
  // the hot loop performs no allocations once warmed up.
  std::vector<float> gcols_;
  std::string label_;
};

}  // namespace frlfi
