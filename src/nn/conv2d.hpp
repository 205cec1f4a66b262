#pragma once

/// \file conv2d.hpp
/// 2-D convolution over CHW single-sample tensors — the building block of
/// the DroneNav perception policy (3 Conv layers in the paper).
///
/// forward()/backward() run on an im2col + blocked-GEMM path with reusable
/// per-layer scratch workspaces (no allocations in the steady state). The
/// original 7-deep loop nest is retained as forward_naive()/backward_naive()
/// as the golden reference for equivalence tests and before/after benches.
/// The GEMM forward is bit-identical to the naive forward (bias-seeded
/// accumulation in the same tap order, padding taps contributing exact
/// zeros) whenever the output has >= 8 spatial positions; tiny outputs use
/// gemm's packed narrow kernel and the GEMM backward vectorizes its
/// reductions, so those may differ from the reference in the last ulps.

#include <vector>

#include "nn/im2col.hpp"
#include "nn/layer.hpp"

namespace frlfi {

/// 2-D convolution. Input: (in_channels, H, W); output:
/// (out_channels, H', W') with H' = (H + 2*pad - k)/stride + 1.
/// Weights Xavier-uniform, biases zero.
class Conv2D final : public Layer {
 public:
  /// Construct with square kernels.
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t padding, Rng& rng,
         std::string layer_name = "conv");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;

  /// Batch-inner inference over (in_c, H, W, B). Wide batches
  /// (>= kBatchInnerWideKernelMin) run a direct blocked convolution —
  /// every tap a unit-stride saxpy across the batch, output written
  /// straight into (out_c, OH, OW, B), no im2col. Narrow batches run
  /// forward()'s im2col+GEMM kernels per sample (on the input in place at
  /// width 1), so they match forward() bit-for-bit at every geometry; wide
  /// batches match it whenever a sample has >= 8 output positions, and
  /// tiny outputs differ in the last ulps because only the per-sample path
  /// reassociates through the packed narrow kernel. A WeightView source
  /// reads weight and bias through the view (zero-copy when its overlay
  /// misses this layer's span).
  Tensor infer(Tensor input, std::size_t batch,
               const ParamSource& src) override;

  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  /// Reference forward: the direct 7-deep loop nest. Same contract and
  /// caching behavior as forward(); kept for golden tests and benches.
  Tensor forward_naive(const Tensor& input);

  /// Reference backward matching forward_naive. Accumulates parameter
  /// gradients and returns the input gradient, like backward().
  Tensor backward_naive(const Tensor& grad_output);

  /// Output spatial size for an input spatial size.
  std::size_t out_extent(std::size_t in_extent) const;

  /// Direct access to the weight parameter (FI and tests).
  Parameter& weight() { return weight_; }

  /// Direct access to the bias parameter.
  Parameter& bias() { return bias_; }

 private:
  ConvShape shape_for(const Tensor& input) const;
  void check_grad_shape(const Tensor& grad_output, std::size_t oh,
                        std::size_t ow) const;
  // infer()'s float compute with resolved weight and bias pointers (the
  // layer's own tensors or a resolved view span).
  Tensor batch_inner_with(Tensor input, std::size_t batch, const float* wt,
                          const float* bias) const;

  std::size_t in_c_, out_c_, k_, stride_, pad_;
  Parameter weight_;  // (out_c, in_c, k, k)
  Parameter bias_;    // (out_c)
  Tensor cached_input_;
  // Scratch workspaces for the im2col/GEMM path, reused across calls so the
  // hot loop performs no allocations once warmed up.
  std::vector<float> cols_;   // im2col patch matrix, rows() x cols()
  std::vector<float> gcols_;  // patch-space input gradient, same extents
  bool cols_fresh_ = false;   // cols_ matches cached_input_ (set by forward)
  std::string label_;
};

}  // namespace frlfi
