#pragma once

/// \file layer.hpp
/// Layer abstraction for the policy networks.
///
/// The networks here are small (the paper's policies are a 2-layer MLP for
/// GridWorld and a 3-Conv + 2-FC net for DroneNav) and trained online, one
/// sample at a time, so the training path processes single CHW/flat
/// samples. Each layer caches what it needs during forward() so a
/// following backward() can produce input gradients and accumulate
/// parameter gradients.
///
/// Inference runs on a separate, cache-free entry: infer() maps a
/// *batch-inner* tensor — the batch as the innermost (fastest-moving)
/// dimension, (C, H, W, B) for image stages and (features, B) for flat
/// stages — to the batch-inner output, reading parameters from a
/// ParamSource: the layer's own tensors or a fault-overlay WeightView.
/// infer() never touches the backward() caches, so interleaving
/// evaluation with training is safe.

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace frlfi {

// The fault-overlay plane (fault/overlay.hpp): a read-only flat base
// parameter vector plus a sparse per-lane corruption overlay. The forward
// plane only ever holds a pointer to it, so a declaration suffices here.
struct WeightView;

/// Where Layer::infer reads a layer's parameters from: the layer's own
/// tensors (`view` null) or every value through a WeightView (deployed
/// base + sparse corruption overlay). `offset` is the layer's first index
/// in the view's flat parameter space (Network::layer_offset).
struct ParamSource {
  const WeightView* view = nullptr;
  std::size_t offset = 0;

  /// True when parameters come from the layer's own tensors.
  bool own() const { return view == nullptr; }
};

/// Batch width at which the batch-inner layers switch from the per-sample
/// gather kernels to the wide B-stride SIMD kernels (Conv2D's direct
/// batch-inner convolution, Dense's ordered batched GEMM). Shared between
/// the layers and Network's batch sharding: a sharded forward keeps every
/// sub-batch on the same side of this threshold as the undivided batch, so
/// each element's accumulation chain — and therefore every output bit — is
/// unchanged by sharding.
inline constexpr std::size_t kBatchInnerWideKernelMin = 8;

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  /// Human-readable name, e.g. "dense0.weight".
  std::string name;
  /// Current value.
  Tensor value;
  /// Accumulated gradient (same shape as value).
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  /// Reset the gradient accumulator to zero.
  void zero_grad() { grad.fill(0.0f); }
};

/// Base class for all network layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Map an input sample to an output sample, caching intermediates for
  /// backward(). Must be called before backward().
  virtual Tensor forward(const Tensor& input) = 0;

  /// Given dLoss/dOutput, accumulate parameter gradients and return
  /// dLoss/dInput for the layer below.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Inference forward over `batch` samples in batch-inner layout:
  /// `input` is (d1..dk, B), the result (e1..em, B), column b computing
  /// forward() of sample b — bit-identical wherever the layer's width
  /// contract holds (see kBatchInnerWideKernelMin and the overrides).
  /// Parameters are read from `src`; taking the tensor by value lets
  /// elementwise layers run in place on the moved-in buffer.
  ///
  /// Overrides must be cache-free and reentrant (per-thread scratch only):
  /// Network's sharded and per-lane forwards call this concurrently on one
  /// layer object. The base-class default transposes to batch-major, loops
  /// forward() per sample and transposes back — it therefore *does* write
  /// the backward caches, is not shardable, and throws frlfi::Error for a
  /// view source on a layer with parameters.
  virtual Tensor infer(Tensor input, std::size_t batch,
                       const ParamSource& src);

  /// Trainable parameters (possibly empty). Pointers remain valid for the
  /// lifetime of the layer.
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Layer type + configuration string for diagnostics.
  virtual std::string name() const = 0;

  /// Deep copy (parameters included, caches excluded).
  virtual std::unique_ptr<Layer> clone() const = 0;
};

/// (B, d1..dk) -> (d1..dk, B): gather each feature's B values contiguous.
Tensor batch_to_inner(const Tensor& batch_major, std::size_t batch);

/// (d1..dk, B) -> (B, d1..dk): the inverse scatter.
Tensor batch_to_major(const Tensor& batch_inner, std::size_t batch);

}  // namespace frlfi
