#pragma once

/// \file network.hpp
/// Sequential network container with the two facilities the FI framework
/// needs beyond the training forward/backward:
///  * flat parameter import/export (what the federated server aggregates
///    and the communication channel transports), and
///  * a per-layer activation hook (where per-layer instrumentation such as
///    layer timing attaches).

#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "nn/layer.hpp"

namespace frlfi {

/// A stack of layers executed in order. Movable, deep-clonable.
class Network {
 public:
  Network() = default;
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Append a layer; returns *this for chaining.
  Network& add(std::unique_ptr<Layer> layer);

  /// Number of layers.
  std::size_t layer_count() const { return layers_.size(); }

  /// Access layer i.
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;

  /// Flat parameter offset of layer i — the coordinate WeightView overlays
  /// and layer-scoped injections index with.
  std::size_t layer_offset(std::size_t i) const;

  /// Hook invoked after each layer's forward pass as
  /// hook(layer_index, activation_tensor); the hook may mutate the
  /// activation. An empty function clears the hook.
  void set_activation_hook(
      std::function<void(std::size_t, Tensor&)> hook);

  /// Run the full forward pass on one sample through every layer's cached
  /// forward() (the layers keep this one step; nothing reads it back here).
  Tensor forward(const Tensor& input);

  /// Training forward on one sample: opens step tape.steps() on `tape`,
  /// where every layer records what its backward reads (see Tape).
  /// Bit-identical to forward().
  Tensor forward(const Tensor& input, Tape& tape);

  /// Backward of recorded step `step` from dLoss/dOutput: accumulates
  /// parameter gradients. Layer 0's input gradient (for the policies, the
  /// gradient with respect to the observation) is never computed.
  void backward(const Tensor& grad_output, Tape& tape, std::size_t step);

  /// Run the full inference forward pass over `batch` stacked samples
  /// (leading dim = batch; rank-4 (B,C,H,W) for conv stacks, rank-2
  /// (B,features) for MLPs). Row b of the result matches forward() of
  /// sample b under the layers' width contracts (see Layer::infer). The
  /// stack runs in batch-innermost layout (one transpose in, one out), so
  /// the activation hook, when set, receives each layer's activations as a
  /// *batch-inner* tensor — (C,H,W,B)/(features,B) — which elementwise
  /// consumers like the range screen scan in one pass over the whole
  /// batch. Nothing is recorded: layer caches and tapes are untouched,
  /// unless a layer relies on the Layer::infer default.
  /// A single sample runs as a [1, ...] batch: at width 1 the batch-inner
  /// tensors are the sample itself, and the result is bit-identical to
  /// forward().
  ///
  /// `lane_views` (empty, or one entry per batch row) is the fault-overlay
  /// plane: row b reads its parameters through *lane_views[b] (null =
  /// the layer's own weights), so one batched forward serves N lanes with
  /// N different corrupted weight sets — batched Trans-1. Every view must
  /// span parameter_count() values. Contiguous rows sharing a view run as
  /// one sub-batch through the batch-inner stack, the activation hook then
  /// seeing each layer once per run; each distinct-view run computes exactly
  /// what forward_batch of those rows on a network holding that view's
  /// effective weights would — at width 1, bit-identical to
  /// mutate-forward-restore — but nothing is ever written.
  // Unnamed nullptr_t slot: frlbench still passes nullptr as a pool here.
  Tensor forward_batch(const Tensor& input, std::size_t batch,
                       std::nullptr_t = nullptr,
                       std::span<const WeightView* const> lane_views = {});

  /// All trainable parameters, in layer order.
  std::vector<Parameter*> parameters();

  /// Zero all parameter gradients.
  void zero_grad();

  /// Total number of trainable scalars.
  std::size_t parameter_count() const { return param_total_; }

  /// Copy all parameter values into one flat vector (layer order).
  std::vector<float> flat_parameters() const;

  /// Copy all parameter values into caller-owned storage (layer order;
  /// `out` must hold parameter_count() floats). The allocation-free
  /// gather the federated round engine uses to fill its round matrix.
  void copy_flat_parameters(std::span<float> out) const;

  /// Load parameter values from a flat vector; size must match exactly.
  void set_flat_parameters(std::span<const float> flat);
  void set_flat_parameters(const std::vector<float>& flat) {
    set_flat_parameters(std::span<const float>(flat));
  }

  /// Deep copy (parameters copied, caches and hooks dropped).
  Network clone() const;

 private:
  // The inference layer loop: every layer's infer() reading parameters
  // from `src` (its offset set per layer), the hook after each.
  Tensor infer_stack(Tensor x, std::size_t batch, ParamSource src);

  std::vector<std::unique_ptr<Layer>> layers_;
  // Flat parameter offset per layer (the coordinate system WeightView
  // overlays index) + running total. Maintained eagerly by add(), so
  // concurrent read-only forwards never race on a lazy cache.
  std::vector<std::size_t> layer_offsets_;
  std::size_t param_total_ = 0;
  std::function<void(std::size_t, Tensor&)> activation_hook_;
  // parameters() result cached per topology; invalidated by add().
  mutable std::vector<Parameter*> param_cache_;
  mutable bool param_cache_valid_ = false;
};

}  // namespace frlfi
