#pragma once

/// \file network.hpp
/// Sequential network container with the two facilities the FI framework
/// needs beyond the training forward/backward:
///  * flat parameter import/export (what the federated server aggregates
///    and the communication channel transports), and
///  * a per-layer activation hook (where per-layer instrumentation such as
///    layer timing attaches).

#include <functional>
#include <memory>
#include <span>

#include "nn/layer.hpp"

namespace frlfi {

class ThreadPool;

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
  /// With a non-null `pool`, the batch is sharded into contiguous
  /// per-lane sub-batches and the full layer stack runs per shard across
  /// the pool — bit-identical to the unsharded call for every thread
  /// count, because every in-tree layer's infer gives the same bits at
  /// every width (see Layer::infer and batch_shard_count). Each
  /// lane owns its shard's tensors and scratch end to end; the activation
  /// hook is then invoked once per (layer, shard), possibly concurrently,
  /// with that shard's batch-inner activations — hooks must be
  /// thread-safe under sharding (the range screen's elementwise suppressor
  /// is). Precondition of the sharded path: every layer's infer must be
  /// safe to call concurrently on the same layer object — true for all
  /// in-tree layers, but NOT for a layer relying on the Layer::infer
  /// default, which falls back through per-sample forward() and mutates
  /// the backward caches. Calling this from inside a pool job is safe: the
  /// nested dispatch runs inline (see parallel.hpp).
  ///
  /// `lane_views` (empty, or one entry per batch row) is the fault-overlay
  /// plane: row b reads its parameters through *lane_views[b] (null =
  /// the layer's own weights), so one batched forward serves N lanes with
  /// N different corrupted weight sets — batched Trans-1. Every view must
  /// span parameter_count() values. Contiguous rows sharing a view run as
  /// one sub-batch through the batch-inner stack (sharded by the same
  /// width-preserving planner); each distinct-view run computes exactly
  /// what forward_batch of those rows on a network holding that view's
  /// effective weights would — at width 1, bit-identical to
  /// mutate-forward-restore — but nothing is ever written.
  Tensor forward_batch(const Tensor& input, std::size_t batch,
                       ThreadPool* pool = nullptr,
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

/// Minimum rows of work per shard before the planner will split a batch:
/// the cost model distilled from the sharded_inference bench (see
/// kShardNetLossBatch below). A shard narrower than this doesn't pay for
/// its dispatch + transpose overhead, so batches under 2x this stay
/// unsharded and wider batches split into at most batch / this shards.
/// A multiple of kBatchInnerWideKernelMin, so every shard of a sharded
/// batch stays on the wide kernels.
inline constexpr std::size_t kBatchShardMinPerShard = 32;

/// Sub-batch count a sharded Network::forward_batch uses for `batch`
/// samples on `lanes` pool lanes: a cost model only, since the layers give
/// the same bits at every width (sharding can never change a bit). Every
/// shard carries at least kBatchShardMinPerShard rows, so small batches
/// (e.g. B=16 across 2 threads, a measured 3.5x loss) are declined
/// outright and mid-size batches split onto fewer lanes than the pool
/// offers.
std::size_t batch_shard_count(std::size_t batch, std::size_t lanes);

/// Measured shard-planner anchor: BENCH_kernels.json's sharded_inference
/// section shows that sharding a B=16 drone-policy forward across 2
/// threads is a net *loss* (oversubscription aside — the split itself
/// doesn't pay for its dispatch at that width). The cost-model pass
/// landed as kBatchShardMinPerShard: batch_shard_count now declines
/// exactly these configurations (B <= kShardNetLossBatch never shards).
/// These constants stay as the measured break-even anchor the model is
/// calibrated against.
inline constexpr std::size_t kShardNetLossBatch = 16;
inline constexpr std::size_t kShardNetLossThreads = 2;

}  // namespace frlfi
