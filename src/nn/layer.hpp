#pragma once

/// \file layer.hpp
/// Layer abstraction for the policy networks.
///
/// The networks here are small (the paper's policies are a 2-layer MLP for
/// GridWorld and a 3-Conv + 2-FC net for DroneNav) and trained online, one
/// sample at a time, so the training path processes single CHW/flat
/// samples.
///
/// Training state lives on a caller-owned Tape, not in the layers.
/// forward(x, tape) appends one Record per layer holding exactly what that
/// layer's backward reads: Conv2D its im2col patch matrix (built straight
/// into the tape), Dense and ReLU the input values, Flatten the input
/// shape. backward(g, tape, need) pops that record, accumulates parameter
/// gradients and, when `need` is set, returns dLoss/dInput. A tape holds
/// any number of steps, so a learner can act through forward(x, tape) and
/// differentiate every step later without a second forward. For the
/// DroneNav policy one step records 3532 floats (14128 B, of which conv0's
/// patches are 9600 B), 10 records of 32 B and an 8 B step index: 14456 B
/// per step. The GridWorld policy's step is 720 B. The floats live in
/// blocks that never move (no geometric-growth copies of the payload), and
/// clear() keeps every block and the record capacity for reuse.
///
/// The cached forward(x)/backward(g) pair remains for decorators, tests
/// and single-step callers. The in-tree layers (TapedLayer) run it on a
/// one-step tape member, so each has one compute path. A decorator that
/// overrides only the cached pair still works on a tape through the
/// Layer defaults, which record its input and re-run forward() before
/// backward().
///
/// Inference runs on a separate, cache-free entry: infer() maps a
/// *batch-inner* tensor — the batch as the innermost (fastest-moving)
/// dimension, (C, H, W, B) for image stages and (features, B) for flat
/// stages — to the batch-inner output, reading parameters from a
/// ParamSource: the layer's own tensors or a fault-overlay WeightView.
/// infer() touches no tape, so interleaving evaluation with training is
/// safe.

#include <array>
#include <cstdint>
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

/// Batch width at which Conv2D's batch-inner path switches from per-sample
/// forwards to its direct B-stride convolution (Dense runs its one ordered
/// strip kernel at every width >= 2). A speed threshold only: both sides
/// run each element's accumulation chain in forward()'s order, so every
/// in-tree layer gives the same bits at every width, and the lane count of
/// a lockstep campaign cannot change a result.
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

/// Caller-owned record of training forwards, step by step (see the file
/// comment). Network::forward(x, tape) opens a step and every layer
/// appends one Record; Network::backward(g, tape, step) rewinds to that
/// step and every layer pops its Record, last layer first. Steps can be
/// differentiated in any order and clear() starts over. Move-only.
class Tape {
 public:
  /// Largest input rank a Record keeps the shape of (Tensor's own limit).
  static constexpr std::size_t kMaxRank = 4;

  /// One layer's record of one forward: the shape of the layer input it
  /// describes plus, by how it was made, floats (record, record_floats)
  /// or nothing (record_shape).
  class Record {
   public:
    std::size_t dim(std::size_t d) const { return dims_[d]; }
    /// Number of recorded floats (0 for record_shape()).
    std::size_t size() const { return size_; }
    std::vector<std::size_t> shape() const {
      return {dims_.begin(), dims_.begin() + rank_};
    }
    /// The recorded floats.
    const float* values() const { return data_; }

   private:
    friend class Tape;
    const float* data_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t rank_ = 0;
    std::array<std::uint32_t, kMaxRank> dims_{};
  };

  /// Drop every step; the storage stays for the next recording.
  void clear();

  /// Open step steps(): the records that follow belong to it.
  void begin_step();

  /// Steps recorded since clear().
  std::size_t steps() const { return step_begin_.size(); }

  /// Records appended since clear().
  std::size_t records() const { return records_.size(); }

  /// Append a record of `x`'s shape holding a copy of its values.
  void record(const Tensor& x);

  /// Append a record of `x`'s shape with `n` floats, which the caller must
  /// fill; returns them.
  float* record_floats(const Tensor& x, std::size_t n);

  /// Append a record of `x`'s shape with no payload.
  void record_shape(const Tensor& x);

  /// Place the read cursor after the last record of `step`.
  void rewind(std::size_t step);

  /// The last record of the rewound step not yet popped.
  Record pop();

  /// True when every record of the rewound step has been popped.
  bool step_consumed() const { return cursor_ == read_begin_; }

 private:
  // Float blocks that never move once allocated. take(n) hands out n
  // contiguous floats; a block that cannot hold them is skipped. A new
  // block holds max(n, total so far clamped to [1024, 65536]) floats and
  // is allocated uninitialized, so its untouched pages stay unresident.
  class Arena {
   public:
    float* take(std::size_t n);
    void reset() { block_ = used_ = 0; }

   private:
    struct Block {
      std::unique_ptr<float[]> data;
      std::size_t capacity;
    };
    std::vector<Block> blocks_;
    std::size_t block_ = 0, used_ = 0, total_ = 0;
  };

  void push(const Tensor& x, const float* data, std::size_t size);

  Arena values_;
  std::vector<Record> records_;
  std::vector<std::size_t> step_begin_;
  std::size_t read_begin_ = 0, cursor_ = 0;
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

  /// Training forward: forward() of one sample, appending one Record to
  /// `tape` with what backward(g, tape, ...) reads. The default records
  /// the input values, then calls forward(input).
  virtual Tensor forward(const Tensor& input, Tape& tape);

  /// Pop this layer's record from `tape`, accumulate parameter gradients
  /// and return dLoss/dInput — or an empty tensor when `need_input_grad`
  /// is false and the layer can skip it. The default re-runs
  /// forward(recorded input), then backward(grad_output), and always
  /// returns the input gradient.
  virtual Tensor backward(const Tensor& grad_output, Tape& tape,
                          bool need_input_grad);

  /// Inference forward over `batch` samples in batch-inner layout:
  /// `input` is (d1..dk, B), the result (e1..em, B), column b computing
  /// forward() of sample b. Every in-tree override is bit-identical to
  /// forward() at every width B, so a sample's output cannot depend on
  /// which or how many samples share its batch.
  /// Parameters are read from `src`; taking the tensor by value lets
  /// elementwise layers run in place on the moved-in buffer.
  ///
  /// Overrides must be cache-free and reentrant (per-thread scratch only):
  /// callers on different threads may run forwards through one layer
  /// object at once. The base-class default transposes to batch-major,
  /// loops forward() per sample and transposes back — it therefore *does*
  /// write the backward caches, is not reentrant, and throws frlfi::Error
  /// for a view source on a layer with parameters.
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

/// Base of the in-tree layers: the compute lives in the tape entries, and
/// the cached forward()/backward() run them on a one-step tape member.
/// Copies start with an empty tape (caches are never copied).
class TapedLayer : public Layer {
 public:
  Tensor forward(const Tensor& input) final;
  Tensor backward(const Tensor& grad_output) final;
  Tensor forward(const Tensor& input, Tape& tape) override = 0;
  Tensor backward(const Tensor& grad_output, Tape& tape,
                  bool need_input_grad) override = 0;

 protected:
  TapedLayer() = default;
  TapedLayer(const TapedLayer&) : Layer() {}

  /// The last cached forward()'s record (one step).
  Tape last_;
};

/// (B, d1..dk) -> (d1..dk, B): gather each feature's B values contiguous.
Tensor batch_to_inner(const Tensor& batch_major, std::size_t batch);

/// (d1..dk, B) -> (B, d1..dk): the inverse scatter.
Tensor batch_to_major(const Tensor& batch_inner, std::size_t batch);

}  // namespace frlfi
