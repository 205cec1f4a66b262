#pragma once

/// \file injector.hpp
/// Bit-flip injection primitives. All weight-domain injection happens in a
/// deployed representation: int8 (the paper's 8-bit quantized policies) or
/// a Q(s,i,f) fixed-point word (the §IV-B.3 data-type study). Floats are
/// quantized, bits are corrupted in the integer domain, and the result is
/// dequantized back into the float weights the network executes with —
/// "fault models as native tensor operations" (§III-D).

#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "fault/model.hpp"
#include "fault/overlay.hpp"  // InjectionReport + the non-mutating plane
#include "nn/network.hpp"
#include "numeric/fixed_point.hpp"

namespace frlfi {

/// Flip each bit of the buffer independently with probability `ber`,
/// honouring the direction constraint (ZeroToOne only flips bits that are
/// currently 0, etc.). Returns the number of bits flipped.
std::size_t flip_bits_ber(std::span<std::uint8_t> bytes, double ber, Rng& rng,
                          FlipDirection direction = FlipDirection::Any);

/// Flip exactly `n_flips` distinct uniformly-chosen bits (the paper's
/// "number of faults" axis). n_flips must not exceed the bit count.
std::size_t flip_bits_exact(std::span<std::uint8_t> bytes, std::size_t n_flips,
                            Rng& rng);

/// Force each bit to `value` independently with probability `ber`
/// (stuck-at model). Returns the number of bits whose value changed.
std::size_t stick_bits_ber(std::span<std::uint8_t> bytes, double ber,
                           bool value, Rng& rng);

/// Apply the spec's temporal model (transient flip / stuck-at) to an
/// integer byte buffer — the single bit-level dispatcher shared by the
/// in-place int8 injector and DeployedWeights::inject, which is what keeps
/// their RNG streams aligned. Returns the number of bits changed. A spec
/// with burst.length > 1 routes through corrupt_bits_burst, so the
/// multi-bit plane rides every existing int8 injection surface.
std::size_t corrupt_bits(std::span<std::uint8_t> bytes, const FaultSpec& spec,
                         Rng& rng);

/// Correlated multi-bit upsets over a byte buffer: one Bernoulli *event*
/// draw per bit (the identical stream the single-bit injectors consume),
/// and an event at bit i corrupts the run of spec.burst.length bits
/// starting there — stride 1 for BurstAxis::Row, stride `word_bits` for
/// BurstAxis::Column (same bit position of consecutive words), truncated
/// at the buffer end. Each corrupted bit applies the spec's temporal
/// model/direction to the live buffer. burst.length == 1 is bit-identical
/// (flips and RNG stream position) to corrupt_bits' single-bit paths.
/// Returns the number of bits changed.
std::size_t corrupt_bits_burst(std::span<std::uint8_t> bytes,
                               const FaultSpec& spec, Rng& rng,
                               std::size_t word_bits = 8);

/// The fixed-point form of corrupt_bits_burst: words are live Q(s,i,f)
/// codewords (masked to `word_bits`), events are drawn word-major /
/// bit-ascending — exactly the draw order of FixedPointFlipper and the
/// reference injector, so burst.length == 1 is bit-identical to
/// inject_fixed_point on the same stream. Returns bits changed.
std::size_t corrupt_fixed_words_burst(std::span<std::uint32_t> words,
                                      int word_bits, const FaultSpec& spec,
                                      Rng& rng);

/// Per-word flip-mask generator for fixed-point injection: resolves the
/// spec's BER (checked to lie in [0, 1]) and temporal model + direction
/// once, then draws one Bernoulli per bit per word. The single per-word
/// step shared by inject_fixed_point and DeployedWeights::inject —
/// sharing it is what keeps their RNG streams (and therefore every flip
/// site) bit-aligned.
class FixedPointFlipper {
 public:
  FixedPointFlipper(const FaultSpec& spec, int word_bits);

  /// Mask of bits to XOR into `raw`, direction/stuck-at filtered, after
  /// consuming exactly word_bits Bernoulli draws from `rng`.
  std::uint32_t flip_mask(std::uint32_t raw, Rng& rng) const;

 private:
  BernoulliThreshold thr_;
  int word_bits_;
  bool only_set_bits_;    // restrict flips to currently-set bits
  bool only_clear_bits_;  // restrict flips to currently-clear bits
};

/// Corrupt a float buffer through its int8-quantized representation
/// according to the spec's model/BER/direction. The buffer is modified in
/// place. The span form is the core — it lets the federated round engine
/// inject server faults directly into rows of the round matrix without
/// materializing per-agent vectors.
///
/// `headroom` scales the quantization range beyond max|w| (default 1 =
/// tight calibration). Online-fine-tuned deployments use a fixed scale
/// with headroom so growing weights stay representable; flips into the
/// high bits of such words produce values up to headroom * max|w| — the
/// out-of-range outliers the §V-B range detector exists to catch.
InjectionReport inject_int8(std::span<float> weights, const FaultSpec& spec,
                            Rng& rng, float headroom = 1.0f);
InjectionReport inject_int8(std::vector<float>& weights, const FaultSpec& spec,
                            Rng& rng, float headroom = 1.0f);

/// Corrupt a float buffer through a fixed-point representation (data-type
/// resilience study). The buffer is modified in place. The per-word flip
/// is mask-based (one XOR per word); consumes one Bernoulli draw per bit,
/// so for a given rng state the result is bit-identical to the reference
/// below.
InjectionReport inject_fixed_point(std::vector<float>& weights,
                                   const FixedPointFormat& format,
                                   const FaultSpec& spec, Rng& rng);

/// Reference implementation of inject_fixed_point (per-bit flip_bit calls):
/// the golden baseline for the equivalence test and the before/after micro
/// bench in bench_micro_overhead.cpp.
InjectionReport inject_fixed_point_reference(std::vector<float>& weights,
                                             const FixedPointFormat& format,
                                             const FaultSpec& spec, Rng& rng);

/// Corrupt every parameter tensor of a network in the int8 domain. Routed
/// through the overlay plane (DeployedWeights::inject + a materialized
/// base+overlay) — bit-identical to the historical flatten → inject_int8 →
/// restore path, which tests/test_fault_overlay.cpp keeps as the frozen
/// reference. Training faults persist, so the result is still written
/// into the network.
InjectionReport inject_network_weights(Network& net, const FaultSpec& spec,
                                       Rng& rng);

/// Layer-scoped deployment image for the per-layer vulnerability ablation
/// (§IV-C): the network's clean flat parameters with layer `layer_index`'s
/// span replaced by its per-tensor int8 quantize→dequantize images —
/// exactly the representation the in-place inject_layer_weights deploys
/// (one calibration per parameter tensor, in layer parameter order).
/// Immutable after construction; inject() is const and draws the same RNG
/// stream as the in-place path, producing a WeightOverlay confined to the
/// layer's flat span — so base()+overlay is bit-for-bit the parameter
/// vector inject_layer_weights would have written, and one trained
/// snapshot can replay many per-layer fault plans read-only through
/// views() instead of being cloned per trial (bench_ablation_layers).
class LayerDeployedWeights {
 public:
  LayerDeployedWeights(Network& net, std::size_t layer_index);

  /// The effective clean parameters: original floats everywhere except
  /// the target layer, which reads its deployed (dequantized) image.
  const std::vector<float>& base() const { return base_; }

  /// Flat index range [begin, end) of the target layer's parameters.
  std::size_t layer_begin() const { return layer_begin_; }
  std::size_t layer_end() const { return layer_end_; }

  /// A WeightView of base() with `overlay` on top (overlay may be null).
  WeightView view(const WeightOverlay* overlay) const {
    return WeightView{base_.data(), base_.size(), overlay};
  }

  /// One fault through the layer's deployed words, recorded into `out`
  /// (cleared first); consumes `rng` exactly as inject_layer_weights does.
  InjectionReport inject(const FaultSpec& spec, Rng& rng,
                         WeightOverlay& out) const;

 private:
  struct TensorImage {
    std::size_t offset = 0;  // flat index of the tensor's first parameter
    float scale = 1.0f;      // per-tensor calibrated dequantization step
    std::vector<std::int8_t> words;  // clean quantized words
  };
  std::vector<float> base_;
  std::vector<TensorImage> tensors_;
  std::size_t layer_begin_ = 0;
  std::size_t layer_end_ = 0;
};

/// Corrupt only the parameters of layer `layer_index` (per-layer
/// vulnerability ablation). Routed through LayerDeployedWeights — the
/// same per-tensor representation and RNG stream as the historical
/// per-tensor in-place loop, materialized back into the network.
InjectionReport inject_layer_weights(Network& net, std::size_t layer_index,
                                     const FaultSpec& spec, Rng& rng);

/// RAII guard that snapshots a network's parameters and restores them on
/// destruction — the mechanism behind Trans-1 (single-read) faults.
class WeightRestoreGuard {
 public:
  /// Snapshot now; restore at scope exit.
  explicit WeightRestoreGuard(Network& net);
  ~WeightRestoreGuard();
  WeightRestoreGuard(const WeightRestoreGuard&) = delete;
  WeightRestoreGuard& operator=(const WeightRestoreGuard&) = delete;

 private:
  Network* net_;
  std::vector<float> saved_;
};

}  // namespace frlfi
