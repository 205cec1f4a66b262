#pragma once

/// \file injector.hpp
/// Bit-flip injection primitives. All weight-domain injection happens in a
/// deployed representation: int8 (the paper's 8-bit quantized policies) or
/// a Q(s,i,f) fixed-point word (the §IV-B.3 data-type study). Floats are
/// quantized, bits are corrupted in the integer domain, and the result is
/// dequantized back into the float weights the network executes with —
/// "fault models as native tensor operations" (§III-D).
///
/// Two pieces carry every weight fault:
///  * corrupt_words, the one bit-level corruptor, for int8 bytes and
///    fixed-point codewords alike;
///  * DeployedWeights (overlay.hpp), the one deployed image. The in-place
///    injectors below build an image, strike it and write base + overlay
///    back, so in-place and overlay injection are the same code and draw
///    the same stream.

#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "fault/model.hpp"
#include "fault/overlay.hpp"  // InjectionReport + DeployedWeights
#include "nn/network.hpp"
#include "numeric/fixed_point.hpp"

namespace frlfi {

/// The bit-level fault rule of model.hpp over a buffer of deployed words.
/// One Bernoulli(spec.ber) trial per bit, LSB first, words in order,
/// drawn in bulk by Rng::bernoulli_hits; each word's hits are kept where
/// the spec's model and direction allow them against the word's current
/// bits, and XORed in. Over bytes at width 8 that is one trial per bit in
/// the LSB-first, byte-major order of get_bit / flip_bit. Bits above
/// `word_bits` are never touched. Checks spec.ber in [0, 1] and word_bits
/// in [1, bits of the word type]. Returns the number of bits changed.
std::size_t corrupt_words(std::span<std::uint8_t> words, int word_bits,
                          const FaultSpec& spec, Rng& rng);
std::size_t corrupt_words(std::span<std::uint32_t> words, int word_bits,
                          const FaultSpec& spec, Rng& rng);

/// Flip exactly `n_flips` distinct uniformly-chosen bits (the paper's
/// "number of faults" axis). n_flips must not exceed the bit count.
std::size_t flip_bits_exact(std::span<std::uint8_t> bytes, std::size_t n_flips,
                            Rng& rng);

/// Corrupt a float buffer through its int8-quantized representation
/// according to the spec's model/BER/direction. The buffer is modified in
/// place: DeployedWeights::int8_image of the buffer, struck once, written
/// back as base + overlay. The span form lets the federated round engine
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
/// resilience study): DeployedWeights::fixed_point_image of the buffer,
/// struck once, written back in place. Consumes one Bernoulli draw per
/// bit, so for a given rng state the result is bit-identical to the
/// reference below.
InjectionReport inject_fixed_point(std::vector<float>& weights,
                                   const FixedPointFormat& format,
                                   const FaultSpec& spec, Rng& rng);

/// Reference implementation of inject_fixed_point (per-bit flip_bit calls):
/// the golden baseline for the equivalence test.
InjectionReport inject_fixed_point_reference(std::vector<float>& weights,
                                             const FixedPointFormat& format,
                                             const FaultSpec& spec, Rng& rng);

/// Corrupt every parameter tensor of a network in the int8 domain: one
/// image of the flat parameters (one calibration for the whole network),
/// struck through inject_int8 and written into the network — training
/// faults persist.
InjectionReport inject_network_weights(Network& net, const FaultSpec& spec,
                                       Rng& rng);

/// Layer-scoped deployment image for the per-layer vulnerability ablation
/// (§IV-C): the network's clean flat parameters with layer `layer_index`'s
/// span replaced by its per-tensor int8 quantize→dequantize images —
/// exactly the representation the in-place inject_layer_weights deploys
/// (one DeployedWeights::int8_image per parameter tensor, in layer
/// parameter order). Immutable after construction; inject() is const and
/// strikes the tensor images one after another on one stream, producing a
/// WeightOverlay confined to the layer's flat span — so one trained
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
  /// (cleared first) at flat parameter indices.
  InjectionReport inject(const FaultSpec& spec, Rng& rng,
                         WeightOverlay& out) const;

 private:
  std::vector<float> base_;
  std::vector<DeployedWeights> tensors_;  // one image per parameter tensor
  std::size_t layer_begin_ = 0;
  std::size_t layer_end_ = 0;
};

/// Corrupt only the parameters of layer `layer_index` (per-layer
/// vulnerability ablation): LayerDeployedWeights struck once and written
/// into the network.
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
