#pragma once

/// \file overlay.hpp
/// The non-mutating fault-overlay plane.
///
/// A fault strikes a policy through its deployed integer representation.
/// The overlay plane splits one injection into the two parts that differ
/// in lifetime:
///
///  * DeployedWeights — the quantize→dequantize round-trip of the *clean*
///    parameters. Deterministic (no RNG), so it is computed once per
///    policy and shared read-only by every evaluation lane.
///  * WeightOverlay — the sparse set of parameters whose deployed words a
///    particular fault actually flipped (flat parameter index → corrupted
///    float). Per lane and tiny, so
///        effective(i) = overlay(i) if present else base(i).
///
/// DeployedWeights is the only code that builds a deployed image: the
/// in-place injectors of injector.hpp (inject_int8, inject_fixed_point,
/// inject_network_weights, inject_layer_weights) build one, strike it and
/// write base + overlay back, so the in-place and overlay planes are one
/// computation on one RNG stream.
///
/// A WeightView bundles base + overlay for the forward plane: the
/// parameterized layers' Layer::infer reads effective weights through a
/// view ParamSource without mutating anything — which is what lets one
/// batched forward serve N lanes with N different corrupted weight sets
/// (see Network::forward_batch) and lets parallel campaigns share a single
/// read-only policy. Inference always runs in float over the dequantized
/// words: a corrupted int8 or fixed-point word reaches the forward as the
/// float it decodes to.
///
/// This header is deliberately free of nn/ includes so the layer stack can
/// depend on it without a cycle.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "fault/model.hpp"
#include "numeric/fixed_point.hpp"

namespace frlfi {

/// Statistics of one injection.
struct InjectionReport {
  /// Bits actually flipped (or forced, for stuck-at).
  std::size_t bits_flipped = 0;
  /// Total bits in the target buffer.
  std::size_t bits_total = 0;
};

/// Sparse corruption record: ascending flat parameter indices and the
/// corrupted float value at each. Entries are only the parameters whose
/// deployed word a fault changed — untouched parameters read the shared
/// deployed base instead.
struct WeightOverlay {
  std::vector<std::size_t> indices;
  std::vector<float> values;

  std::size_t size() const { return indices.size(); }
  bool empty() const { return indices.empty(); }

  void clear() {
    indices.clear();
    values.clear();
  }

  /// Append an entry; indices must arrive in strictly ascending order
  /// (the injectors and the detector merge both walk the flat space
  /// front to back).
  void add(std::size_t index, float value);

  /// Write every entry into `weights` (weights[index] = value) — the
  /// materialization of the in-place injectors and the detector scan.
  void apply_to(std::span<float> weights) const;
};

/// Read-only effective-parameter view: a full flat base vector plus an
/// optional sparse overlay. Copyable by value (two pointers and a size);
/// the referenced base and overlay must outlive the view.
struct WeightView {
  /// Flat parameter vector (layer order), length `params`.
  const float* base = nullptr;
  std::size_t params = 0;
  /// Sparse corrections on top of base; null for a clean lane.
  const WeightOverlay* overlay = nullptr;

  /// Contiguous effective values for the span [offset, offset+count) —
  /// how a layer reads its parameters. When the overlay has no entry in
  /// the span this is a zero-copy pointer into base; otherwise the span
  /// is copied into `scratch` and patched there.
  const float* span(std::size_t offset, std::size_t count,
                    std::vector<float>& scratch) const;

  /// Resolved pointers for the ubiquitous two-parameter layer layout:
  /// weights at `offset` (weight_count values) with the bias immediately
  /// after (bias_count values). The single home of that offset
  /// arithmetic, shared by every parameterized layer's view overrides.
  struct WeightBias {
    const float* weight;
    const float* bias;
  };
  WeightBias weight_bias(std::size_t offset, std::size_t weight_count,
                         std::size_t bias_count,
                         std::vector<float>& weight_scratch,
                         std::vector<float>& bias_scratch) const;
};

/// The deployed-domain image of one clean parameter vector: the integer
/// words the fault model acts on and the dequantized base every lane
/// shares. Immutable after construction; inject() is const and
/// thread-safe, so concurrent lanes can strike the same image at once.
class DeployedWeights {
 public:
  /// Int8 deployment: calibrate on the finite magnitudes of `weights`,
  /// widen the scale by `headroom`, quantize (NaN to word 0, ±Inf
  /// saturated to ±127 — see Int8Quantizer).
  static DeployedWeights int8_image(std::span<const float> weights,
                                    float headroom = 1.0f);

  /// Fixed-point deployment: encode every weight as a Q(s,i,f) word.
  static DeployedWeights fixed_point_image(std::span<const float> weights,
                                           const FixedPointFormat& format);

  /// The dequantized clean parameters — what every untouched weight reads
  /// as once the policy is deployed (quantization noise included).
  const std::vector<float>& base() const { return base_; }

  /// Parameter count.
  std::size_t size() const { return base_.size(); }

  /// A WeightView of the base with `overlay` on top (overlay may be null).
  WeightView view(const WeightOverlay* overlay) const {
    return WeightView{base_.data(), base_.size(), overlay};
  }

  /// Run one fault through the deployed words (corrupt_words over a copy
  /// of the clean words), recording the decoded value of every changed
  /// word into `out` (cleared first). An empty image draws nothing.
  InjectionReport inject(const FaultSpec& spec, Rng& rng,
                         WeightOverlay& out) const;

 private:
  DeployedWeights() = default;

  enum class Repr { Int8, Fixed };
  Repr repr_ = Repr::Int8;
  float int8_scale_ = 1.0f;                  // Int8: dequantization step
  FixedPointFormat format_;                  // Fixed: word format
  std::vector<std::int8_t> int8_codes_;      // Int8: clean quantized words
  std::vector<std::uint32_t> fixed_words_;   // Fixed: clean encoded words
  std::vector<float> base_;
};

}  // namespace frlfi
