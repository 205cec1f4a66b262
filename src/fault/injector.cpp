#include "fault/injector.hpp"

#include <algorithm>
#include <bit>

#include "core/error.hpp"
#include "numeric/bitutil.hpp"
#include "numeric/quantize.hpp"

namespace frlfi {

namespace {

/// One corrupted bit of a burst: apply the spec's temporal model and
/// direction constraint to live bit `i`. Returns 1 if the bit changed.
std::size_t corrupt_one_bit(std::span<std::uint8_t> bytes, std::size_t i,
                            const FaultSpec& spec) {
  const bool current = get_bit(bytes, i);
  switch (spec.model) {
    case FaultModel::TransientSingleStep:
    case FaultModel::TransientPersistent:
      if (spec.direction == FlipDirection::ZeroToOne && current) return 0;
      if (spec.direction == FlipDirection::OneToZero && !current) return 0;
      flip_bit(bytes, i);
      return 1;
    case FaultModel::StuckAt0:
      if (!current) return 0;
      set_bit(bytes, i, false);
      return 1;
    case FaultModel::StuckAt1:
      if (current) return 0;
      set_bit(bytes, i, true);
      return 1;
  }
  return 0;
}

}  // namespace

std::size_t corrupt_bits(std::span<std::uint8_t> bytes, const FaultSpec& spec,
                         Rng& rng) {
  if (spec.burst.length > 1) return corrupt_bits_burst(bytes, spec, rng);
  switch (spec.model) {
    case FaultModel::TransientSingleStep:
    case FaultModel::TransientPersistent:
      // Temporal scope (one read vs. until-overwritten) is handled by the
      // caller (WeightRestoreGuard / overlay lifetime / training
      // overwrite); the bit-level action is the same flip.
      return flip_bits_ber(bytes, spec.ber, rng, spec.direction);
    case FaultModel::StuckAt0:
      return stick_bits_ber(bytes, spec.ber, false, rng);
    case FaultModel::StuckAt1:
      return stick_bits_ber(bytes, spec.ber, true, rng);
  }
  return 0;
}

std::size_t corrupt_bits_burst(std::span<std::uint8_t> bytes,
                               const FaultSpec& spec, Rng& rng,
                               std::size_t word_bits) {
  const BernoulliThreshold thr(spec.ber);  // checks BER ∈ [0, 1]
  FRLFI_CHECK_MSG(spec.burst.length >= 1,
                  "burst length " << spec.burst.length);
  FRLFI_CHECK_MSG(word_bits >= 1, "word_bits " << word_bits);
  if (spec.ber == 0.0 || bytes.empty()) return 0;
  const std::size_t nbits = bit_count(bytes);
  const std::size_t stride =
      spec.burst.axis == BurstAxis::Row ? std::size_t{1} : word_bits;
  std::size_t changed = 0;
  for (std::size_t i = 0; i < nbits; ++i) {
    // The event stream: one draw per bit, exactly what bernoulli(ber)
    // draws and exactly flip_bits_ber's / stick_bits_ber's consumption,
    // so length-1 bursts replay the single-bit injectors bit for bit.
    if (!rng.bernoulli(thr)) continue;
    for (std::size_t k = 0; k < spec.burst.length; ++k) {
      const std::size_t j = i + k * stride;
      if (j >= nbits) break;
      changed += corrupt_one_bit(bytes, j, spec);
    }
  }
  return changed;
}

std::size_t corrupt_fixed_words_burst(std::span<std::uint32_t> words,
                                      int word_bits, const FaultSpec& spec,
                                      Rng& rng) {
  const BernoulliThreshold thr(spec.ber);  // checks BER ∈ [0, 1]
  FRLFI_CHECK_MSG(spec.burst.length >= 1,
                  "burst length " << spec.burst.length);
  FRLFI_CHECK_MSG(word_bits >= 1, "word_bits " << word_bits);
  if (spec.ber == 0.0 || words.empty()) return 0;
  const auto wb = static_cast<std::size_t>(word_bits);
  const std::size_t nbits = words.size() * wb;
  const std::size_t stride =
      spec.burst.axis == BurstAxis::Row ? std::size_t{1} : wb;
  const bool transient = spec.model == FaultModel::TransientSingleStep ||
                         spec.model == FaultModel::TransientPersistent;
  std::size_t changed = 0;
  // Word-major, bit-ascending global order: bit g lives at bit (g % wb)
  // of word (g / wb) — the draw order of FixedPointFlipper and the
  // reference injector, so length-1 bursts stay on the golden stream.
  auto corrupt = [&](std::size_t g) {
    std::uint32_t& raw = words[g / wb];
    const std::uint32_t bit = 1u << (g % wb);
    const bool current = (raw & bit) != 0;
    if (transient) {
      if (spec.direction == FlipDirection::ZeroToOne && current) return;
      if (spec.direction == FlipDirection::OneToZero && !current) return;
    } else if (spec.model == FaultModel::StuckAt0 ? !current : current) {
      return;
    }
    raw ^= bit;
    ++changed;
  };
  for (std::size_t g = 0; g < nbits; ++g) {
    // One draw per bit, exactly what bernoulli(ber) draws.
    if (!rng.bernoulli(thr)) continue;
    for (std::size_t k = 0; k < spec.burst.length; ++k) {
      const std::size_t j = g + k * stride;
      if (j >= nbits) break;
      corrupt(j);
    }
  }
  return changed;
}

std::size_t flip_bits_ber(std::span<std::uint8_t> bytes, double ber, Rng& rng,
                          FlipDirection direction) {
  const BernoulliThreshold thr(ber);  // checks BER ∈ [0, 1]
  if (ber == 0.0 || bytes.empty()) return 0;
  std::size_t flipped = 0;
  const std::size_t nbits = bit_count(bytes);
  for (std::size_t i = 0; i < nbits; ++i) {
    // One draw per bit, exactly what bernoulli(ber) draws.
    if (!rng.bernoulli(thr)) continue;
    const bool current = get_bit(bytes, i);
    if (direction == FlipDirection::ZeroToOne && current) continue;
    if (direction == FlipDirection::OneToZero && !current) continue;
    flip_bit(bytes, i);
    ++flipped;
  }
  return flipped;
}

std::size_t flip_bits_exact(std::span<std::uint8_t> bytes, std::size_t n_flips,
                            Rng& rng) {
  const std::size_t nbits = bit_count(bytes);
  FRLFI_CHECK_MSG(n_flips <= nbits, n_flips << " flips in " << nbits << " bits");
  if (n_flips == 0) return 0;
  // Floyd's algorithm for distinct samples without building the full range.
  std::vector<std::size_t> chosen;
  chosen.reserve(n_flips);
  for (std::size_t j = nbits - n_flips; j < nbits; ++j) {
    std::size_t t = static_cast<std::size_t>(rng.uniform_index(j + 1));
    if (std::find(chosen.begin(), chosen.end(), t) != chosen.end()) t = j;
    chosen.push_back(t);
  }
  for (std::size_t i : chosen) flip_bit(bytes, i);
  return n_flips;
}

std::size_t stick_bits_ber(std::span<std::uint8_t> bytes, double ber,
                           bool value, Rng& rng) {
  const BernoulliThreshold thr(ber);  // checks BER ∈ [0, 1]
  if (ber == 0.0 || bytes.empty()) return 0;
  std::size_t changed = 0;
  const std::size_t nbits = bit_count(bytes);
  for (std::size_t i = 0; i < nbits; ++i) {
    // One draw per bit, exactly what bernoulli(ber) draws.
    if (!rng.bernoulli(thr)) continue;
    if (get_bit(bytes, i) != value) {
      set_bit(bytes, i, value);
      ++changed;
    }
  }
  return changed;
}

InjectionReport inject_int8(std::span<float> weights, const FaultSpec& spec,
                            Rng& rng, float headroom) {
  FRLFI_CHECK_MSG(headroom >= 1.0f, "headroom " << headroom);
  InjectionReport report;
  if (weights.empty()) return report;
  const Int8Quantizer base = Int8Quantizer::calibrate(
      std::span<const float>(weights.data(), weights.size()));
  const Int8Quantizer q(base.scale() * headroom);
  std::vector<std::int8_t> qs(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) qs[i] = q.quantize(weights[i]);
  auto bytes = std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(qs.data()), qs.size());
  report.bits_total = bit_count(bytes);
  report.bits_flipped = corrupt_bits(bytes, spec, rng);
  for (std::size_t i = 0; i < weights.size(); ++i)
    weights[i] = q.dequantize(qs[i]);
  return report;
}

InjectionReport inject_int8(std::vector<float>& weights, const FaultSpec& spec,
                            Rng& rng, float headroom) {
  return inject_int8(std::span<float>(weights), spec, rng, headroom);
}

FixedPointFlipper::FixedPointFlipper(const FaultSpec& spec, int word_bits)
    : thr_(spec.ber),
      word_bits_(word_bits),
      // Resolve the model/direction once: the per-word filter is "keep
      // only flips of currently-set bits", "only currently-clear bits",
      // or both.
      only_set_bits_(
          spec.model == FaultModel::StuckAt0 ||
          ((spec.model == FaultModel::TransientSingleStep ||
            spec.model == FaultModel::TransientPersistent) &&
           spec.direction == FlipDirection::OneToZero)),
      only_clear_bits_(
          spec.model == FaultModel::StuckAt1 ||
          ((spec.model == FaultModel::TransientSingleStep ||
            spec.model == FaultModel::TransientPersistent) &&
           spec.direction == FlipDirection::ZeroToOne)) {}

std::uint32_t FixedPointFlipper::flip_mask(std::uint32_t raw, Rng& rng) const {
  // Draw one Bernoulli per bit (exactly the bernoulli(ber) stream the
  // reference consumes, so results are bit-identical), collect the hits
  // into a mask, and filter it against the whole word at once — no
  // per-bit flip/branch chain.
  std::uint32_t mask = rng.bernoulli_mask(thr_, word_bits_);
  if (only_set_bits_) mask &= raw;
  if (only_clear_bits_) mask &= ~raw;
  return mask;
}

InjectionReport inject_fixed_point(std::vector<float>& weights,
                                   const FixedPointFormat& format,
                                   const FaultSpec& spec, Rng& rng) {
  InjectionReport report;
  if (weights.empty()) return report;
  const FixedPointCodec codec(format);
  const int word_bits = format.word_bits();
  report.bits_total = weights.size() * static_cast<std::size_t>(word_bits);
  if (spec.burst.length > 1) {
    // Correlated-burst plane: encode everything, run the word-major burst
    // corruptor over the live codewords, decode everything (every weight
    // passes through the deployed representation, touched or not).
    std::vector<std::uint32_t> words(weights.size());
    for (std::size_t i = 0; i < weights.size(); ++i)
      words[i] = codec.encode(weights[i]);
    report.bits_flipped =
        corrupt_fixed_words_burst(words, word_bits, spec, rng);
    for (std::size_t i = 0; i < weights.size(); ++i)
      weights[i] = static_cast<float>(codec.decode(words[i]));
    return report;
  }
  const FixedPointFlipper flipper(spec, word_bits);
  for (auto& w : weights) {
    std::uint32_t raw = codec.encode(w);
    const std::uint32_t mask = flipper.flip_mask(raw, rng);
    if (mask) {
      raw ^= mask;
      report.bits_flipped += static_cast<std::size_t>(std::popcount(mask));
    }
    // Decode unconditionally so every weight passes through the deployed
    // representation (quantization noise included), touched or not.
    w = static_cast<float>(codec.decode(raw));
  }
  return report;
}

InjectionReport inject_fixed_point_reference(std::vector<float>& weights,
                                             const FixedPointFormat& format,
                                             const FaultSpec& spec, Rng& rng) {
  InjectionReport report;
  if (weights.empty()) return report;
  const FixedPointCodec codec(format);
  const int word_bits = format.word_bits();
  report.bits_total = weights.size() * static_cast<std::size_t>(word_bits);
  for (auto& w : weights) {
    std::uint32_t raw = codec.encode(w);
    for (int b = 0; b < word_bits; ++b) {
      if (!rng.bernoulli(spec.ber)) continue;
      const bool current = (raw >> b) & 1u;
      switch (spec.model) {
        case FaultModel::TransientSingleStep:
        case FaultModel::TransientPersistent:
          if (spec.direction == FlipDirection::ZeroToOne && current) continue;
          if (spec.direction == FlipDirection::OneToZero && !current) continue;
          raw = codec.flip_bit(raw, b);
          ++report.bits_flipped;
          break;
        case FaultModel::StuckAt0:
          if (current) {
            raw = codec.flip_bit(raw, b);
            ++report.bits_flipped;
          }
          break;
        case FaultModel::StuckAt1:
          if (!current) {
            raw = codec.flip_bit(raw, b);
            ++report.bits_flipped;
          }
          break;
      }
    }
    w = static_cast<float>(codec.decode(raw));
  }
  return report;
}

InjectionReport inject_network_weights(Network& net, const FaultSpec& spec,
                                       Rng& rng) {
  // Overlay-plane route: deployed image + sparse flip set, materialized
  // back into the network (training faults persist). base()+overlay is
  // bit-identical to the historical flatten → inject_int8 → restore path
  // (tests/test_fault_overlay.cpp), so nothing downstream moves — but a
  // campaign replaying many fault plans over one trained snapshot can now
  // share the image read-only and keep only overlays per plan.
  const DeployedWeights deployed =
      DeployedWeights::int8_image(net.flat_parameters());
  WeightOverlay overlay;
  const InjectionReport report = deployed.inject(spec, rng, overlay);
  std::vector<float> flat = deployed.base();
  overlay.apply_to(flat);
  net.set_flat_parameters(flat);
  return report;
}

LayerDeployedWeights::LayerDeployedWeights(Network& net,
                                           std::size_t layer_index)
    : base_(net.flat_parameters()) {
  layer_begin_ = net.layer_offset(layer_index);
  std::size_t offset = layer_begin_;
  for (Parameter* p : net.layer(layer_index).parameters()) {
    const std::vector<float>& w = p->value.data();
    TensorImage img;
    img.offset = offset;
    // Exactly inject_int8's per-tensor representation at headroom 1.
    img.scale = Int8Quantizer::calibrate(w).scale();
    const Int8Quantizer q(img.scale);
    img.words = q.quantize(w);
    for (std::size_t i = 0; i < w.size(); ++i)
      base_[offset + i] = q.dequantize(img.words[i]);
    offset += w.size();
    tensors_.push_back(std::move(img));
  }
  layer_end_ = offset;
}

InjectionReport LayerDeployedWeights::inject(const FaultSpec& spec, Rng& rng,
                                             WeightOverlay& out) const {
  out.clear();
  InjectionReport report;
  for (const TensorImage& img : tensors_) {
    // Same byte stream as the per-tensor in-place loop: corrupt a copy of
    // the clean words with the shared temporal-model dispatcher, then
    // record only the words that changed.
    std::vector<std::int8_t> words = img.words;
    auto bytes = std::span<std::uint8_t>(
        reinterpret_cast<std::uint8_t*>(words.data()), words.size());
    report.bits_total += bit_count(bytes);
    report.bits_flipped += corrupt_bits(bytes, spec, rng);
    const Int8Quantizer q(img.scale);
    for (std::size_t i = 0; i < words.size(); ++i)
      if (words[i] != img.words[i])
        out.add(img.offset + i, q.dequantize(words[i]));
  }
  return report;
}

InjectionReport inject_layer_weights(Network& net, std::size_t layer_index,
                                     const FaultSpec& spec, Rng& rng) {
  const LayerDeployedWeights deployed(net, layer_index);
  WeightOverlay overlay;
  const InjectionReport report = deployed.inject(spec, rng, overlay);
  std::vector<float> flat = deployed.base();
  overlay.apply_to(flat);
  net.set_flat_parameters(flat);
  return report;
}

WeightRestoreGuard::WeightRestoreGuard(Network& net)
    : net_(&net), saved_(net.flat_parameters()) {}

WeightRestoreGuard::~WeightRestoreGuard() { net_->set_flat_parameters(saved_); }

}  // namespace frlfi
