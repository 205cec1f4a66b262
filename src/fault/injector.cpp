#include "fault/injector.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <vector>

#include "core/error.hpp"
#include "numeric/bitutil.hpp"

namespace frlfi {

namespace {

// One body for every word type: the bulk per-bit draw, grouped per word,
// and the model / direction filter of corrupt_words.
template <typename Word>
std::size_t corrupt_words_impl(std::span<Word> words, int word_bits,
                               const FaultSpec& spec, Rng& rng) {
  const BernoulliThreshold thr(spec.ber);  // checks BER ∈ [0, 1]
  FRLFI_CHECK_MSG(word_bits >= 1 &&
                      word_bits <= static_cast<int>(8 * sizeof(Word)),
                  "word_bits " << word_bits);
  if (!thr.draws() && !thr.certain()) return 0;  // BER 0: nothing drawn
  // Resolve the model and direction once: keep only hits on currently-set
  // bits, only hits on currently-clear bits, or all hits. Temporal scope
  // (one read vs. until overwritten) is the caller's business; the
  // bit-level action of both transient models is the same flip.
  const bool transient = spec.model == FaultModel::TransientSingleStep ||
                         spec.model == FaultModel::TransientPersistent;
  const bool only_set =
      spec.model == FaultModel::StuckAt0 ||
      (transient && spec.direction == FlipDirection::OneToZero);
  const bool only_clear =
      spec.model == FaultModel::StuckAt1 ||
      (transient && spec.direction == FlipDirection::ZeroToOne);
  const auto bits = static_cast<std::size_t>(word_bits);
  // Chunks of whole lane groups: hit lists stay bounded (and their
  // indices 32-bit) however large the buffer.
  const std::size_t chunk = Rng::kLaneGroup / std::gcd(Rng::kLaneGroup, bits);
  std::vector<std::uint32_t> hits;
  std::size_t changed = 0;
  for (std::size_t lo = 0; lo < words.size(); lo += chunk) {
    const std::size_t len = std::min(chunk, words.size() - lo);
    hits.clear();
    rng.bernoulli_hits(thr, len * bits, hits);
    // Trial b of word w is hit index w·word_bits + b (LSB first, words in
    // order): gather each word's hits into one mask.
    for (std::size_t h = 0; h < hits.size();) {
      const std::size_t w = hits[h] / bits;
      std::uint32_t mask = 0;
      for (; h < hits.size() && hits[h] / bits == w; ++h)
        mask |= std::uint32_t{1} << (hits[h] - w * bits);
      Word& word = words[lo + w];
      if (only_set) mask &= word;
      if (only_clear) mask &= ~static_cast<std::uint32_t>(word);
      word = static_cast<Word>(word ^ mask);
      changed += static_cast<std::size_t>(std::popcount(mask));
    }
  }
  return changed;
}

// The one in-place route: strike `image` and write its base with the
// corrupted overlay on top into `out` (the image's size).
template <typename Image>
InjectionReport strike_in_place(const Image& image, const FaultSpec& spec,
                                Rng& rng, std::span<float> out) {
  WeightOverlay overlay;
  const InjectionReport report = image.inject(spec, rng, overlay);
  std::copy(image.base().begin(), image.base().end(), out.begin());
  overlay.apply_to(out);
  return report;
}

}  // namespace

std::size_t corrupt_words(std::span<std::uint8_t> words, int word_bits,
                          const FaultSpec& spec, Rng& rng) {
  return corrupt_words_impl(words, word_bits, spec, rng);
}

std::size_t corrupt_words(std::span<std::uint32_t> words, int word_bits,
                          const FaultSpec& spec, Rng& rng) {
  return corrupt_words_impl(words, word_bits, spec, rng);
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

InjectionReport inject_int8(std::span<float> weights, const FaultSpec& spec,
                            Rng& rng, float headroom) {
  return strike_in_place(DeployedWeights::int8_image(weights, headroom), spec,
                         rng, weights);
}

InjectionReport inject_int8(std::vector<float>& weights, const FaultSpec& spec,
                            Rng& rng, float headroom) {
  return inject_int8(std::span<float>(weights), spec, rng, headroom);
}

InjectionReport inject_fixed_point(std::vector<float>& weights,
                                   const FixedPointFormat& format,
                                   const FaultSpec& spec, Rng& rng) {
  return strike_in_place(DeployedWeights::fixed_point_image(weights, format),
                         spec, rng, weights);
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
  std::vector<float> flat = net.flat_parameters();
  const InjectionReport report = inject_int8(flat, spec, rng);
  net.set_flat_parameters(flat);
  return report;
}

LayerDeployedWeights::LayerDeployedWeights(Network& net,
                                           std::size_t layer_index)
    : base_(net.flat_parameters()),
      layer_begin_(net.layer_offset(layer_index)) {
  std::size_t offset = layer_begin_;
  for (Parameter* p : net.layer(layer_index).parameters()) {
    DeployedWeights image = DeployedWeights::int8_image(p->value.data());
    std::copy(image.base().begin(), image.base().end(),
              base_.begin() + static_cast<std::ptrdiff_t>(offset));
    offset += image.size();
    tensors_.push_back(std::move(image));
  }
  layer_end_ = offset;
}

InjectionReport LayerDeployedWeights::inject(const FaultSpec& spec, Rng& rng,
                                             WeightOverlay& out) const {
  out.clear();
  InjectionReport report;
  WeightOverlay tensor;
  std::size_t offset = layer_begin_;
  for (const DeployedWeights& image : tensors_) {
    const InjectionReport r = image.inject(spec, rng, tensor);
    report.bits_flipped += r.bits_flipped;
    report.bits_total += r.bits_total;
    for (std::size_t e = 0; e < tensor.size(); ++e)
      out.add(offset + tensor.indices[e], tensor.values[e]);
    offset += image.size();
  }
  return report;
}

InjectionReport inject_layer_weights(Network& net, std::size_t layer_index,
                                     const FaultSpec& spec, Rng& rng) {
  std::vector<float> flat(net.parameter_count());
  const InjectionReport report =
      strike_in_place(LayerDeployedWeights(net, layer_index), spec, rng, flat);
  net.set_flat_parameters(flat);
  return report;
}

WeightRestoreGuard::WeightRestoreGuard(Network& net)
    : net_(&net), saved_(net.flat_parameters()) {}

WeightRestoreGuard::~WeightRestoreGuard() { net_->set_flat_parameters(saved_); }

}  // namespace frlfi
