#include "fault/overlay.hpp"

#include <algorithm>
#include <span>

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "numeric/quantize.hpp"

namespace frlfi {

void WeightOverlay::add(std::size_t index, float value) {
  FRLFI_CHECK_MSG(indices.empty() || index > indices.back(),
                  "overlay index " << index << " after " << indices.back());
  indices.push_back(index);
  values.push_back(value);
}

void WeightOverlay::apply_to(std::span<float> weights) const {
  for (std::size_t e = 0; e < indices.size(); ++e) {
    FRLFI_CHECK_MSG(indices[e] < weights.size(),
                    "overlay index " << indices[e] << " in " << weights.size());
    weights[indices[e]] = values[e];
  }
}

const float* WeightView::span(std::size_t offset, std::size_t count,
                              std::vector<float>& scratch) const {
  FRLFI_CHECK_MSG(offset + count <= params,
                  "view span [" << offset << ", " << offset + count << ") in "
                                << params);
  if (overlay == nullptr || overlay->empty()) return base + offset;
  const auto lo = std::lower_bound(overlay->indices.begin(),
                                   overlay->indices.end(), offset);
  if (lo == overlay->indices.end() || *lo >= offset + count)
    return base + offset;
  scratch.assign(base + offset, base + offset + count);
  for (auto it = lo; it != overlay->indices.end() && *it < offset + count; ++it)
    scratch[*it - offset] =
        overlay->values[static_cast<std::size_t>(it - overlay->indices.begin())];
  return scratch.data();
}

WeightView::WeightBias WeightView::weight_bias(
    std::size_t offset, std::size_t weight_count, std::size_t bias_count,
    std::vector<float>& weight_scratch, std::vector<float>& bias_scratch) const {
  return {span(offset, weight_count, weight_scratch),
          span(offset + weight_count, bias_count, bias_scratch)};
}

DeployedWeights DeployedWeights::int8_image(std::span<const float> weights,
                                            float headroom) {
  FRLFI_CHECK_MSG(headroom >= 1.0f, "headroom " << headroom);
  DeployedWeights d;
  d.repr_ = Repr::Int8;
  if (weights.empty()) return d;
  d.int8_scale_ = Int8Quantizer::calibrate(weights).scale() * headroom;
  const Int8Quantizer q(d.int8_scale_);
  d.int8_codes_ = q.quantize(weights);
  d.base_ = q.dequantize(d.int8_codes_);
  return d;
}

DeployedWeights DeployedWeights::fixed_point_image(
    std::span<const float> weights, const FixedPointFormat& format) {
  DeployedWeights d;
  d.repr_ = Repr::Fixed;
  d.format_ = format;
  if (weights.empty()) return d;
  const FixedPointCodec codec(format);
  d.fixed_words_.reserve(weights.size());
  d.base_.reserve(weights.size());
  for (const float w : weights) {
    const std::uint32_t raw = codec.encode(w);
    d.fixed_words_.push_back(raw);
    d.base_.push_back(static_cast<float>(codec.decode(raw)));
  }
  return d;
}

namespace {

// The strike inject() runs on either representation: corrupt a copy of
// the clean words and visit each changed word, in ascending index order
// (WeightOverlay::add's contract).
template <typename Word, typename Visit>
InjectionReport strike_words(std::span<const Word> clean, int word_bits,
                             const FaultSpec& spec, Rng& rng, Visit&& visit) {
  InjectionReport report;
  report.bits_total = clean.size() * static_cast<std::size_t>(word_bits);
  std::vector<Word> words(clean.begin(), clean.end());
  report.bits_flipped =
      corrupt_words(std::span<Word>(words), word_bits, spec, rng);
  for (std::size_t i = 0; i < words.size(); ++i)
    if (words[i] != clean[i]) visit(i, words[i]);
  return report;
}

// Int8 words as the raw bytes corrupt_words acts on.
std::span<const std::uint8_t> word_bytes(
    const std::vector<std::int8_t>& words) {
  return {reinterpret_cast<const std::uint8_t*>(words.data()), words.size()};
}

}  // namespace

InjectionReport DeployedWeights::inject(const FaultSpec& spec, Rng& rng,
                                        WeightOverlay& out) const {
  out.clear();
  if (base_.empty()) return {};
  if (repr_ == Repr::Int8) {
    const Int8Quantizer q(int8_scale_);
    return strike_words(word_bytes(int8_codes_), 8, spec, rng,
                        [&](std::size_t i, std::uint8_t word) {
                          out.add(i,
                                  q.dequantize(static_cast<std::int8_t>(word)));
                        });
  }
  const FixedPointCodec codec(format_);
  return strike_words(std::span<const std::uint32_t>(fixed_words_),
                      format_.word_bits(), spec, rng,
                      [&](std::size_t i, std::uint32_t word) {
                        out.add(i, static_cast<float>(codec.decode(word)));
                      });
}

}  // namespace frlfi
