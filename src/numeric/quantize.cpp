#include "numeric/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace frlfi {
namespace {

// Bit-exact std::round (round-to-nearest, ties away from zero) in a form
// the vectorizer handles: trunc + a half-step correction. For |r| >= 2^23
// the fraction is zero, and an infinite r yields a NaN difference whose
// comparisons are false — both reduce to trunc(r) = r, matching libm.
inline float round_ties_away(float r) {
  const float t = std::trunc(r);
  const float d = r - t;
  return t + (d >= 0.5f ? 1.0f : 0.0f) - (d <= -0.5f ? 1.0f : 0.0f);
}

// |x| for finite x and 0 for ±Inf and NaN: every scale is calibrated over
// the finite magnitudes only, so one non-finite value cannot poison it.
inline float finite_magnitude(float x) {
  const float a = std::abs(x);
  return a <= std::numeric_limits<float>::max() ? a : 0.0f;
}

// The word value of a rounded quotient, as a float: clamped to
// [-127, 127] (±Inf saturates), NaN to 0 — narrowing a NaN is undefined.
inline float word_value(float r) {
  return std::isnan(r) ? 0.0f : std::clamp(r, -127.0f, 127.0f);
}

inline std::int8_t quantize_word(float x, float scale) {
  // A true division: a reciprocal multiply would differ by an ulp on some
  // inputs and move ties onto the neighbouring word.
  return static_cast<std::int8_t>(word_value(round_ties_away(x / scale)));
}

}  // namespace

Int8Quantizer Int8Quantizer::calibrate(std::span<const float> data) {
  // Every term is a finite non-negative float or +0 (finite_magnitude maps
  // NaN and ±Inf to 0), and a max over such terms is exact in any order:
  // kLanes independent running maxima, combined in a fixed order, give the
  // one scalar chain's result bit for bit without its latency chain.
  constexpr std::size_t kLanes = 16;
  float lanes[kLanes] = {};
  const std::size_t n = data.size();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes)
    for (std::size_t l = 0; l < kLanes; ++l)
      lanes[l] = std::max(lanes[l], finite_magnitude(data[i + l]));
  float max_abs = 0.0f;
  for (; i < n; ++i) max_abs = std::max(max_abs, finite_magnitude(data[i]));
  for (const float m : lanes) max_abs = std::max(max_abs, m);
  constexpr float kMinScaleNumerator = 1e-8f;
  return Int8Quantizer(std::max(max_abs, kMinScaleNumerator) / 127.0f);
}

Int8Quantizer::Int8Quantizer(float scale) : scale_(scale) {
  FRLFI_CHECK_MSG(scale > 0.0f && std::isfinite(scale), "invalid scale " << scale);
}

std::int8_t Int8Quantizer::quantize(float x) const {
  return quantize_word(x, scale_);
}

std::vector<std::int8_t> Int8Quantizer::quantize(std::span<const float> xs) const {
  std::vector<std::int8_t> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = quantize(xs[i]);
  return out;
}

std::vector<float> Int8Quantizer::dequantize(const std::vector<std::int8_t>& qs) const {
  std::vector<float> out(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) out[i] = dequantize(qs[i]);
  return out;
}

}  // namespace frlfi
