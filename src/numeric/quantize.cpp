#include "numeric/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "tensor/gemm.hpp"  // FRLFI_TARGET_CLONES

namespace frlfi {
namespace {

// Bit-exact std::round (round-to-nearest, ties away from zero) in a form
// the vectorizer handles: trunc + a half-step correction. For |r| >= 2^23
// the fraction is zero, and an infinite r yields a NaN difference whose
// comparisons are false — both reduce to trunc(r) = r, matching libm.
// Every requantization path below uses this one helper so the tie rule in
// the Int8Quantizer contract holds across scalar and vector code alike.
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
  // Same division as the scalar quantizer — a reciprocal multiply would
  // differ by an ulp on some inputs and break the word-for-word identity
  // between the activation plane and Int8Quantizer::quantize.
  return static_cast<std::int8_t>(word_value(round_ties_away(x / scale)));
}

// Fixed-width lane blocks for the batch-inner helpers: the vectorizer
// refuses the natural f-outer / b-inner nest when the inner trip count is
// the runtime batch, so the batch axis is walked in compile-time N-lane
// blocks instead (same trick as the float conv kernel's register chunks).
// These are inlined into FRLFI_TARGET_CLONES callers, so each ISA clone
// compiles its own vector code for them. Lane results are bit-identical
// to the scalar walk: max/abs are exact and each quantize_word touches
// one lane.

template <std::size_t N>
inline void scales_block(const float* FRLFI_RESTRICT x, std::size_t features,
                         std::size_t batch, float* FRLFI_RESTRICT scales) {
  float acc[N];
  for (std::size_t l = 0; l < N; ++l) acc[l] = 0.0f;
  for (std::size_t f = 0; f < features; ++f) {
    const float* FRLFI_RESTRICT row = x + f * batch;
#pragma omp simd
    for (std::size_t l = 0; l < N; ++l)
      acc[l] = std::max(acc[l], finite_magnitude(row[l]));
  }
  constexpr float kMinScaleNumerator = 1e-8f;
  for (std::size_t l = 0; l < N; ++l)
    scales[l] = std::max(acc[l], kMinScaleNumerator) / 127.0f;
}

// Stages the rounded-and-clamped word VALUES as floats instead of
// converting in place: GCC refuses to vectorize the float→int8 narrowing
// when it sits inside the lane loop, but happily vectorizes a separate
// flat conversion pass over the staging buffer (~3x, measured). The
// staged value is exactly quantize_word's pre-cast float, so the final
// narrowed words are bit-identical to the scalar walk.
template <std::size_t N>
inline void quantize_stage_block(const float* FRLFI_RESTRICT x,
                                 std::size_t features, std::size_t batch,
                                 const float* FRLFI_RESTRICT scales,
                                 float* FRLFI_RESTRICT stage) {
  float sc[N];
  for (std::size_t l = 0; l < N; ++l) sc[l] = scales[l];
  for (std::size_t f = 0; f < features; ++f) {
    const float* FRLFI_RESTRICT row = x + f * batch;
    float* FRLFI_RESTRICT srow = stage + f * batch;
#pragma omp simd
    for (std::size_t l = 0; l < N; ++l)
      srow[l] = word_value(round_ties_away(row[l] / sc[l]));
  }
}

// Lane-blocked accumulator fold, same shape trick as the blocks above:
// per feature row the bias is scalar and the per-sample output scales are
// the lane constants.
template <std::size_t N>
inline void dequant_block(const std::int32_t* FRLFI_RESTRICT acc,
                          std::size_t rows, std::size_t batch,
                          const float* FRLFI_RESTRICT bias, std::size_t group,
                          const float* FRLFI_RESTRICT so,
                          float* FRLFI_RESTRICT y) {
  float sc[N];
  for (std::size_t l = 0; l < N; ++l) sc[l] = so[l];
  for (std::size_t f = 0; f < rows; ++f) {
    const float bv = bias[f / group];
    const std::int32_t* FRLFI_RESTRICT row = acc + f * batch;
    float* FRLFI_RESTRICT yrow = y + f * batch;
#pragma omp simd
    for (std::size_t l = 0; l < N; ++l)
      yrow[l] = bv + static_cast<float>(row[l]) * sc[l];
  }
}

}  // namespace

Int8Quantizer Int8Quantizer::calibrate(std::span<const float> data) {
  float max_abs = 0.0f;
  for (float x : data) max_abs = std::max(max_abs, finite_magnitude(x));
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

FRLFI_TARGET_CLONES
float activation_scale(std::span<const float> xs) {
  // Exactly Int8Quantizer::calibrate's scale rule (epsilon floor included)
  // without constructing the quantizer. max/abs are exact, so the vector
  // reduction cannot change the result.
  float max_abs = 0.0f;
  const float* p = xs.data();
  const std::size_t n = xs.size();
#pragma omp simd reduction(max : max_abs)  // frlfi-lint: allow(R4) abs/max are exact (no rounding), so any reduction-tree shape yields identical bits
  for (std::size_t i = 0; i < n; ++i) max_abs = std::max(max_abs, finite_magnitude(p[i]));
  constexpr float kMinScaleNumerator = 1e-8f;
  return std::max(max_abs, kMinScaleNumerator) / 127.0f;
}

FRLFI_TARGET_CLONES
void quantize_activations(std::span<const float> xs, float scale,
                          std::int8_t* out) {
  FRLFI_CHECK_MSG(scale > 0.0f && std::isfinite(scale),
                  "invalid scale " << scale);
  const float* p = xs.data();
  const std::size_t n = xs.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) out[i] = quantize_word(p[i], scale);
}

// The inner helpers take FRLFI_RESTRICT pointers: `out` is a char-typed
// pointer whose stores would otherwise alias the scale array, forcing a
// reload (and blocking vectorization) per element.
FRLFI_TARGET_CLONES
void activation_scales_inner(const float* FRLFI_RESTRICT x,
                             std::size_t features, std::size_t batch,
                             float* FRLFI_RESTRICT scales) {
  if (batch == 1) {
    // A width-1 batch-inner block IS the contiguous sample: the single
    // column reduces through the vectorized span form (max is exact, so
    // the reduction order cannot change the scale).
    scales[0] = activation_scale(std::span<const float>(x, features));
    return;
  }
  std::size_t b0 = 0;
  for (; b0 + 16 <= batch; b0 += 16) scales_block<16>(x + b0, features, batch, scales + b0);
  for (; b0 + 8 <= batch; b0 += 8) scales_block<8>(x + b0, features, batch, scales + b0);
  for (; b0 + 4 <= batch; b0 += 4) scales_block<4>(x + b0, features, batch, scales + b0);
  for (; b0 < batch; ++b0) scales_block<1>(x + b0, features, batch, scales + b0);
}

FRLFI_TARGET_CLONES
void quantize_activations_inner(const float* FRLFI_RESTRICT x,
                                std::size_t features, std::size_t batch,
                                const float* FRLFI_RESTRICT scales,
                                std::int8_t* FRLFI_RESTRICT out) {
  if (batch == 1) {
    // Contiguous single-column case: same words through the span form.
    quantize_activations(std::span<const float>(x, features), scales[0], out);
    return;
  }
  for (std::size_t b = 0; b < batch; ++b)
    FRLFI_CHECK_MSG(scales[b] > 0.0f && std::isfinite(scales[b]),
                    "invalid scale " << scales[b]);
  thread_local std::vector<float> stage;
  stage.resize(features * batch);
  float* FRLFI_RESTRICT sp = stage.data();
  std::size_t b0 = 0;
  for (; b0 + 16 <= batch; b0 += 16)
    quantize_stage_block<16>(x + b0, features, batch, scales + b0, sp + b0);
  for (; b0 + 8 <= batch; b0 += 8)
    quantize_stage_block<8>(x + b0, features, batch, scales + b0, sp + b0);
  for (; b0 + 4 <= batch; b0 += 4)
    quantize_stage_block<4>(x + b0, features, batch, scales + b0, sp + b0);
  for (; b0 < batch; ++b0)
    quantize_stage_block<1>(x + b0, features, batch, scales + b0, sp + b0);
  const std::size_t n = features * batch;
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::int8_t>(sp[i]);
}

FRLFI_TARGET_CLONES
void dequantize_outputs_inner(const std::int32_t* FRLFI_RESTRICT acc,
                              std::size_t rows, std::size_t batch,
                              const float* FRLFI_RESTRICT bias,
                              std::size_t group, float weight_scale,
                              const float* FRLFI_RESTRICT act_scales,
                              float* FRLFI_RESTRICT y) {
  thread_local std::vector<float> so;
  so.resize(batch);
  for (std::size_t b = 0; b < batch; ++b)
    so[b] = output_scale(weight_scale, act_scales[b]);
  const float* FRLFI_RESTRICT sp = so.data();
  std::size_t b0 = 0;
  for (; b0 + 16 <= batch; b0 += 16)
    dequant_block<16>(acc + b0, rows, batch, bias, group, sp + b0, y + b0);
  for (; b0 + 8 <= batch; b0 += 8)
    dequant_block<8>(acc + b0, rows, batch, bias, group, sp + b0, y + b0);
  for (; b0 + 4 <= batch; b0 += 4)
    dequant_block<4>(acc + b0, rows, batch, bias, group, sp + b0, y + b0);
  for (; b0 < batch; ++b0)
    dequant_block<1>(acc + b0, rows, batch, bias, group, sp + b0, y + b0);
}

}  // namespace frlfi
