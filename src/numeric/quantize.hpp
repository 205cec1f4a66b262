#pragma once

/// \file quantize.hpp
/// Symmetric per-tensor int8 quantization.
///
/// The paper quantizes policies to 8 bits for edge deployment and injects
/// bit flips into the quantized representation. Training math stays in
/// float; the quantizer provides the int8 view that faults act on, plus the
/// dequantization back into the float weights the network executes with.

#include <cstdint>
#include <span>
#include <vector>

namespace frlfi {

/// Symmetric linear quantizer: q = clamp(round(x / scale), -127, 127).
/// scale is chosen so that max|x| maps to 127 (with a tiny epsilon floor so
/// an all-zero tensor still has a valid scale).
///
/// Contract the fault injectors and the quantized inference plane rely on
/// (pinned by tests/test_quantize.cpp):
///  * the clamp is symmetric, [-127, 127]: the word -128 never appears in
///    a clean quantized image — only a bit flip can produce it, so the
///    int8 kernels' overflow analysis (gemm_s8.hpp) treats -128 as a
///    corruption-only value;
///  * rounding is round-to-nearest with ties away from zero (std::round),
///    so every path that requantizes — weights at deployment, activations
///    per layer — lands ties on the same word;
///  * calibration saturates exactly at ±max|x| (maps to ±127) and an
///    all-zero tensor still yields a valid positive scale (epsilon floor);
///  * the quantizer is total: calibration ranges over the finite
///    magnitudes only, NaN quantizes to word 0 and ±Inf saturates to
///    ±127 — a corrupted float payload cannot poison the scale or reach
///    an undefined float→int8 conversion.
class Int8Quantizer {
 public:
  /// Calibrate the scale from the data's maximum magnitude.
  static Int8Quantizer calibrate(std::span<const float> data);
  static Int8Quantizer calibrate(const std::vector<float>& data) {
    return calibrate(std::span<const float>(data));
  }

  /// Construct with an explicit scale (> 0).
  explicit Int8Quantizer(float scale);

  /// The dequantization step size.
  float scale() const { return scale_; }

  /// Quantize one value.
  std::int8_t quantize(float x) const;

  /// Dequantize one value.
  float dequantize(std::int8_t q) const { return static_cast<float>(q) * scale_; }

  /// Quantize a buffer.
  std::vector<std::int8_t> quantize(std::span<const float> xs) const;

  /// Dequantize a buffer.
  std::vector<float> dequantize(const std::vector<std::int8_t>& qs) const;

 private:
  float scale_;
};

/// Round-trip a float buffer through int8 (quantize-dequantize), emulating
/// an 8-bit deployment of the tensor. Returns the quantization-noise-bearing
/// reconstruction.
std::vector<float> int8_roundtrip(const std::vector<float>& xs);

/// Per-layer activation requantization for the quantized inference plane.
///
/// The int8 forward path keeps one weight scale per deployed image
/// (DeployedWeights::int8_scale) and derives a fresh symmetric activation
/// scale per layer input — per *sample*, so a batched forward quantizes
/// each lane exactly as the single-sample forward would and batching can
/// never change a bit. A layer's int32 accumulator then dequantizes
/// through the scale product (output_scale below): the "per-layer scales"
/// of the quantization literature, with round-to-nearest ties pinned by
/// Int8Quantizer's std::round.

/// Symmetric activation scale for one sample: the largest finite |x|
/// mapped to 127 with Int8Quantizer::calibrate's exact epsilon floor, so
/// an all-zero activation vector still quantizes (to all-zero words) and
/// the scale always equals calibrate's.
float activation_scale(std::span<const float> xs);

/// Quantize `xs` with `scale` into `out` (size xs.size()):
/// Int8Quantizer(scale).quantize per element — round-to-nearest ties away
/// from zero, clamped to [-127, 127], NaN to 0.
void quantize_activations(std::span<const float> xs, float scale,
                          std::int8_t* out);

/// Per-sample activation scales over a batch-inner (features, B) block:
/// scales[b] = activation_scale of column b. The per-sample granularity is
/// what makes the batched quant forward bit-identical to the single-sample
/// one at every batch width and shard split.
void activation_scales_inner(const float* x, std::size_t features,
                             std::size_t batch, float* scales);

/// Quantize a batch-inner (features, B) block with per-sample scales:
/// out[f*batch + b] = quantize(x[f*batch + b]) under scales[b].
void quantize_activations_inner(const float* x, std::size_t features,
                                std::size_t batch, const float* scales,
                                std::int8_t* out);

/// Dequantization step of an int8 x int8 -> int32 layer output: the
/// product of the weight-image scale and the activation scale. Every
/// quant forward dequantizes as
///   y = bias_f + float(acc) * output_scale(w_scale, x_scale)
/// — single expression, pinned so single/batched/sharded paths agree
/// bit-for-bit.
inline float output_scale(float weight_scale, float act_scale) {
  return weight_scale * act_scale;
}

/// Fold a batch-inner int32 accumulator block back to float:
///   y[f*batch + b] = bias[f / group]
///                  + float(acc[f*batch + b]) * output_scale(weight_scale,
///                                                           act_scales[b])
/// `rows` spans the flat output features (out_c * ncols for conv, out for
/// dense) and `group` is the per-bias feature block (ncols for conv, 1 for
/// dense). The expression is exactly the pinned dequantization above,
/// evaluated lane-blocked so the fold vectorizes at every batch width.
void dequantize_outputs_inner(const std::int32_t* acc, std::size_t rows,
                              std::size_t batch, const float* bias,
                              std::size_t group, float weight_scale,
                              const float* act_scales, float* y);

}  // namespace frlfi
