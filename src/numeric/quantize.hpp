#pragma once

/// \file quantize.hpp
/// Symmetric per-tensor int8 quantization.
///
/// The paper quantizes policies to 8 bits for edge deployment and injects
/// bit flips into the quantized representation. Training and inference
/// math stay in float; the quantizer provides the int8 image that faults
/// act on, plus the dequantization back into the float shadow the network
/// executes with (fault/overlay.hpp's DeployedWeights).

#include <cstdint>
#include <span>
#include <vector>

namespace frlfi {

/// Symmetric linear quantizer: q = clamp(round(x / scale), -127, 127).
/// scale is chosen so that max|x| maps to 127 (with a tiny epsilon floor so
/// an all-zero tensor still has a valid scale).
///
/// Contract the fault injectors and the federated channel rely on (pinned
/// by tests/test_quantize.cpp):
///  * the clamp is symmetric, [-127, 127]: the word -128 never appears in
///    a clean quantized image — only a bit flip can produce it;
///  * rounding is round-to-nearest with ties away from zero (std::round),
///    so every quantization of the same value lands ties on the same word;
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

}  // namespace frlfi
