#include "numeric/quantize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "core/error.hpp"

namespace frlfi {
namespace {

TEST(Int8Quantizer, CalibrationMapsMaxTo127) {
  const std::vector<float> data{0.5f, -2.0f, 1.0f};
  const Int8Quantizer q = Int8Quantizer::calibrate(data);
  EXPECT_EQ(q.quantize(-2.0f), -127);
  EXPECT_EQ(q.quantize(2.0f), 127);
}

TEST(Int8Quantizer, RoundTripWithinHalfStep) {
  const std::vector<float> data{0.9f, -0.4f, 0.1f, -1.0f};
  const Int8Quantizer q = Int8Quantizer::calibrate(data);
  for (float v : data)
    EXPECT_NEAR(q.dequantize(q.quantize(v)), v, q.scale() / 2.0f + 1e-7f);
}

TEST(Int8Quantizer, ClampsBeyondRange) {
  const Int8Quantizer q(0.01f);
  EXPECT_EQ(q.quantize(100.0f), 127);
  EXPECT_EQ(q.quantize(-100.0f), -127);
}

TEST(Int8Quantizer, ZeroIsExact) {
  const Int8Quantizer q(0.033f);
  EXPECT_EQ(q.quantize(0.0f), 0);
  EXPECT_EQ(q.dequantize(0), 0.0f);
}

TEST(Int8Quantizer, AllZeroDataStillHasValidScale) {
  const std::vector<float> zeros(10, 0.0f);
  const Int8Quantizer q = Int8Quantizer::calibrate(zeros);
  EXPECT_GT(q.scale(), 0.0f);
  EXPECT_EQ(q.quantize(0.0f), 0);
}

TEST(Int8Quantizer, BufferInterfacesMatchScalar) {
  const std::vector<float> data{0.3f, -0.7f, 0.0f, 1.5f};
  const Int8Quantizer q = Int8Quantizer::calibrate(data);
  const auto qs = q.quantize(data);
  const auto back = q.dequantize(qs);
  ASSERT_EQ(back.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(qs[i], q.quantize(data[i]));
    EXPECT_EQ(back[i], q.dequantize(qs[i]));
  }
}

TEST(Int8Quantizer, InvalidScaleThrows) {
  EXPECT_THROW(Int8Quantizer(0.0f), Error);
  EXPECT_THROW(Int8Quantizer(-1.0f), Error);
  EXPECT_THROW(Int8Quantizer(std::numeric_limits<float>::infinity()), Error);
}

// ---- Clamp-asymmetry contract (documented on Int8Quantizer): the fault
// injectors and the int8 kernels' overflow analysis rely on these. ----

TEST(Int8QuantizerContract, CleanImageNeverContainsMinusFullScale) {
  // The clamp floor is -127, not -128: no input — in range, at the
  // calibrated extreme, or arbitrarily far beyond it — quantizes to the
  // word -128. Only a bit flip on a deployed word can produce it.
  std::vector<float> data;
  for (int i = 0; i < 1000; ++i)
    data.push_back(std::sin(static_cast<float>(i) * 0.7f) * 3.0f);
  const Int8Quantizer q = Int8Quantizer::calibrate(data);
  for (float v : data) {
    const std::int8_t w = q.quantize(v);
    EXPECT_GE(w, -127);
    EXPECT_LE(w, 127);
  }
  EXPECT_EQ(q.quantize(-3.0f), -127);
  EXPECT_EQ(q.quantize(-1e30f), -127);
  EXPECT_EQ(q.quantize(-std::numeric_limits<float>::infinity()), -127);
}

TEST(Int8QuantizerContract, AllZeroCalibrationUsesEpsilonFloorScale) {
  // An all-zero tensor calibrates to exactly the documented epsilon floor
  // (1e-8 mapped to 127), and the activation-plane calibration shares the
  // identical expression — so an all-zero layer input quantizes to
  // all-zero words with a valid positive scale on both planes.
  const std::vector<float> zeros(16, 0.0f);
  const Int8Quantizer q = Int8Quantizer::calibrate(zeros);
  EXPECT_FLOAT_EQ(q.scale(), 1e-8f / 127.0f);
  EXPECT_FLOAT_EQ(activation_scale(std::span<const float>(zeros)), q.scale());
}

TEST(Int8QuantizerContract, SaturatesExactlyAtCalibratedMax) {
  // ±max|x| maps to exactly ±127, and anything beyond clamps to the same
  // words — saturation, never wraparound.
  const std::vector<float> data{0.25f, -1.75f, 0.5f};
  const Int8Quantizer q = Int8Quantizer::calibrate(data);
  EXPECT_EQ(q.quantize(1.75f), 127);
  EXPECT_EQ(q.quantize(-1.75f), -127);
  EXPECT_EQ(q.quantize(17.5f), 127);
  EXPECT_EQ(q.quantize(-17.5f), -127);
}

TEST(Int8QuantizerContract, TiesRoundAwayFromZero) {
  // std::round semantics, pinned so every requantization path (weights at
  // deployment, activations per layer) lands ties on the same word.
  const Int8Quantizer q(1.0f);
  EXPECT_EQ(q.quantize(0.5f), 1);
  EXPECT_EQ(q.quantize(-0.5f), -1);
  EXPECT_EQ(q.quantize(1.5f), 2);
  EXPECT_EQ(q.quantize(-2.5f), -3);
}

TEST(ActivationRequant, InnerHelpersMatchPerSampleScalar) {
  // activation_scales_inner / quantize_activations_inner over a
  // batch-inner (features, B) block must equal per-sample
  // activation_scale + quantize_activations of each gathered column —
  // the property that makes batched quant forwards width-invariant.
  const std::size_t features = 7, batch = 5;
  std::vector<float> x(features * batch);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(static_cast<float>(i) * 1.3f) * 2.5f;
  std::vector<float> scales(batch);
  std::vector<std::int8_t> words(features * batch);
  activation_scales_inner(x.data(), features, batch, scales.data());
  quantize_activations_inner(x.data(), features, batch, scales.data(),
                             words.data());
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<float> col(features);
    for (std::size_t f = 0; f < features; ++f) col[f] = x[f * batch + b];
    const float s = activation_scale(col);
    EXPECT_EQ(scales[b], s);
    std::vector<std::int8_t> colq(features);
    quantize_activations(col, s, colq.data());
    for (std::size_t f = 0; f < features; ++f)
      EXPECT_EQ(words[f * batch + b], colq[f]);
  }
}

TEST(Int8QuantizerContract, TotalOverNonFiniteValues) {
  // Calibration ranges over the finite magnitudes, NaN quantizes to word
  // 0 and ±Inf saturates — and the activation plane (span and batch-inner
  // forms) stays word-identical to the weight quantizer on such inputs.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x{inf, -inf, nan, 3e38f, -1.0f, nan};
  const Int8Quantizer q = Int8Quantizer::calibrate(x);
  EXPECT_FLOAT_EQ(q.scale(), 3e38f / 127.0f);
  EXPECT_EQ(q.quantize(x),
            (std::vector<std::int8_t>{127, -127, 0, 127, 0, 0}));
  EXPECT_EQ(Int8Quantizer::calibrate(std::vector<float>{nan, inf}).scale(),
            1e-8f / 127.0f);
  EXPECT_EQ(activation_scale(x), q.scale());
  std::vector<std::int8_t> words(x.size());
  quantize_activations(x, q.scale(), words.data());
  EXPECT_EQ(words, q.quantize(x));
  // The same column in every lane of a batch-inner block wide enough for
  // the 16-, 4- and 1-lane kernels.
  const std::size_t batch = 21;
  std::vector<float> block(x.size() * batch);
  for (std::size_t f = 0; f < x.size(); ++f)
    for (std::size_t b = 0; b < batch; ++b) block[f * batch + b] = x[f];
  std::vector<float> scales(batch);
  std::vector<std::int8_t> inner(block.size());
  activation_scales_inner(block.data(), x.size(), batch, scales.data());
  quantize_activations_inner(block.data(), x.size(), batch, scales.data(),
                             inner.data());
  for (std::size_t b = 0; b < batch; ++b) {
    EXPECT_EQ(scales[b], q.scale());
    for (std::size_t f = 0; f < x.size(); ++f)
      EXPECT_EQ(inner[f * batch + b], words[f]) << "f " << f;
  }
}

/// Property: round-trip error is at most scale/2 for any magnitude scale.
class QuantizeScaleProperty : public ::testing::TestWithParam<float> {};

TEST_P(QuantizeScaleProperty, HalfStepBound) {
  const float magnitude = GetParam();
  std::vector<float> data;
  for (int i = -10; i <= 10; ++i)
    data.push_back(magnitude * static_cast<float>(i) / 10.0f);
  const Int8Quantizer q = Int8Quantizer::calibrate(data);
  // Allow a whisker beyond half a step for float rounding at the boundary.
  const float tol = q.scale() / 2.0f * 1.001f + 1e-6f;
  for (float v : data)
    EXPECT_NEAR(q.dequantize(q.quantize(v)), v, tol);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, QuantizeScaleProperty,
                         ::testing::Values(1e-4f, 0.1f, 1.0f, 10.0f, 1e4f));

}  // namespace
}  // namespace frlfi
