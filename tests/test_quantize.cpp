#include "numeric/quantize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

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
// injectors rely on these. ----

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
  // (1e-8 mapped to 127), so it quantizes to all-zero words with a valid
  // positive scale.
  const std::vector<float> zeros(16, 0.0f);
  const Int8Quantizer q = Int8Quantizer::calibrate(zeros);
  EXPECT_FLOAT_EQ(q.scale(), 1e-8f / 127.0f);
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
  // std::round semantics, pinned so every quantization of a value lands
  // ties on the same word.
  const Int8Quantizer q(1.0f);
  EXPECT_EQ(q.quantize(0.5f), 1);
  EXPECT_EQ(q.quantize(-0.5f), -1);
  EXPECT_EQ(q.quantize(1.5f), 2);
  EXPECT_EQ(q.quantize(-2.5f), -3);
}

TEST(Int8QuantizerContract, TotalOverNonFiniteValues) {
  // Calibration ranges over the finite magnitudes, NaN quantizes to word
  // 0 and ±Inf saturates.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> x{inf, -inf, nan, 3e38f, -1.0f, nan};
  const Int8Quantizer q = Int8Quantizer::calibrate(x);
  EXPECT_FLOAT_EQ(q.scale(), 3e38f / 127.0f);
  EXPECT_EQ(q.quantize(x),
            (std::vector<std::int8_t>{127, -127, 0, 127, 0, 0}));
  EXPECT_EQ(Int8Quantizer::calibrate(std::vector<float>{nan, inf}).scale(),
            1e-8f / 127.0f);
}

TEST(Int8QuantizerContract, CalibrationMatchesScalarMaxChain) {
  // calibrate's lane-parallel max gives the one running max over the
  // finite magnitudes, bit for bit: rows of every length around the lane
  // count, salted with NaN, ±Inf, -0 and subnormals, all-zero rows, and
  // rows whose lone maximum is the first or the last element.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float sub = std::numeric_limits<float>::denorm_min() * 77.0f;
  const auto scalar_scale = [](const std::vector<float>& row) {
    float max_abs = 0.0f;
    for (const float x : row) {
      const float a = std::abs(x);
      if (a <= std::numeric_limits<float>::max())
        max_abs = std::max(max_abs, a);
    }
    return std::max(max_abs, 1e-8f) / 127.0f;
  };
  Rng rng(5);
  for (const std::size_t n : {1, 2, 15, 16, 17, 31, 32, 33, 100, 1540}) {
    std::vector<std::vector<float>> rows;
    rows.emplace_back(n, 0.0f);
    rows.emplace_back(n, -0.0f);
    std::vector<float> tiny(n, sub);
    tiny.back() = -2.0f * sub;
    rows.push_back(tiny);
    std::vector<float> salted(n);
    for (float& x : salted) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    const float specials[] = {nan, inf, -inf, -0.0f, sub, -sub};
    for (std::size_t s = 0; s < std::size(specials); ++s)
      salted[(s * 7 + 3) % n] = specials[s];
    rows.push_back(salted);
    salted.back() = -3.5f;  // lone maximum, last element
    rows.push_back(salted);
    salted.back() = nan;
    salted.front() = 2.5f;  // lone maximum, first element
    rows.push_back(salted);
    for (const std::vector<float>& row : rows)
      EXPECT_EQ(
          std::bit_cast<std::uint32_t>(Int8Quantizer::calibrate(row).scale()),
          std::bit_cast<std::uint32_t>(scalar_scale(row)))
          << "n=" << n;
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
