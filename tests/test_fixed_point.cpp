#include "numeric/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"

namespace frlfi {
namespace {

/// Value of one LSB of `f`: 2^-f.
double lsb(const FixedPointFormat& f) { return std::ldexp(1.0, -f.fraction_bits); }

/// Encode `v`, flip bit `bit` of the raw word, decode.
double flip_one_bit(const FixedPointCodec& codec, double v, int bit) {
  return codec.decode(codec.flip_bit(codec.encode(v), bit));
}

TEST(FixedPointFormat, WordBitsAndRanges) {
  const FixedPointFormat q = FixedPointFormat::q1_7_8();
  EXPECT_EQ(q.word_bits(), 16);
  EXPECT_DOUBLE_EQ(q.min_value(), -128.0);
  EXPECT_NEAR(q.max_value(), 128.0 - 1.0 / 256.0, 1e-12);
}

TEST(FixedPointFormat, PaperFormatsAre16Bit) {
  EXPECT_EQ(FixedPointFormat::q1_4_11().word_bits(), 16);
  EXPECT_EQ(FixedPointFormat::q1_7_8().word_bits(), 16);
  EXPECT_EQ(FixedPointFormat::q1_10_5().word_bits(), 16);
}

TEST(FixedPointFormat, Name) {
  EXPECT_EQ(FixedPointFormat::q1_4_11().name(), "Q(1,4,11)");
}

TEST(FixedPointCodec, RoundTripWithinResolution) {
  const FixedPointCodec codec(FixedPointFormat::q1_7_8());
  for (double v : {0.0, 1.0, -1.0, 3.14159, -100.5, 127.99}) {
    const double back = codec.decode(codec.encode(v));
    EXPECT_NEAR(back, v, lsb(codec.format()) / 2.0 + 1e-12) << v;
  }
}

TEST(FixedPointCodec, SaturatesOutOfRange) {
  const FixedPointCodec codec(FixedPointFormat::q1_4_11());
  EXPECT_NEAR(codec.decode(codec.encode(1000.0)),
              codec.format().max_value(), 1e-9);
  EXPECT_NEAR(codec.decode(codec.encode(-1000.0)),
              codec.format().min_value(), 1e-9);
}

TEST(FixedPointCodec, NanEncodesAsZero) {
  const FixedPointCodec codec(FixedPointFormat::q1_7_8());
  EXPECT_EQ(codec.decode(codec.encode(std::nan(""))), 0.0);
}

TEST(FixedPointCodec, NegativeValuesSignExtend) {
  const FixedPointCodec codec(FixedPointFormat::q1_7_8());
  const std::uint32_t raw = codec.encode(-2.5);
  EXPECT_TRUE(raw & (1u << 15));  // sign bit set
  EXPECT_NEAR(codec.decode(raw), -2.5, 1e-9);
}

TEST(FixedPointCodec, FlipBitIsInvolution) {
  const FixedPointCodec codec(FixedPointFormat::q1_7_8());
  const std::uint32_t raw = codec.encode(1.25);
  for (int b = 0; b < 16; ++b)
    EXPECT_EQ(codec.flip_bit(codec.flip_bit(raw, b), b), raw);
}

TEST(FixedPointCodec, FlipBitOutOfRangeThrows) {
  const FixedPointCodec codec(FixedPointFormat::q1_7_8());
  EXPECT_THROW(codec.flip_bit(0, 16), Error);
  EXPECT_THROW(codec.flip_bit(0, -1), Error);
}

TEST(FixedPointCodec, SignBitFlipHasMassiveEffect) {
  const FixedPointCodec codec(FixedPointFormat::q1_10_5());
  const double v = 0.5;
  const double flipped = flip_one_bit(codec, v, 15);  // sign bit
  EXPECT_LT(flipped, codec.format().min_value() / 2.0);
}

TEST(FixedPointCodec, LsbFlipHasTinyEffect) {
  const FixedPointCodec codec(FixedPointFormat::q1_4_11());
  const double v = 0.5;
  EXPECT_NEAR(flip_one_bit(codec, v, 0), v, lsb(codec.format()) * 2);
}

TEST(FixedPointCodec, WideIntegerRangeDeviatesMore) {
  // The paper's §IV-B.3 claim in codec form: the worst-case value
  // deviation from one high-order bit flip grows with integer bits.
  const FixedPointCodec narrow(FixedPointFormat::q1_4_11());
  const FixedPointCodec wide(FixedPointFormat::q1_10_5());
  const double v = 0.25;
  const double dev_narrow =
      std::abs(flip_one_bit(narrow, v, 14) - v);  // top magnitude bit
  const double dev_wide = std::abs(flip_one_bit(wide, v, 14) - v);
  EXPECT_GT(dev_wide, dev_narrow * 10);
}

TEST(FixedPointCodec, RejectsAbsurdWordLengths) {
  EXPECT_THROW(FixedPointCodec({40, 0}), Error);
}

/// Property sweep over formats: encode/decode round trip stays within one
/// resolution step across the representable range.
class CodecRoundTrip : public ::testing::TestWithParam<FixedPointFormat> {};

TEST_P(CodecRoundTrip, WithinHalfLsbAcrossRange) {
  const FixedPointCodec codec(GetParam());
  const double lo = codec.format().min_value();
  const double hi = codec.format().max_value();
  for (int i = 0; i <= 200; ++i) {
    const double v = lo + (hi - lo) * i / 200.0;
    EXPECT_NEAR(codec.decode(codec.encode(v)), v,
                lsb(codec.format()) / 2.0 + 1e-12);
  }
}

TEST_P(CodecRoundTrip, EncodeStaysWithinMask) {
  const FixedPointCodec codec(GetParam());
  for (double v : {-1e9, -1.0, 0.0, 0.1, 7.7, 1e9})
    EXPECT_EQ(codec.encode(v) & ~codec.word_mask(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PaperFormats, CodecRoundTrip,
    ::testing::Values(FixedPointFormat::q1_4_11(), FixedPointFormat::q1_7_8(),
                      FixedPointFormat::q1_10_5(), FixedPointFormat{2, 5},
                      FixedPointFormat{0, 7}),
    [](const ::testing::TestParamInfo<FixedPointFormat>& param_info) {
      return "i" + std::to_string(param_info.param.integer_bits) + "f" +
             std::to_string(param_info.param.fraction_bits);
    });

}  // namespace
}  // namespace frlfi
