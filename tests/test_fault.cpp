#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "fault/model.hpp"
#include "frl/policies.hpp"
#include "numeric/bitutil.hpp"

namespace frlfi {
namespace {

TEST(FaultModel, Names) {
  EXPECT_EQ(to_string(FaultModel::TransientSingleStep), "Trans-1");
  EXPECT_EQ(to_string(FaultModel::TransientPersistent), "Trans-M");
  EXPECT_EQ(to_string(FaultModel::StuckAt0), "Stuck-at-0");
  EXPECT_EQ(to_string(FaultModel::StuckAt1), "Stuck-at-1");
  EXPECT_EQ(to_string(FaultSite::AgentFault), "agent");
  EXPECT_EQ(to_string(FaultSite::ServerFault), "server");
}

// corrupt_words serves two word types: int8 bytes (width 8) and
// fixed-point codewords in 32-bit words (width 16 here). The tests below
// keep every buffer as 32-bit values and corrupt it at either width.
constexpr int kWidths[] = {8, 16};

FaultSpec flip_spec(double ber, FlipDirection dir = FlipDirection::Any,
                    FaultModel model = FaultModel::TransientPersistent) {
  FaultSpec spec;
  spec.model = model;
  spec.ber = ber;
  spec.direction = dir;
  return spec;
}

std::size_t corrupt_at_width(std::vector<std::uint32_t>& values, int width,
                             const FaultSpec& spec, Rng& rng) {
  if (width != 8) return corrupt_words(values, width, spec, rng);
  std::vector<std::uint8_t> bytes(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(values[i]);
  const std::size_t changed = corrupt_words(bytes, 8, spec, rng);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = bytes[i];
  return changed;
}

std::size_t ones(const std::vector<std::uint32_t>& values) {
  std::size_t n = 0;
  for (const std::uint32_t v : values)
    n += static_cast<std::size_t>(std::popcount(v));
  return n;
}

// `pattern` repeated in every byte of a width-bit word.
std::uint32_t fill(int width, std::uint8_t pattern) {
  return width == 8 ? pattern : pattern * 0x0101u;
}

TEST(FlipBitsBer, ZeroBerIsNoOp) {
  for (const int width : kWidths) {
    std::vector<std::uint32_t> buf(64, fill(width, 0xAA));
    Rng rng(1), untouched(1);
    EXPECT_EQ(corrupt_at_width(buf, width, flip_spec(0.0), rng), 0u);
    for (auto v : buf) EXPECT_EQ(v, fill(width, 0xAA));
    EXPECT_EQ(rng.next_u64(), untouched.next_u64());  // nothing drawn
  }
}

TEST(FlipBitsBer, FlipCountTracksBer) {
  for (const int width : kWidths) {
    std::vector<std::uint32_t> buf(4000, 0);
    Rng rng(2);
    const std::size_t flips =
        corrupt_at_width(buf, width, flip_spec(0.01), rng);
    const double expected = 4000.0 * width * 0.01;
    EXPECT_NEAR(static_cast<double>(flips), expected, expected * 0.4);
    EXPECT_EQ(ones(buf), flips);  // starting from zero, flips = ones
  }
}

TEST(FlipBitsBer, DirectionZeroToOneOnlySetsBits) {
  for (const int width : kWidths) {
    std::vector<std::uint32_t> buf(100, fill(width, 0x0F));
    Rng rng(3);
    const std::size_t before = ones(buf);
    const std::size_t flips = corrupt_at_width(
        buf, width, flip_spec(0.2, FlipDirection::ZeroToOne), rng);
    EXPECT_GT(flips, 0u);
    EXPECT_EQ(ones(buf), before + flips);
  }
}

TEST(FlipBitsBer, DirectionOneToZeroOnlyClearsBits) {
  for (const int width : kWidths) {
    std::vector<std::uint32_t> buf(100, fill(width, 0xF0));
    Rng rng(4);
    const std::size_t before = ones(buf);
    const std::size_t flips = corrupt_at_width(
        buf, width, flip_spec(0.2, FlipDirection::OneToZero), rng);
    EXPECT_GT(flips, 0u);
    EXPECT_EQ(ones(buf), before - flips);
  }
}

TEST(FlipBitsBer, BerOneWithAnyDirectionFlipsEverything) {
  for (const int width : kWidths) {
    std::vector<std::uint32_t> buf(8, 0);
    Rng rng(5);
    EXPECT_EQ(corrupt_at_width(buf, width, flip_spec(1.0), rng),
              8u * static_cast<std::size_t>(width));
    for (auto v : buf) EXPECT_EQ(v, fill(width, 0xFF));
  }
}

TEST(FlipBitsBer, InvalidBerThrows) {
  for (const int width : kWidths) {
    std::vector<std::uint32_t> buf(1, 0);
    Rng rng(6);
    EXPECT_THROW(corrupt_at_width(buf, width, flip_spec(-0.1), rng), Error);
    EXPECT_THROW(corrupt_at_width(buf, width, flip_spec(1.1), rng), Error);
  }
  // The width must fit the word type.
  std::vector<std::uint8_t> bytes(1, 0);
  std::vector<std::uint32_t> words(1, 0);
  Rng rng(6);
  EXPECT_THROW(corrupt_words(bytes, 0, flip_spec(0.1), rng), Error);
  EXPECT_THROW(corrupt_words(bytes, 9, flip_spec(0.1), rng), Error);
  EXPECT_THROW(corrupt_words(words, 33, flip_spec(0.1), rng), Error);
}

TEST(CorruptWords, MatchesPerBitLoopAcrossLaneGroups) {
  // Buffers of two or more lane groups plus a tail, so the bulk draw's
  // full groups, partial groups and serial tail all run; the oracle is one
  // bernoulli(thr) trial per bit, LSB first, applied bit by bit.
  const struct {
    int width;
    std::size_t words;
  } shapes[] = {{8, 3 * Rng::kLaneGroup / 8 + 5},
                {7, 2 * Rng::kLaneGroup / 7 + 3},
                {12, 2500},
                {32, 2 * Rng::kLaneGroup / 32 + 1}};
  const struct {
    FaultModel model;
    FlipDirection direction;
  } rules[] = {{FaultModel::TransientSingleStep, FlipDirection::Any},
               {FaultModel::TransientPersistent, FlipDirection::Any},
               {FaultModel::TransientPersistent, FlipDirection::ZeroToOne},
               {FaultModel::TransientPersistent, FlipDirection::OneToZero},
               {FaultModel::StuckAt0, FlipDirection::Any},
               {FaultModel::StuckAt1, FlipDirection::Any}};
  for (const auto& shape : shapes) {
    for (const auto& rule : rules) {
      for (const double ber : {1e-3, 0.3}) {
        const FaultSpec spec = flip_spec(ber, rule.direction, rule.model);
        std::vector<std::uint32_t> values(shape.words);
        Rng data(shape.words);
        const std::uint32_t low = shape.width == 32
                                      ? ~std::uint32_t{0}
                                      : (std::uint32_t{1} << shape.width) - 1;
        for (auto& v : values)
          v = static_cast<std::uint32_t>(data.next_u64()) & low;

        std::vector<std::uint32_t> expected = values;
        std::size_t expected_changed = 0;
        Rng oracle(61);
        const BernoulliThreshold thr(ber);
        for (auto& v : expected) {
          for (int b = 0; b < shape.width; ++b) {
            if (!oracle.bernoulli(thr)) continue;
            const bool set = (v >> b) & 1u;
            const bool allowed =
                rule.model == FaultModel::StuckAt0   ? set
                : rule.model == FaultModel::StuckAt1 ? !set
                : rule.direction == FlipDirection::ZeroToOne ? !set
                : rule.direction == FlipDirection::OneToZero ? set
                                                             : true;
            if (allowed) {
              v ^= std::uint32_t{1} << b;
              ++expected_changed;
            }
          }
        }

        Rng rng(61);
        std::size_t changed = 0;
        if (shape.width <= 8) {
          std::vector<std::uint8_t> bytes(values.begin(), values.end());
          changed = corrupt_words(bytes, shape.width, spec, rng);
          values.assign(bytes.begin(), bytes.end());
        } else {
          changed = corrupt_words(values, shape.width, spec, rng);
        }
        EXPECT_EQ(values, expected)
            << "width " << shape.width << " model " << to_string(rule.model)
            << " ber " << ber;
        EXPECT_EQ(changed, expected_changed);
        EXPECT_EQ(rng.next_u64(), oracle.next_u64());
      }
    }
  }
}

TEST(FlipBitsExact, FlipsExactlyNDistinctBits) {
  std::vector<std::uint8_t> buf(16, 0);
  Rng rng(7);
  EXPECT_EQ(flip_bits_exact(buf, 10, rng), 10u);
  EXPECT_EQ(popcount(buf), 10u);  // distinct positions: all still set
}

TEST(FlipBitsExact, ZeroAndFullRange) {
  std::vector<std::uint8_t> buf(2, 0);
  Rng rng(8);
  EXPECT_EQ(flip_bits_exact(buf, 0, rng), 0u);
  EXPECT_EQ(flip_bits_exact(buf, 16, rng), 16u);
  EXPECT_EQ(popcount(buf), 16u);
  EXPECT_THROW(flip_bits_exact(buf, 17, rng), Error);
}

TEST(StickBits, ForcesValueAndCountsChanges) {
  for (const int width : kWidths) {
    std::vector<std::uint32_t> buf(100, fill(width, 0xFF));
    Rng rng(9);
    const FaultSpec stuck0 =
        flip_spec(0.5, FlipDirection::Any, FaultModel::StuckAt0);
    const std::size_t changed = corrupt_at_width(buf, width, stuck0, rng);
    EXPECT_GT(changed, 0u);
    EXPECT_EQ(ones(buf), 100u * static_cast<std::size_t>(width) - changed);
    // Sticking already-zero bits to zero changes nothing.
    std::vector<std::uint32_t> zeros(100, 0);
    EXPECT_EQ(corrupt_at_width(zeros, width, stuck0, rng), 0u);
  }
}

TEST(InjectInt8, CorruptsWeightsInPlace) {
  std::vector<float> w(200);
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = 0.01f * static_cast<float>(i) - 1.0f;
  const std::vector<float> orig = w;
  FaultSpec spec;
  spec.ber = 0.05;
  Rng rng(10);
  const InjectionReport report = inject_int8(w, spec, rng);
  EXPECT_EQ(report.bits_total, 200u * 8);
  EXPECT_GT(report.bits_flipped, 0u);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < w.size(); ++i) changed += w[i] != orig[i];
  EXPECT_GT(changed, 0u);
}

TEST(InjectInt8, ZeroBerOnlyQuantizes) {
  std::vector<float> w{0.5f, -0.25f, 1.0f};
  FaultSpec spec;
  spec.ber = 0.0;
  Rng rng(11);
  const InjectionReport report = inject_int8(w, spec, rng);
  EXPECT_EQ(report.bits_flipped, 0u);
  EXPECT_NEAR(w[0], 0.5f, 1.0f / 127.0f);
}

TEST(InjectInt8, StuckAt0ShrinksMagnitudes) {
  std::vector<float> w(500, 1.0f);  // quantizes to +127 = 0b01111111
  FaultSpec spec;
  spec.model = FaultModel::StuckAt0;
  spec.ber = 0.3;
  Rng rng(12);
  inject_int8(w, spec, rng);
  for (float v : w) EXPECT_LE(v, 1.0f + 1e-6f);
}

TEST(InjectInt8, TotalOverNonFiniteWeights) {
  // A corrupted float payload may carry ±Inf or NaN. The int8 image
  // calibrates over the finite magnitudes (here 3e38), saturates ±Inf to
  // ±127 and sends NaN to word 0 — through the image, its overlays, the
  // in-place injector at both headrooms and the layer image. The image's
  // base is the words {127, -127, 0, 127, -127, 0} times the scale.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> w{inf, -inf, nan, 3e38f, -3e38f, 0.0f};
  const DeployedWeights image = DeployedWeights::int8_image(w);
  const float s = 3e38f / 127.0f;
  EXPECT_EQ(image.base(), (std::vector<float>{127.0f * s, -127.0f * s, 0.0f,
                                              127.0f * s, -127.0f * s, 0.0f}));
  for (const float v : image.base()) EXPECT_TRUE(std::isfinite(v));
  for (const double ber : {0.0, 0.05, 1.0}) {
    FaultSpec spec;
    spec.ber = ber;
    Rng ra(31);
    WeightOverlay overlay;
    EXPECT_NO_THROW(image.inject(spec, ra, overlay));
    for (const float v : overlay.values) EXPECT_TRUE(std::isfinite(v));
    for (const float headroom : {1.0f, 2.0f}) {
      std::vector<float> in_place = w;
      Rng rng(32);
      EXPECT_NO_THROW(inject_int8(in_place, spec, rng, headroom));
      // Headroom 2 widens a 3e38 range past FLT_MAX, so its saturated
      // words dequantize to ±Inf; nothing ever reads back as NaN.
      for (const float v : in_place) {
        EXPECT_FALSE(std::isnan(v)) << ber;
        if (headroom == 1.0f) {
          EXPECT_TRUE(std::isfinite(v)) << ber;
        }
      }
    }
  }
  Rng init(33);
  Network net = make_gridworld_policy(init);
  std::vector<float> flat = net.flat_parameters();
  flat[0] = inf;
  flat[1] = nan;
  flat[2] = 3e38f;
  net.set_flat_parameters(flat);
  FaultSpec spec;
  spec.ber = 0.05;
  Rng rng(34);
  EXPECT_NO_THROW(inject_layer_weights(net, 0, spec, rng));
  for (const float v : net.flat_parameters()) EXPECT_TRUE(std::isfinite(v));
}

TEST(InjectFixedPoint, WiderFormatDeviatesMore) {
  // §IV-B.3: with equal BER, Q(1,10,5) suffers larger value deviations
  // than Q(1,4,11) because flipped high bits represent larger magnitudes.
  auto deviation = [](const FixedPointFormat& fmt) {
    std::vector<float> w(3000, 0.3f);
    FaultSpec spec;
    spec.ber = 0.01;
    Rng rng(13);
    inject_fixed_point(w, fmt, spec, rng);
    double dev = 0.0;
    for (float v : w) dev += std::abs(v - 0.3);
    return dev;
  };
  EXPECT_GT(deviation(FixedPointFormat::q1_10_5()),
            deviation(FixedPointFormat::q1_4_11()) * 2);
}

TEST(InjectFixedPoint, CleanPassIsQuantizationOnly) {
  std::vector<float> w{0.5f, -0.125f};
  FaultSpec spec;
  spec.ber = 0.0;
  Rng rng(14);
  const InjectionReport r =
      inject_fixed_point(w, FixedPointFormat::q1_4_11(), spec, rng);
  EXPECT_EQ(r.bits_flipped, 0u);
  EXPECT_NEAR(w[0], 0.5f, 1e-3f);
  EXPECT_NEAR(w[1], -0.125f, 1e-3f);
}

TEST(InjectFixedPoint, InvalidBerThrows) {
  // The fixed-point path validates its BER through corrupt_words:
  // out-of-range and NaN rates throw on the in-place injector and on the
  // overlay plane alike.
  const std::vector<float> clean{0.5f, -0.25f, 1.0f};
  const FixedPointFormat fmt = FixedPointFormat::q1_7_8();
  const DeployedWeights image = DeployedWeights::fixed_point_image(clean, fmt);
  for (const double ber :
       {std::numeric_limits<double>::quiet_NaN(), -0.1, 1.5}) {
    FaultSpec spec;
    spec.ber = ber;
    std::vector<float> w = clean;
    Rng rng(15);
    EXPECT_THROW(inject_fixed_point(w, fmt, spec, rng), Error) << ber;
    WeightOverlay overlay;
    EXPECT_THROW(image.inject(spec, rng, overlay), Error) << ber;
  }
}

TEST(InjectFixedPoint, MaskPathMatchesReferenceExactly) {
  // The mask-based hot path consumes the identical Bernoulli stream as the
  // per-bit reference, so for equal seeds the corrupted buffers and flip
  // counts must agree bit-for-bit across every model/direction.
  const FaultSpec base = [] {
    FaultSpec s;
    s.ber = 0.02;
    return s;
  }();
  struct Case {
    FaultModel model;
    FlipDirection direction;
  };
  const Case cases[] = {
      {FaultModel::TransientPersistent, FlipDirection::Any},
      {FaultModel::TransientPersistent, FlipDirection::ZeroToOne},
      {FaultModel::TransientPersistent, FlipDirection::OneToZero},
      {FaultModel::StuckAt0, FlipDirection::Any},
      {FaultModel::StuckAt1, FlipDirection::Any},
  };
  for (const auto& c : cases) {
    FaultSpec spec = base;
    spec.model = c.model;
    spec.direction = c.direction;
    Rng seed_rng(21);
    std::vector<float> w_fast(800), w_ref;
    for (auto& v : w_fast) v = static_cast<float>(seed_rng.uniform(-2.0, 2.0));
    w_ref = w_fast;
    Rng rng_fast(22), rng_ref(22);
    const InjectionReport fast = inject_fixed_point(
        w_fast, FixedPointFormat::q1_7_8(), spec, rng_fast);
    const InjectionReport ref = inject_fixed_point_reference(
        w_ref, FixedPointFormat::q1_7_8(), spec, rng_ref);
    EXPECT_EQ(fast.bits_flipped, ref.bits_flipped);
    EXPECT_EQ(fast.bits_total, ref.bits_total);
    EXPECT_EQ(w_fast, w_ref);
    EXPECT_GT(fast.bits_flipped, 0u);  // the case actually exercised flips
  }
}

TEST(InjectNetwork, ChangesParameters) {
  Rng init(15);
  Network net = make_gridworld_policy(init);
  const std::vector<float> before = net.flat_parameters();
  FaultSpec spec;
  spec.ber = 0.02;
  Rng rng(16);
  const InjectionReport r = inject_network_weights(net, spec, rng);
  EXPECT_EQ(r.bits_total, before.size() * 8);
  EXPECT_NE(net.flat_parameters(), before);
}

TEST(InjectLayer, OnlyTouchesThatLayer) {
  Rng init(17);
  Network net = make_gridworld_policy(init);
  // Collect per-layer parameter snapshots.
  const std::vector<float> before0 =
      net.layer(0).parameters()[0]->value.data();
  const std::vector<float> before2 =
      net.layer(2).parameters()[0]->value.data();
  FaultSpec spec;
  spec.ber = 0.05;
  Rng rng(18);
  inject_layer_weights(net, 2, spec, rng);
  EXPECT_EQ(net.layer(0).parameters()[0]->value.data(), before0);
  EXPECT_NE(net.layer(2).parameters()[0]->value.data(), before2);
}

TEST(WeightRestoreGuard, RestoresOnScopeExit) {
  Rng init(19);
  Network net = make_gridworld_policy(init);
  const std::vector<float> before = net.flat_parameters();
  {
    WeightRestoreGuard guard(net);
    FaultSpec spec;
    spec.ber = 0.1;
    Rng rng(20);
    inject_network_weights(net, spec, rng);
    EXPECT_NE(net.flat_parameters(), before);
  }
  EXPECT_EQ(net.flat_parameters(), before);
}

/// Statistical coverage of the fault rule, independent of draw order: the
/// flip count is Binomial(eligible bits, BER), hits spread uniformly over
/// the bit positions of a word, and the model / direction filters never
/// touch a forbidden bit — at both word widths.
class BerProperty
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

std::vector<std::uint32_t> random_words(std::size_t n, int width,
                                        std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t mask = (1u << width) - 1u;
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = static_cast<std::uint32_t>(rng.next_u64()) & mask;
  return v;
}

// |count - n p| within 4 sigma of Binomial(n, p).
void expect_binomial(std::size_t count, std::size_t n, double p,
                     const std::string& what) {
  const double mean = static_cast<double>(n) * p;
  const double sigma = std::sqrt(mean * (1.0 - p));
  EXPECT_LE(std::abs(static_cast<double>(count) - mean), 4.0 * sigma + 1e-9)
      << what << ": " << count << " flips of " << n << " bits at p " << p;
}

TEST_P(BerProperty, FlipCountWithinFourSigmaOfBinomial) {
  const auto [ber, width] = GetParam();
  std::vector<std::uint32_t> buf = random_words(20000, width, 21);
  Rng rng(22);
  const std::size_t flips = corrupt_at_width(buf, width, flip_spec(ber), rng);
  expect_binomial(flips, buf.size() * static_cast<std::size_t>(width), ber,
                  "Any");
}

TEST_P(BerProperty, HitsAreUniformOverBitPositions) {
  const auto [ber, width] = GetParam();
  // 60000 words: at least 5 expected hits per bit position at BER 1e-4.
  const std::vector<std::uint32_t> before = random_words(60000, width, 23);
  std::vector<std::uint32_t> after = before;
  Rng rng(24);
  corrupt_at_width(after, width, flip_spec(ber), rng);
  std::vector<double> per_bit(static_cast<std::size_t>(width), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i)
    for (int b = 0; b < width; ++b)
      if (((before[i] ^ after[i]) >> b) & 1u) {
        per_bit[static_cast<std::size_t>(b)] += 1.0;
        total += 1.0;
      }
  const double expected = total / width;
  ASSERT_GE(expected, 5.0) << "too few hits for a chi-square test";
  double chi2 = 0.0;
  for (const double o : per_bit)
    chi2 += (o - expected) * (o - expected) / expected;
  // Upper 1e-4 quantiles of chi-square at width - 1 degrees of freedom.
  const double critical = width == 8 ? 29.88 : 44.26;
  EXPECT_LT(chi2, critical) << "ber " << ber << " width " << width;
}

TEST_P(BerProperty, FiltersNeverTouchForbiddenBits) {
  const auto [ber, width] = GetParam();
  struct Case {
    FaultModel model;
    FlipDirection direction;
    bool may_set;    // 0 -> 1 allowed
    bool may_clear;  // 1 -> 0 allowed
  };
  const Case cases[] = {
      {FaultModel::TransientPersistent, FlipDirection::ZeroToOne, true, false},
      {FaultModel::TransientSingleStep, FlipDirection::OneToZero, false, true},
      {FaultModel::StuckAt0, FlipDirection::Any, false, true},
      {FaultModel::StuckAt1, FlipDirection::ZeroToOne, true, false},
      {FaultModel::StuckAt0, FlipDirection::ZeroToOne, false, true},
  };
  const std::uint32_t word_mask = (1u << width) - 1u;
  for (const Case& c : cases) {
    const std::string what = to_string(c.model) + " direction " +
                             std::to_string(static_cast<int>(c.direction));
    const std::vector<std::uint32_t> before = random_words(20000, width, 25);
    std::vector<std::uint32_t> after = before;
    Rng rng(26);
    const std::size_t changed = corrupt_at_width(
        after, width, flip_spec(ber, c.direction, c.model), rng);
    std::size_t observed = 0;
    std::size_t eligible = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
      const std::uint32_t diff = before[i] ^ after[i];
      ASSERT_EQ(diff & ~word_mask, 0u) << what;  // above the word: untouched
      if (!c.may_set) {
        ASSERT_EQ(diff & ~before[i], 0u) << what;
      }
      if (!c.may_clear) {
        ASSERT_EQ(diff & before[i], 0u) << what;
      }
      observed += static_cast<std::size_t>(std::popcount(diff));
      const int set = std::popcount(before[i]);
      eligible += static_cast<std::size_t>(c.may_clear ? set : width - set);
    }
    EXPECT_EQ(observed, changed) << what;
    // Every allowed bit is still hit at the full rate.
    expect_binomial(changed, eligible, ber, what);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bers, BerProperty,
    ::testing::Combine(::testing::Values(1e-4, 1e-3, 1e-2, 0.1, 0.5),
                       ::testing::ValuesIn(kWidths)));

}  // namespace
}  // namespace frlfi
