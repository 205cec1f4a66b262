#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "core/error.hpp"

namespace frlfi {
namespace {

TEST(SplitMix64, KnownFirstOutputsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(SplitMix64, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(5);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 7.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, kN / 10, kN / 10 * 0.15);
}

TEST(Rng, UniformIndexOneAlwaysZero) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliThresholdIsExact) {
  // bernoulli(p) hits iff k·2^-53 < p for k = next_u64() >> 11; the
  // threshold form hits iff k < T. T - 1 must still hit and T must not,
  // for every p whose threshold is a reachable 53-bit k.
  constexpr double kTwoM53 = 0x1.0p-53;
  const double ps[] = {0.0,
                       std::numeric_limits<double>::denorm_min(),
                       std::nextafter(kTwoM53, 0.0),
                       kTwoM53,
                       std::nextafter(kTwoM53, 1.0),
                       1e-4,
                       0.1,
                       0.5,
                       std::nextafter(1.0, 0.0),
                       1.0};
  constexpr std::uint64_t kMaxK = (std::uint64_t{1} << 53) - 1;
  for (const double p : ps) {
    const BernoulliThreshold thr(p);
    EXPECT_EQ(thr.draws(), p > 0.0 && p < 1.0) << p;
    EXPECT_EQ(thr.certain(), p == 1.0) << p;
    if (thr.draws()) {
      const std::uint64_t t = thr.threshold();
      ASSERT_GE(t, 1u) << p;
      EXPECT_LT(static_cast<double>(t - 1) * kTwoM53, p) << p;
      if (t <= kMaxK) {
        EXPECT_FALSE(static_cast<double>(t) * kTwoM53 < p) << p;
      }
    }

    // Twin streams: the threshold draws agree with bernoulli(p) hit for
    // hit and leave the stream where bernoulli(p) leaves it.
    Rng a(71), b(71);
    for (int i = 0; i < 100000; ++i)
      ASSERT_EQ(a.bernoulli(thr), b.bernoulli(p)) << p << " draw " << i;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << p;

    Rng c(72), d(72);
    for (int i = 0; i < 1000; ++i) {
      std::uint32_t expected = 0;
      for (int bit = 0; bit < 8; ++bit)
        if (d.bernoulli(p)) expected |= 1u << bit;
      ASSERT_EQ(c.bernoulli_mask(thr, 8), expected) << p << " word " << i;
    }
    EXPECT_EQ(c.next_u64(), d.next_u64()) << p;
  }
  // The tiny thresholds: denorm_min and 2^-53 hit only k = 0; one ulp
  // above 2^-53 also hits k = 1.
  EXPECT_EQ(BernoulliThreshold(std::numeric_limits<double>::denorm_min())
                .threshold(),
            1u);
  EXPECT_EQ(BernoulliThreshold(kTwoM53).threshold(), 1u);
  EXPECT_EQ(BernoulliThreshold(std::nextafter(kTwoM53, 1.0)).threshold(), 2u);
  EXPECT_EQ(BernoulliThreshold(std::nextafter(1.0, 0.0)).threshold(), kMaxK);
}

TEST(Rng, BernoulliThresholdRejectsInvalidP) {
  EXPECT_THROW(BernoulliThreshold(-0.1), Error);
  EXPECT_THROW(BernoulliThreshold(1.5), Error);
  EXPECT_THROW(BernoulliThreshold(std::numeric_limits<double>::quiet_NaN()),
               Error);
  EXPECT_NO_THROW(BernoulliThreshold(-0.0));
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(19);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(31);
  std::vector<double> w{1.0, 3.0, 0.0};
  std::vector<int> counts(3, 0);
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++counts[rng.categorical(w)];
  EXPECT_NEAR(counts[0], kN / 4, kN * 0.02);
  EXPECT_NEAR(counts[1], 3 * kN / 4, kN * 0.02);
  EXPECT_EQ(counts[2], 0);
}

TEST(Rng, CategoricalAllZeroFallsBackToUniform) {
  Rng rng(37);
  std::vector<double> w{0.0, 0.0, 0.0, 0.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) ++counts[rng.categorical(w)];
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(Rng, SplitIsIndependentOfStreamPosition) {
  Rng a(99), b(99);
  b.next_u64();
  b.next_u64();
  Rng ca = a.split(5), cb = b.split(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ca.next_u64(), cb.next_u64());
}

TEST(Rng, SplitChildrenDiffer) {
  Rng a(99);
  Rng c0 = a.split(0), c1 = a.split(1);
  EXPECT_NE(c0.next_u64(), c1.next_u64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, DeriveStreamEqualsChainedSplits) {
  // derive_stream must keep the bits of the historical chained-split
  // streams (the per-(salt+agent, trial) evaluation streams depend on it).
  const Rng base(77);
  Rng chained = base.split(11).split(29).split(3);
  Rng derived = base.derive_stream({11, 29, 3});
  for (int i = 0; i < 16; ++i) EXPECT_EQ(derived.next_u64(), chained.next_u64());
  Rng one_a = base.split(5), one_b = base.derive_stream({5});
  EXPECT_EQ(one_a.next_u64(), one_b.next_u64());
}

TEST(Rng, MixTagsIsOrderSensitiveAndMatchesDeriveStream) {
  EXPECT_NE(Rng::mix_tags(42, {1, 2}), Rng::mix_tags(42, {2, 1}));
  EXPECT_NE(Rng::mix_tags(42, {1, 2}), Rng::mix_tags(43, {1, 2}));
  // The tag chain is the same absorption derive_stream seeds from, so two
  // Rngs built over equal mixes agree.
  Rng via_stream = Rng(42).derive_stream({1, 2});
  Rng via_mix(Rng::mix_tags(42, {1, 2}));
  EXPECT_EQ(via_stream.next_u64(), via_mix.next_u64());
}

TEST(Rng, MixTagsAvoidsShiftPackingCollisions) {
  // The old pretraining cache key packed components as
  // seed ^ (a << 32) ^ (b << 44): any (a, b) with a == b' << 12 collides
  // with (0, b + a >> 12)-style pairs, e.g. these two distinct configs.
  const std::uint64_t s = 21;
  const auto old_key = [s](std::uint64_t a, std::uint64_t b) {
    return s ^ (a << 32) ^ (b << 44);
  };
  EXPECT_EQ(old_key(0x1000, 0), old_key(0, 1));  // the collision
  EXPECT_NE(Rng::mix_tags(s, {0x1000, 0}), Rng::mix_tags(s, {0, 1}));
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~std::uint64_t{0});
  Rng rng(1);
  EXPECT_NE(rng(), rng());
}

/// Property sweep: uniform_index never exceeds its bound for many n.
class RngIndexProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngIndexProperty, NeverOutOfRange) {
  Rng rng(GetParam());
  for (std::uint64_t n : {1ull, 2ull, 3ull, 10ull, 127ull, 1000ull}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.uniform_index(n), n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngIndexProperty,
                         ::testing::Values(1, 2, 3, 42, 1337, 0xDEADBEEF));

}  // namespace
}  // namespace frlfi
