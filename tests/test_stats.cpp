#include "core/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"

namespace frlfi {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, MeanAndVarianceMatchManual) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, MinMaxTracked) {
  RunningStats s;
  s.add(3.0);
  s.add(-1.0);
  s.add(10.0);
  EXPECT_EQ(s.min(), -1.0);
  EXPECT_EQ(s.max(), 10.0);
}

TEST(RunningStats, SingleObservationHasZeroVariance) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 5.0);
}

TEST(Ci95, WidthShrinksWithSamples) {
  RunningStats small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 2);
  for (int i = 0; i < 1000; ++i) large.add(i % 2);
  EXPECT_GT(ci95(small).margin(), ci95(large).margin());
}

TEST(Ci95, CentredOnMean) {
  RunningStats s;
  for (int i = 0; i < 100; ++i) s.add(i % 5);
  const ConfidenceInterval ci = ci95(s);
  EXPECT_NEAR((ci.lo + ci.hi) / 2.0, ci.mean, 1e-12);
}

TEST(Wilson95, DegenerateCases) {
  EXPECT_EQ(wilson95(0, 0).mean, 0.0);
  const ConfidenceInterval all = wilson95(100, 100);
  EXPECT_EQ(all.mean, 1.0);
  EXPECT_LT(all.lo, 1.0);   // never certain
  EXPECT_GT(all.lo, 0.9);
  EXPECT_GT(all.hi, 0.99);  // Wilson hi at p=1 is just below 1
  const ConfidenceInterval none = wilson95(0, 100);
  EXPECT_GT(none.hi, 0.0);
  EXPECT_LT(none.lo, 0.01);
}

TEST(Wilson95, ContainsProportion) {
  const ConfidenceInterval ci = wilson95(30, 100);
  EXPECT_LT(ci.lo, 0.3);
  EXPECT_GT(ci.hi, 0.3);
}

TEST(Wilson95, RejectsMoreSuccessesThanTrials) {
  EXPECT_THROW(wilson95(5, 4), Error);
}

TEST(VectorStats, MeanStddev) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.5);
  EXPECT_NEAR(population_stddev_of(v), std::sqrt(1.25), 1e-12);
}

TEST(VectorStats, EmptyAndSingleton) {
  EXPECT_EQ(mean_of({}), 0.0);
  EXPECT_EQ(population_stddev_of({}), 0.0);
  EXPECT_EQ(population_stddev_of({3.0}), 0.0);
}

}  // namespace
}  // namespace frlfi
