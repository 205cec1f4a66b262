#pragma once

/// \file stats.hpp
/// Streaming statistics and confidence intervals for fault-injection
/// campaigns. The paper reports means over 100/1000 repeated trials with a
/// 95% confidence level; RunningStats (Welford) plus the helpers here
/// provide exactly that machinery.

#include <cstddef>
#include <vector>

namespace frlfi {

/// Numerically stable streaming mean/variance accumulator (Welford).
class RunningStats {
 public:
  /// Add one observation.
  void add(double x);

  /// Number of observations added.
  std::size_t count() const { return n_; }

  /// Sample mean; 0 when empty.
  double mean() const { return n_ ? mean_ : 0.0; }

  /// Unbiased sample variance; 0 when fewer than two observations.
  double variance() const;

  /// Sample standard deviation.
  double stddev() const;

  /// Standard error of the mean.
  double stderr_mean() const;

  /// Smallest observation seen; +inf when empty.
  double min() const { return min_; }

  /// Largest observation seen; -inf when empty.
  double max() const { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_;
  double max_;

 public:
  RunningStats();
};

/// A two-sided confidence interval around a mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  /// Half-width (margin of error).
  double margin() const { return (hi - lo) / 2.0; }
};

/// 95% normal-approximation confidence interval for the accumulated mean.
ConfidenceInterval ci95(const RunningStats& s);

/// Wilson score interval for a binomial proportion (successes/trials) at
/// 95% confidence; better behaved than the normal approximation near 0/1,
/// which matters for success-rate metrics close to 100%.
ConfidenceInterval wilson95(std::size_t successes, std::size_t trials);

/// Mean of a vector; 0 when empty.
double mean_of(const std::vector<double>& v);

/// Population standard deviation of a vector (divide by N); 0 when empty.
/// Table I of the paper reports the spread of consensus-policy outputs,
/// which is a population statistic over the policy's action values.
double population_stddev_of(const std::vector<double>& v);

}  // namespace frlfi
