#include "core/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"

namespace frlfi {

RunningStats::RunningStats()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

ConfidenceInterval ci95(const RunningStats& s) {
  constexpr double kZ95 = 1.959963984540054;
  ConfidenceInterval ci;
  ci.mean = s.mean();
  const double m = kZ95 * s.stderr_mean();
  ci.lo = ci.mean - m;
  ci.hi = ci.mean + m;
  return ci;
}

ConfidenceInterval wilson95(std::size_t successes, std::size_t trials) {
  FRLFI_CHECK_MSG(successes <= trials,
                  "wilson95: " << successes << " successes > " << trials << " trials");
  ConfidenceInterval ci;
  if (trials == 0) return ci;
  constexpr double z = 1.959963984540054;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      (z / denom) * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  ci.mean = p;
  ci.lo = std::max(0.0, center - half);
  ci.hi = std::min(1.0, center + half);
  return ci;
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double population_stddev_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const double m = mean_of(v);
  double s = 0.0;
  for (double x : v) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(v.size()));
}

}  // namespace frlfi
