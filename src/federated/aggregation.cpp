#include "federated/aggregation.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace frlfi {

AlphaSchedule::AlphaSchedule(std::size_t n_agents, double alpha0, double tau)
    : n_(n_agents), alpha0_(alpha0), tau_(tau) {
  FRLFI_CHECK_MSG(n_agents >= 2, "AlphaSchedule needs >= 2 agents");
  FRLFI_CHECK_MSG(alpha0 >= limit() && alpha0 < 1.0,
                  "alpha0 " << alpha0 << " outside [1/n, 1)");
  FRLFI_CHECK(tau > 0.0);
}

double AlphaSchedule::at(std::size_t round) const {
  const double l = limit();
  return l + (alpha0_ - l) * std::exp(-static_cast<double>(round) / tau_);
}

std::vector<std::vector<float>> smoothing_average(
    const std::vector<std::vector<float>>& uploads, double alpha) {
  const std::size_t n = uploads.size();
  FRLFI_CHECK_MSG(n >= 2, "smoothing_average needs >= 2 agents");
  FRLFI_CHECK_MSG(alpha > 0.0 && alpha < 1.0, "alpha " << alpha);
  const std::size_t dim = uploads[0].size();
  for (const auto& u : uploads)
    FRLFI_CHECK_MSG(u.size() == dim, "parameter size mismatch");

  const float beta =
      static_cast<float>((1.0 - alpha) / static_cast<double>(n - 1));
  const auto alpha_f = static_cast<float>(alpha);

  // sum_j theta_j computed once; each agent's result is
  // alpha*theta_i + beta*(total - theta_i).
  std::vector<float> total(dim, 0.0f);
  for (const auto& u : uploads)
    for (std::size_t d = 0; d < dim; ++d) total[d] += u[d];

  std::vector<std::vector<float>> out(n, std::vector<float>(dim));
  for (std::size_t i = 0; i < n; ++i) {
    const auto& self = uploads[i];
    auto& dst = out[i];
    for (std::size_t d = 0; d < dim; ++d)
      dst[d] = alpha_f * self[d] + beta * (total[d] - self[d]);
  }
  return out;
}

std::vector<float> mean_parameters(
    const std::vector<std::vector<float>>& uploads) {
  FRLFI_CHECK(!uploads.empty());
  const std::size_t dim = uploads[0].size();
  std::vector<float> mean(dim, 0.0f);
  for (const auto& u : uploads) {
    FRLFI_CHECK(u.size() == dim);
    for (std::size_t d = 0; d < dim; ++d) mean[d] += u[d];
  }
  const auto inv = static_cast<float>(1.0 / static_cast<double>(uploads.size()));
  for (auto& v : mean) v *= inv;
  return mean;
}

void trimmed_mean_rows(const float* const* rows, std::size_t m,
                       std::size_t dim, float* scratch, float* out) {
  FRLFI_CHECK_MSG(m > 2, "trimmed mean needs > 2 rows, got " << m);
  // Non-finite values (NaN from a corrupted row breaks std::sort's strict
  // weak ordering) rank above every finite value, landing in the trimmed
  // upper tail.
  const auto less = [](float a, float b) {
    const bool fa = std::isfinite(a), fb = std::isfinite(b);
    if (fa != fb) return fa;
    if (!fa) return false;
    return a < b;
  };
  const auto inv = static_cast<float>(1.0 / static_cast<double>(m - 2));
  for (std::size_t d = 0; d < dim; ++d) {
    for (std::size_t j = 0; j < m; ++j) scratch[j] = rows[j][d];
    std::sort(scratch, scratch + m, less);
    float acc = 0.0f;
    for (std::size_t j = 1; j < m - 1; ++j) acc += scratch[j];
    out[d] = acc * inv;
  }
}

}  // namespace frlfi
