#pragma once

/// \file aggregation.hpp
/// The FRL smoothing average of §III-A: after each communication round the
/// server produces, for every agent i,
///
///   theta_i^{k+} = alpha_k * theta_i^{k-} + beta_k * sum_{j != i} theta_j^{k-}
///
/// with beta_k = (1 - alpha_k) / (n - 1), alpha_k, beta_k in (0, 1), and
/// alpha_k -> 1/n as training proceeds (consensus; Eq. 4 of the paper).

#include <cstddef>
#include <vector>

namespace frlfi {

/// Schedule for the smoothing weight alpha_k: exponential approach from
/// alpha_0 toward the consensus value 1/n.
class AlphaSchedule {
 public:
  /// \param n_agents  number of federated agents (>= 2).
  /// \param alpha0    initial self-weight, in (1/n, 1).
  /// \param tau       rounds constant of the exponential approach.
  AlphaSchedule(std::size_t n_agents, double alpha0 = 0.5, double tau = 200.0);

  /// alpha at communication round k.
  double at(std::size_t round) const;

  /// The consensus limit 1/n.
  double limit() const { return 1.0 / static_cast<double>(n_); }

 private:
  std::size_t n_;
  double alpha0_;
  double tau_;
};

/// One smoothing-average round: given each agent's uploaded parameter
/// vector theta_i^{k-}, returns the n per-agent results theta_i^{k+}.
/// All vectors must be the same length; n >= 2. This is the scalar golden
/// reference ParameterServer::communicate_round's full-participation
/// aggregate is locked against.
std::vector<std::vector<float>> smoothing_average(
    const std::vector<std::vector<float>>& uploads, double alpha);

/// Plain mean of the uploaded vectors (the consensus policy; used by the
/// checkpointing scheme and the Table I spread statistic).
std::vector<float> mean_parameters(const std::vector<std::vector<float>>& uploads);

/// Coordinate-wise trimmed mean over m (possibly non-contiguous) rows:
/// for each coordinate, sort the m contributed values, drop the smallest
/// and the largest, and average the rest in sorted order. Non-finite
/// values sort to the top end, so a NaN/Inf garbage row is the first
/// trimmed. Requires m > 2; `out` holds dim floats. This is the
/// robust-aggregation peer estimate used by ScreeningConfig::trimmed_mean.
/// `scratch` must hold m floats (the per-coordinate gather buffer).
void trimmed_mean_rows(const float* const* rows, std::size_t m,
                       std::size_t dim, float* scratch, float* out);

}  // namespace frlfi
