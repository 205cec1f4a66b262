#include "mitigation/reward_monitor.hpp"

#include <cmath>

#include "core/error.hpp"

namespace frlfi {

RewardDropMonitor::RewardDropMonitor(std::size_t n_agents, Options opts)
    : n_(n_agents),
      opts_(opts),
      baseline_(n_agents, 0.0),
      below_count_(n_agents, 0),
      seen_(n_agents, 0) {
  FRLFI_CHECK(n_ >= 1);
  FRLFI_CHECK(opts_.drop_percent > 0.0 && opts_.drop_percent < 100.0);
  FRLFI_CHECK(opts_.consecutive_episodes >= 1);
  FRLFI_CHECK(opts_.baseline_beta > 0.0 && opts_.baseline_beta < 1.0);
}

DetectedFault RewardDropMonitor::observe(const std::vector<double>& episode_rewards) {
  FRLFI_CHECK_MSG(episode_rewards.size() == n_,
                  "got " << episode_rewards.size() << " rewards for " << n_
                         << " agents");
  flagged_.clear();
  for (std::size_t i = 0; i < n_; ++i) {
    const double r = episode_rewards[i];
    ++seen_[i];
    const bool warmed = seen_[i] > opts_.warmup_episodes;

    // Drop test against the *current* baseline, before it absorbs the new
    // observation. The threshold is measured on the baseline's magnitude
    // so it works for reward scales straddling zero.
    const double margin = std::abs(baseline_[i]) * opts_.drop_percent / 100.0;
    const bool dropped = warmed && (r < baseline_[i] - margin);

    if (dropped) {
      ++below_count_[i];
      // A degraded stream must not drag its own baseline down with it,
      // or a persistent fault would become the new normal.
    } else {
      below_count_[i] = 0;
      baseline_[i] = opts_.baseline_beta * baseline_[i] +
                     (1.0 - opts_.baseline_beta) * r;
    }
    if (below_count_[i] >= opts_.consecutive_episodes) flagged_.push_back(i);
  }

  if (flagged_.empty()) return DetectedFault::None;
  if (flagged_.size() * 2 > n_) return DetectedFault::Server;
  return DetectedFault::Agent;
}

bool RewardDropMonitor::suspicious() const {
  for (std::size_t c : below_count_)
    if (c > 0) return true;
  return false;
}

void RewardDropMonitor::acknowledge() {
  for (auto& c : below_count_) c = 0;
  flagged_.clear();
}

RewardDropMonitor::State RewardDropMonitor::state() const {
  return State{baseline_, below_count_, seen_};
}

void RewardDropMonitor::set_state(const State& state) {
  FRLFI_CHECK_MSG(state.baseline.size() == n_ &&
                      state.below_count.size() == n_ &&
                      state.seen.size() == n_,
                  "monitor state for " << state.baseline.size()
                                       << " agents, monitor has " << n_);
  baseline_ = state.baseline;
  below_count_ = state.below_count;
  seen_ = state.seen;
  flagged_.clear();
}

}  // namespace frlfi
