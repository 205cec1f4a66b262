#pragma once

/// \file reward_monitor.hpp
/// Application-level fault detection for training (§V-A): a fault is
/// suspected when an agent's cumulative episode reward drops more than p%
/// below its running baseline for k consecutive episodes. One dropping
/// agent => agent fault; more than half the agents dropping => server
/// fault. This deliberately uses the task metric rather than bit-level
/// comparison: low-BER faults that the system absorbs should not trigger
/// recovery at all.

#include <cstddef>
#include <vector>

namespace frlfi {

/// Classification of a detected fault.
enum class DetectedFault {
  None,
  /// Exactly the flagged agents are faulty (fewer than half).
  Agent,
  /// More than half the agents degraded simultaneously.
  Server,
};

/// Sliding reward-drop detector over n agents.
class RewardDropMonitor {
 public:
  /// Detector parameters. The paper uses p=25 with k=50 (GridWorld) and
  /// k=200 (DroneNav).
  struct Options {
    /// Drop threshold in percent of the running baseline.
    double drop_percent = 25.0;
    /// Consecutive below-threshold episodes required to trigger.
    std::size_t consecutive_episodes = 50;
    /// EMA smoothing for the running baseline.
    double baseline_beta = 0.98;
    /// Episodes observed before the baseline is considered trustworthy
    /// (prevents spurious triggers while early training is still noisy).
    std::size_t warmup_episodes = 30;
  };

  /// Create a monitor over `n_agents` reward streams.
  RewardDropMonitor(std::size_t n_agents, Options opts);

  /// Feed one episode's rewards (one entry per agent). Returns the
  /// detection verdict for this episode.
  DetectedFault observe(const std::vector<double>& episode_rewards);

  /// Agents currently flagged as degraded (meaningful after observe()
  /// returned Agent).
  const std::vector<std::size_t>& flagged_agents() const { return flagged_; }

  /// Reset the consecutive-drop counters (call after a recovery action so
  /// the same excursion is not re-reported), keeping the baselines.
  void acknowledge();

  /// True while any agent has a non-zero consecutive-drop count — the
  /// checkpointing scheme pauses snapshots during suspicion so a slowly
  /// detected fault cannot poison the recovery state.
  bool suspicious() const;

  /// Complete detector state: the running baselines, consecutive-drop
  /// counters and per-agent observation counts. This is what a training
  /// snapshot must carry — restoring it makes a resumed run's detection
  /// verdicts identical to the uninterrupted run's (the historical
  /// restore path reset the detector, losing the baseline history).
  struct State {
    std::vector<double> baseline;
    std::vector<std::size_t> below_count;
    std::vector<std::size_t> seen;
  };
  State state() const;
  void set_state(const State& state);

 private:
  std::size_t n_;
  Options opts_;
  std::vector<double> baseline_;
  std::vector<std::size_t> below_count_;
  std::vector<std::size_t> seen_;
  std::vector<std::size_t> flagged_;
};

}  // namespace frlfi
