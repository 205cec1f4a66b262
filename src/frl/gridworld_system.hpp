#pragma once

/// \file gridworld_system.hpp
/// The paper's GridWorld FRL navigation system (§IV-A): n agents (paper:
/// 12, over 4 mazes x 3 placements), each running online NN Q-learning in
/// its own environment, periodically exchanging parameters through the
/// smoothing-average server.
///
/// The shared FrlSystem shell (frl/system.hpp) owns the networks, the
/// round engine and everything both systems do alike (forwarders,
/// consensus policy, inference fault campaign, snapshot/restore); this
/// class adds the mazes and Q-learners, the Q-learning episode hook, and
/// the GridWorld-only evaluations: success rate, Table I's action-value
/// spread and Fig. 3e's recovery count.

#include <memory>

#include "envs/gridworld.hpp"
#include "frl/system.hpp"
#include "rl/qlearner.hpp"
#include "rl/schedule.hpp"

namespace frlfi {

/// End-to-end GridWorld FRL system.
class GridWorldFrlSystem : public FrlSystem {
 public:
  /// System configuration. Defaults reproduce the paper's setup at the
  /// library's nominal scale (12 agents, 1000 training episodes).
  struct Config {
    /// Number of agents; 1 selects the single-agent (no-server) system of
    /// Fig. 3c.
    std::size_t n_agents = 12;
    /// Episodes between communication rounds.
    std::size_t comm_interval = 1;
    /// Initial smoothing self-weight and consensus time constant.
    double alpha0 = 0.5;
    double alpha_tau = 150.0;
    /// Channel bit error rate (0 = clean links).
    double channel_ber = 0.0;
    /// Bursty/unreliable channel plane (Gilbert–Elliott states, chunk
    /// erasure); when active it replaces channel_ber.
    BurstyChannelConfig channel_bursty;
    /// Worker lanes for the per-agent local training episodes
    /// (FederatedRoundEngine::Config::threads): 1 = serial, 0 = auto, N =
    /// exactly N. train() is bit-identical for every value.
    std::size_t threads = 1;
    /// Q-learning hyperparameters.
    QLearner::Options learner;
    /// Exploration schedule (training phase of §III-B).
    double eps_start = 0.6;
    double eps_end = 0.05;
    std::size_t eps_span = 700;
    /// Environment behaviour.
    GridWorldEnv::Options env;
  };

  /// Build the system; `seed` drives all training stochasticity.
  GridWorldFrlSystem(Config cfg, std::uint64_t seed);

  /// Average greedy success rate over all agents (the paper's SR metric),
  /// `attempts_per_agent` episodes each, deterministic in `seed`.
  double evaluate_success_rate(std::size_t attempts_per_agent,
                               std::uint64_t seed);

  /// Keep training until the unified policy recovers to `sr_threshold`
  /// success rate (evaluated with `attempts_per_agent` every
  /// `check_every` episodes); returns episodes needed, or
  /// `max_extra_episodes` if it never recovers (Fig. 3e metric).
  std::size_t episodes_to_recover(double sr_threshold, std::size_t check_every,
                                  std::size_t attempts_per_agent,
                                  std::size_t max_extra_episodes,
                                  std::uint64_t eval_seed);

  /// Average per-state standard deviation of the consensus policy's action
  /// values over the full observation lattice — Table I's statistic.
  double consensus_action_stddev() const;

  /// Direct access to an agent's network (FI experiments and tests).
  Network& agent_network(std::size_t agent);

  /// Direct access to an agent's environment.
  GridWorldEnv& agent_env(std::size_t agent);

  /// The configuration in force.
  const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  std::vector<std::unique_ptr<GridWorldEnv>> envs_;
  std::vector<std::unique_ptr<QLearner>> learners_;
  EpsilonSchedule eps_;
};

}  // namespace frlfi
