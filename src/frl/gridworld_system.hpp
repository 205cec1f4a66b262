#pragma once

/// \file gridworld_system.hpp
/// The paper's GridWorld FRL navigation system (§IV-A): n agents (paper:
/// 12, over 4 mazes x 3 placements), each running online NN Q-learning in
/// its own environment, periodically exchanging parameters through the
/// smoothing-average server. Exposes the fault-injection and mitigation
/// hooks every GridWorld experiment in the paper is built from.
///
/// Training orchestration (episode loop, fault timing, the one server
/// round, §V-A mitigation) lives in the shared FederatedRoundEngine; this
/// class supplies the agent-local callbacks (Q-learning episode, parameter
/// gather/scatter, weight injection) and everything evaluation-side.

#include <memory>
#include <optional>

#include "envs/gridworld.hpp"
#include "federated/round_engine.hpp"
#include "frl/evaluation.hpp"
#include "frl/plans.hpp"
#include "rl/qlearner.hpp"
#include "rl/schedule.hpp"

namespace frlfi {

/// End-to-end GridWorld FRL system.
class GridWorldFrlSystem {
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

  /// Opaque training-state snapshot enabling the shared-prefix training
  /// used by the heatmap sweeps. Besides the parameters it carries the
  /// engine-side state (timeline counters, staleness buffer, pending
  /// server fault, mitigation history) so a restored run replays the
  /// uninterrupted one bit-for-bit.
  struct Snapshot {
    std::vector<std::vector<float>> agent_params;
    FederatedRoundEngine::TrainingState engine;
  };

  /// Build the system; `seed` drives all training stochasticity.
  GridWorldFrlSystem(Config cfg, std::uint64_t seed);

  // Not movable: the round engine's hooks capture `this`.
  GridWorldFrlSystem(GridWorldFrlSystem&&) = delete;
  GridWorldFrlSystem& operator=(GridWorldFrlSystem&&) = delete;

  /// Arm (or disarm, with plan.active=false) a training-time fault.
  void set_fault_plan(const TrainingFaultPlan& plan);

  /// Enable/disable the §V-A mitigation scheme.
  void set_mitigation(const MitigationPlan& plan);

  /// Arm/disarm the degraded-participation plane (dropout, stragglers,
  /// Byzantine agents and server-side robust aggregation).
  void set_participation_plan(const ParticipationPlan& plan) {
    engine_->set_participation_plan(plan);
  }

  /// Accumulated participation totals since the plan was set.
  const ParticipationStats& participation_stats() const {
    return engine_->participation_stats();
  }

  /// Observe each communication round's participation report.
  void set_round_observer(
      std::function<void(const RoundParticipationReport&)> observer) {
    engine_->set_round_observer(std::move(observer));
  }

  /// Train for `episodes` more episodes (continues from the current
  /// episode counter; faults whose episode falls inside the range fire).
  void train(std::size_t episodes);

  /// Episodes completed so far.
  std::size_t episode() const { return engine_->episode(); }

  /// Average greedy success rate over all agents (the paper's SR metric),
  /// `attempts_per_agent` episodes each, deterministic in `seed`.
  double evaluate_success_rate(std::size_t attempts_per_agent,
                               std::uint64_t seed);

  /// Greedy success rate of a single agent.
  double evaluate_agent(std::size_t agent, std::size_t attempts,
                        std::uint64_t seed);

  /// Keep training until the unified policy recovers to `sr_threshold`
  /// success rate (evaluated with `attempts_per_agent` every
  /// `check_every` episodes); returns episodes needed, or
  /// `max_extra_episodes` if it never recovers (Fig. 3e metric).
  std::size_t episodes_to_recover(double sr_threshold, std::size_t check_every,
                                  std::size_t attempts_per_agent,
                                  std::size_t max_extra_episodes,
                                  std::uint64_t eval_seed);

  /// A fresh network holding the consensus (mean) policy parameters.
  Network consensus_network() const;

  /// Average per-state standard deviation of the consensus policy's action
  /// values over the full observation lattice — Table I's statistic.
  double consensus_action_stddev() const;

  /// Evaluate inference under a fault scenario: corrupts a copy of the
  /// consensus policy (static injection; Trans-1 handled per-episode) and
  /// returns the average success rate over all agents' environments.
  ///
  /// Runs as a batched inference campaign: every attempt of every agent
  /// is one lane of a single lockstep, one forward per decision step (see
  /// run_batched_inference_campaign).
  double evaluate_inference_fault(const InferenceFaultScenario& scenario,
                                  std::size_t attempts_per_agent,
                                  std::uint64_t seed);

  /// Capture / restore training state (keeps config, RNG stream position
  /// is re-derived from the episode counter).
  Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  /// Mitigation counters (meaningful when mitigation is enabled).
  const MitigationStats& mitigation_stats() const {
    return engine_->mitigation_stats();
  }

  /// Direct access to an agent's network (FI experiments and tests).
  Network& agent_network(std::size_t agent);

  /// Direct access to an agent's environment.
  GridWorldEnv& agent_env(std::size_t agent);

  /// The configuration in force.
  const Config& config() const { return cfg_; }

  /// Uplink+downlink communication bytes so far (0 for single-agent).
  std::size_t communication_bytes() const {
    return engine_->communication_bytes();
  }

  /// The server's communication channel (null for single-agent): channel
  /// cost/reliability counters for the Fig. 6b-style ablations.
  const CommChannel* comm_channel() const {
    return engine_->server() ? &engine_->server()->channel() : nullptr;
  }

 private:
  std::vector<float> consensus_params() const;

  Config cfg_;
  std::vector<std::unique_ptr<GridWorldEnv>> envs_;
  std::vector<std::unique_ptr<Network>> nets_;
  std::vector<std::unique_ptr<QLearner>> learners_;
  EpsilonSchedule eps_;
  // Owns the training plane (server, fault plan, mitigation, episode
  // counter); its hooks capture `this` — the move operations above are
  // deleted so the captured pointer can never dangle.
  std::unique_ptr<FederatedRoundEngine> engine_;
};

}  // namespace frlfi
