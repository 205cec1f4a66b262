#pragma once

/// \file drone_system.hpp
/// The paper's DroneNav FRL system (§IV-B): n drones (paper: 4) flying
/// independent procedurally-generated worlds, each fine-tuning a shared
/// conv policy online with REINFORCE after an offline pretraining phase,
/// and periodically synchronizing through the smoothing-average server.
///
/// Training orchestration (episode loop, fault timing, the one server
/// round, §V-A mitigation) lives in the shared FederatedRoundEngine; this
/// class supplies the agent-local callbacks and the offline pretraining.
///
/// Offline pretraining substitution: PEDRA pretrains with a long offline
/// REINFORCE run on Unreal environments; here the offline phase is DAgger
/// imitation of a depth-greedy reference pilot (HeuristicPilot). The
/// resulting policy plays the same role — a competent initial policy that
/// online FRL fine-tunes with REINFORCE — at a laptop-compatible cost.
/// Pretrained parameters are cached per-seed within the process so
/// campaign cells share the (deterministic) offline phase, exactly as the
/// paper shares one pretrained model.

#include <memory>
#include <optional>

#include "dronesim/drone_env.hpp"
#include "federated/round_engine.hpp"
#include "frl/evaluation.hpp"
#include "frl/plans.hpp"
#include "rl/reinforce.hpp"

namespace frlfi {

/// End-to-end DroneNav FRL system.
class DroneFrlSystem {
 public:
  /// System configuration. The online fine-tuning length is the train()
  /// argument: 6000 episodes at paper scale, 150 by default in the drone
  /// sweeps (bench/drone_sweeps.hpp).
  struct Config {
    /// Number of drones; 1 selects the single-drone system of Fig. 5c.
    std::size_t n_drones = 4;
    /// Episodes between communication rounds.
    std::size_t comm_interval = 2;
    /// Fig. 6b: after this episode the interval multiplies by
    /// `comm_interval_boost` (paper boosts 2x/3x after episode 2000).
    std::size_t boost_after_episode = std::size_t(-1);
    std::size_t comm_interval_boost = 1;
    /// Smoothing-average schedule.
    double alpha0 = 0.5;
    double alpha_tau = 40.0;
    /// Channel bit error rate (0 = clean links).
    double channel_ber = 0.0;
    /// Bursty/unreliable channel plane (Gilbert–Elliott states, chunk
    /// erasure); when active it replaces channel_ber.
    BurstyChannelConfig channel_bursty;
    /// Worker lanes for the per-drone local training episodes
    /// (FederatedRoundEngine::Config::threads): 1 = serial, 0 = auto, N =
    /// exactly N. train() is bit-identical for every value.
    std::size_t threads = 1;
    /// REINFORCE hyperparameters for online fine-tuning.
    ReinforceTrainer::Options learner;
    /// Environment/task parameters.
    DroneNavEnv::Options env;
    /// Offline phase: DAgger imitation episodes.
    std::size_t imitation_episodes = 120;

    Config();
  };

  /// Training-state snapshot for shared-prefix sweeps. Carries the
  /// engine-side state (position, staleness buffer, pending server fault,
  /// mitigation history) besides parameters and baselines.
  struct Snapshot {
    std::vector<std::vector<float>> drone_params;
    std::vector<ReinforceTrainer::BaselineState> baselines;
    FederatedRoundEngine::TrainingState engine;
  };

  /// Build the system (runs or reuses the cached offline pretraining).
  DroneFrlSystem(Config cfg, std::uint64_t seed);

  // Not movable: the round engine's hooks capture `this`.
  DroneFrlSystem(DroneFrlSystem&&) = delete;
  DroneFrlSystem& operator=(DroneFrlSystem&&) = delete;

  /// Arm/disarm a training-time fault.
  void set_fault_plan(const TrainingFaultPlan& plan);

  /// Enable/disable the §V-A mitigation scheme.
  void set_mitigation(const MitigationPlan& plan);

  /// Arm/disarm the degraded-participation plane (dropout, stragglers,
  /// Byzantine drones and server-side robust aggregation).
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

  /// Fine-tune online for `episodes` more episodes.
  void train(std::size_t episodes);

  /// Fine-tuning episodes completed so far.
  std::size_t episode() const { return engine_->episode(); }

  /// Average greedy safe flight distance [m] over all drones,
  /// `episodes_per_drone` each — the paper's DroneNav metric.
  double evaluate_flight_distance(std::size_t episodes_per_drone,
                                  std::uint64_t seed);

  /// A fresh network holding the consensus (mean) policy parameters.
  Network consensus_network() const;

  /// Evaluate inference under a fault scenario on the consensus policy;
  /// returns average safe flight distance [m].
  ///
  /// Runs as a batched inference campaign: every episode of every drone
  /// is one lane of a single lockstep, all still-flying lanes'
  /// observations batched into one forward per decision step — Trans-1
  /// included, each striking lane riding its own weight view over one
  /// shared read-only policy (see run_batched_inference_campaign).
  double evaluate_inference_fault(const InferenceFaultScenario& scenario,
                                  std::size_t episodes_per_drone,
                                  std::uint64_t seed);

  /// Capture / restore training state.
  Snapshot snapshot() const;
  void restore(const Snapshot& snap);

  /// Mitigation counters.
  const MitigationStats& mitigation_stats() const {
    return engine_->mitigation_stats();
  }

  /// Uplink+downlink communication bytes so far (0 for single drone).
  std::size_t communication_bytes() const {
    return engine_->communication_bytes();
  }

  /// Communication rounds so far (0 for single drone).
  std::size_t communication_rounds() const { return engine_->round(); }

  /// Direct access to a drone's network.
  Network& drone_network(std::size_t drone);

  /// Direct access to a drone's environment.
  DroneNavEnv& drone_env(std::size_t drone);

  /// The configuration in force.
  const Config& config() const { return cfg_; }

  /// The (deterministic) pretrained offline parameters for a seed/config;
  /// computed once per process and cached. Thread-safe: concurrent
  /// campaign cells asking for one key block on a single computation
  /// (std::call_once per cache slot) while distinct keys pretrain
  /// concurrently — which is what lets training-phase heatmap campaigns
  /// run pool-parallel over cells.
  static const std::vector<float>& pretrained_parameters(const Config& cfg,
                                                         std::uint64_t seed);

 private:
  /// Run the offline imitation phase from scratch.
  static std::vector<float> pretrain(const Config& cfg, std::uint64_t seed);

  Config cfg_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<DroneNavEnv>> envs_;
  std::vector<std::unique_ptr<Network>> nets_;
  std::vector<std::unique_ptr<ReinforceTrainer>> learners_;
  // Owns the training plane; hooks capture `this` (moves deleted above so
  // the captured pointer can never dangle).
  std::unique_ptr<FederatedRoundEngine> engine_;
};

}  // namespace frlfi
