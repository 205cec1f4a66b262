#pragma once

/// \file drone_system.hpp
/// The paper's DroneNav FRL system (§IV-B): n drones (paper: 4) flying
/// independent procedurally-generated worlds, each fine-tuning a shared
/// conv policy online with REINFORCE after an offline pretraining phase,
/// and periodically synchronizing through the smoothing-average server.
///
/// The shared FrlSystem shell (frl/system.hpp) owns the networks, the
/// round engine and everything both systems do alike (forwarders,
/// consensus policy, inference fault campaign, snapshot/restore); this
/// class adds the worlds and REINFORCE learners, the fine-tuning episode
/// hook, the flight-distance evaluation, the learners' baselines in its
/// snapshots, and the offline pretraining.
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

#include "dronesim/drone_env.hpp"
#include "frl/system.hpp"
#include "rl/reinforce.hpp"

namespace frlfi {

/// End-to-end DroneNav FRL system.
class DroneFrlSystem : public FrlSystem {
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

  /// Training-state snapshot for shared-prefix sweeps: the shell's
  /// (parameters and engine-side state) plus the learners' REINFORCE
  /// baselines.
  struct Snapshot : FrlSystem::Snapshot {
    std::vector<ReinforceTrainer::BaselineState> baselines;
  };

  /// Build the system (runs or reuses the cached offline pretraining).
  DroneFrlSystem(Config cfg, std::uint64_t seed);

  /// Average greedy safe flight distance [m] over all drones,
  /// `episodes_per_drone` each — the paper's DroneNav metric.
  double evaluate_flight_distance(std::size_t episodes_per_drone,
                                  std::uint64_t seed);

  /// Capture / restore training state, the baselines included (these
  /// hide the shell's parameter-and-engine versions).
  Snapshot snapshot() const;
  void restore(const Snapshot& snap);

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
  std::vector<std::unique_ptr<DroneNavEnv>> envs_;
  std::vector<std::unique_ptr<ReinforceTrainer>> learners_;
};

}  // namespace frlfi
