#pragma once

/// \file system.hpp
/// The shell both paper FRL systems share (GridWorldFrlSystem §IV-A,
/// DroneFrlSystem §IV-B): the agents' networks, the FederatedRoundEngine
/// wired to them, the forwarders onto the engine, the consensus policy,
/// the inference fault campaign on that policy, and snapshot/restore.
///
/// A concrete system builds its environments, networks and learners, then
/// calls start_engine() with what is its own: the engine config, the
/// training stream tag, the local-episode hook and the inputs of its
/// inference campaign (fault tag, stream salt, step cap, environment
/// factory and metric). Parameter gather/scatter and weight injection act
/// on nets_ alike for every system, so the shell supplies those engine
/// hooks.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "federated/round_engine.hpp"
#include "frl/evaluation.hpp"
#include "frl/plans.hpp"
#include "nn/network.hpp"

namespace frlfi {

/// Non-virtual base of the two FRL systems.
class FrlSystem {
 public:
  /// Opaque training-state snapshot enabling the shared-prefix training
  /// used by the heatmap sweeps. Besides the parameters it carries the
  /// engine-side state (timeline counters, staleness buffer, pending
  /// server fault, mitigation history) so a restored run replays the
  /// uninterrupted one bit-for-bit.
  struct Snapshot {
    std::vector<std::vector<float>> agent_params;
    FederatedRoundEngine::TrainingState engine;
  };

  // Not movable: the round engine's hooks capture `this`.
  FrlSystem(FrlSystem&&) = delete;
  FrlSystem& operator=(FrlSystem&&) = delete;

  /// Arm (or disarm, with plan.active=false) a training-time fault.
  void set_fault_plan(const TrainingFaultPlan& plan) {
    engine_->set_fault_plan(plan);
  }

  /// Enable/disable the §V-A mitigation scheme.
  void set_mitigation(const MitigationPlan& plan) {
    engine_->set_mitigation(plan);
  }

  /// Set the degraded-participation plan (dropout, stragglers, Byzantine
  /// agents and server-side robust aggregation); the default plan is full
  /// participation.
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
  void train(std::size_t episodes) { engine_->train(episodes); }

  /// Episodes completed so far.
  std::size_t episode() const { return engine_->episode(); }

  /// Mitigation counters (meaningful when mitigation is enabled).
  const MitigationStats& mitigation_stats() const {
    return engine_->mitigation_stats();
  }

  /// Uplink+downlink communication bytes so far (0 for single-agent).
  std::size_t communication_bytes() const {
    return engine_->communication_bytes();
  }

  /// Communication rounds so far (0 for single-agent).
  std::size_t communication_rounds() const { return engine_->round(); }

  /// The server's communication channel (null for single-agent): channel
  /// cost/reliability counters for the Fig. 6b-style ablations.
  const CommChannel* comm_channel() const {
    return engine_->server() ? &engine_->server()->channel() : nullptr;
  }

  /// A fresh network holding the consensus (mean) policy parameters.
  Network consensus_network() const;

  /// Evaluate inference under a fault scenario: corrupts a copy of the
  /// consensus policy (static injection; Trans-1 handled per-episode) and
  /// returns the system's metric averaged over every episode of every
  /// agent.
  ///
  /// Runs as a batched inference campaign: every episode of every agent
  /// is one lane of a single lockstep, all still-running lanes'
  /// observations batched into one forward per decision step — Trans-1
  /// included, each striking lane riding its own weight view over one
  /// shared read-only policy (see run_batched_inference_campaign).
  double evaluate_inference_fault(const InferenceFaultScenario& scenario,
                                  std::size_t episodes_per_agent,
                                  std::uint64_t seed);

  /// Capture / restore training state (keeps config, RNG stream position
  /// is re-derived from the episode counter).
  Snapshot snapshot() const;
  void restore(const Snapshot& snap);

 protected:
  /// What evaluate_inference_fault needs from a system.
  struct InferenceCampaign {
    /// Split tag of the static fault's stream, Rng(seed).split(fault_tag).
    std::uint64_t fault_tag = 0;
    /// BatchedCampaignSpec::rng_salt: the system's evaluation stream salt.
    std::uint64_t rng_salt = 0;
    /// Per-episode step cap.
    std::size_t max_steps = 1;
    /// A fresh environment equivalent to agent a's.
    std::function<std::unique_ptr<Environment>(std::size_t a)> make_env;
    /// A finished lane's scalar (see run_batched_inference_campaign).
    std::function<double(std::size_t, const Environment&,
                         const EpisodeStats&)>
        metric;
  };

  FrlSystem() = default;
  ~FrlSystem() = default;

  /// Build the round engine over nets_ (call once, after every agent's
  /// network exists). `ecfg`'s n_agents and parameter_dim are filled in
  /// from nets_; train_rng = Rng(seed).split(stream_tag).
  void start_engine(FederatedRoundEngine::Config ecfg, std::uint64_t seed,
                    std::uint64_t stream_tag,
                    std::function<double(std::size_t agent,
                                         std::size_t episode, Rng& rng)>
                        run_episode,
                    InferenceCampaign campaign);

  std::vector<std::unique_ptr<Network>> nets_;

 private:
  InferenceCampaign campaign_;
  // Owns the training plane (server, fault plan, mitigation, episode
  // counter); its hooks capture `this` — the move operations above are
  // deleted so the captured pointer can never dangle.
  std::unique_ptr<FederatedRoundEngine> engine_;
};

}  // namespace frlfi
