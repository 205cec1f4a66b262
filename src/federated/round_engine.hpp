#pragma once

/// \file round_engine.hpp
/// The shared federated training-round engine: one implementation of the
/// episode → fault → communicate → mitigation orchestration that both
/// paper systems (GridWorldFrlSystem, DroneFrlSystem) train through, by
/// way of their shared FrlSystem shell (frl/system.hpp). A concrete
/// system supplies four agent-local callbacks — run one local
/// training episode, gather/scatter its flat parameters, and corrupt one
/// agent in place — and the engine owns everything between them:
///
///  * **Pool-parallel local episodes.** Agents own disjoint env/network/
///    learner state and every episode draws the derived stream
///    `train_rng.split(episode * 1000003 + agent)`; Rng::split never
///    advances the parent, so fanning agents across a persistent
///    core/parallel pool (Config::threads: 1 serial, 0 every hardware
///    thread, N explicit) produces bit-identical training for every
///    thread count.
///  * **One server round.** Every communication round is one gather →
///    round → scatter over one agent-indexed n x dim round matrix,
///    allocated at construction (row i is agent i's; no per-agent
///    flat_parameters() vectors): the sending agents' uploads gather
///    straight into their own rows, ParameterServer::communicate_round
///    runs uplink, the in-place combine, hook and downlink, and downlinks
///    scatter back to the receiving agents from the same rows. The round
///    runs on the orchestration thread; its channel noise comes off a
///    per-round comm stream split from the training stream. The server's
///    post-aggregate hook runs on every round, over the whole matrix.
///  * **Training faults and §V-A mitigation.** Fault timing, victim
///    resolution, the post-aggregate server-fault row hook (in-place
///    int8 injection over the aggregate rows on the historical RNG
///    stream), the reward-drop monitor and the checkpoint store.
///  * **The degraded-participation plane.** The ParticipationPlan in force
///    resolves per-(round, agent) statuses on its own derived RNG plane
///    (never the training stream; the default plan resolves everyone
///    Present without a draw), which drive the round's partial
///    averaging, staleness buffer and Byzantine screening, and surfaces
///    per-round reports via the optional on_round hook. A plan resolving
///    to full participation with screening off stays bit-identical to
///    the plan-free engine, RNG stream position included. Dropped agents
///    keep training locally on their stale parameters — offline means
///    disconnected from the server, not halted.
///
/// The engine is deliberately ignorant of environments, learners and
/// network topology — that is the whole system-specific surface, and it
/// stays in the systems.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "federated/participation.hpp"
#include "federated/server.hpp"
#include "frl/plans.hpp"
#include "mitigation/checkpoint.hpp"
#include "mitigation/reward_monitor.hpp"

namespace frlfi {

/// Orchestrates federated training rounds over n agent-local callbacks.
class FederatedRoundEngine {
 public:
  struct Config {
    /// Number of agents; 1 selects the serverless single-agent system.
    std::size_t n_agents = 1;
    /// Flat parameter vector length (row width of the round matrix).
    std::size_t parameter_dim = 0;
    /// Episodes between communication rounds.
    std::size_t comm_interval = 1;
    /// After this episode the interval multiplies by comm_interval_boost
    /// (DroneNav Fig. 6b; defaults disable the boost).
    std::size_t boost_after_episode = std::size_t(-1);
    std::size_t comm_interval_boost = 1;
    /// Smoothing-average schedule.
    double alpha0 = 0.5;
    double alpha_tau = 150.0;
    /// Channel bit error rate (0 = clean links).
    double channel_ber = 0.0;
    /// Bursty/unreliable channel plane (Gilbert–Elliott states and chunk
    /// erasure); armed on the server's channel at construction. When
    /// active it replaces channel_ber; a degenerate config (equal-state
    /// BERs, no erasure) stays
    /// bit-identical to the i.i.d. channel at ber_good.
    BurstyChannelConfig bursty_channel;
    /// Worker lanes for the per-agent local episodes: 1 = strictly serial
    /// on the calling thread (the historical loop), 0 = every hardware
    /// thread, N = exactly N (never more than n_agents; resolved once, at
    /// construction). train() results are bit-identical for
    /// every value — per-(episode, agent) derived RNG streams plus
    /// disjoint agent state make the lane partition invisible.
    std::size_t threads = 1;
  };

  /// Agent-local callbacks. All four are required. With Config::threads
  /// != 1, run_episode is invoked concurrently for distinct agents and
  /// must only touch agent-local state (plus thread-safe shared caches).
  struct Hooks {
    /// Run agent `agent`'s local training episode for `episode` on its
    /// derived stream; returns the episode's total reward.
    std::function<double(std::size_t agent, std::size_t episode, Rng& rng)>
        run_episode;
    /// Write the agent's current flat parameters into `out` (row of the
    /// round matrix, parameter_dim floats).
    std::function<void(std::size_t agent, std::span<float> out)> gather_params;
    /// Load flat parameters into the agent (downlink / checkpoint
    /// recovery).
    std::function<void(std::size_t agent, std::span<const float> params)>
        scatter_params;
    /// Corrupt agent `victim`'s weights in place per `spec` (training
    /// faults persist into subsequent episodes).
    std::function<void(std::size_t victim, const FaultSpec& spec, Rng& rng)>
        inject_agent;
    /// Optional fifth hook: observe each communication round's
    /// participation report (default-plan rounds report all-present).
    /// Invoked on the orchestration thread, after the round's scatter.
    std::function<void(const RoundParticipationReport& report)> on_round;
  };

  /// `stream_tag` selects the system's training RNG stream:
  /// train_rng = Rng(seed).split(stream_tag) — the tag each system has
  /// always used, so engine-driven training replays historical bits.
  FederatedRoundEngine(const Config& cfg, std::uint64_t seed,
                       std::uint64_t stream_tag, Hooks hooks);

  /// Arm (or disarm, with plan.active = false) a training-time fault.
  void set_fault_plan(const TrainingFaultPlan& plan);

  /// Enable/disable the §V-A mitigation scheme (resets its state).
  void set_mitigation(const MitigationPlan& plan);

  /// Set the degraded-participation plan (the default plan is full
  /// participation); validates the plan against the agent count and
  /// resets the accumulated participation stats. Without a server
  /// (single-agent system) there are no communication rounds and the plan
  /// is inert.
  void set_participation_plan(const ParticipationPlan& plan);

  /// The plan in force.
  const ParticipationPlan& participation_plan() const {
    return participation_;
  }

  /// Accumulated per-round participation totals since the plan was set.
  const ParticipationStats& participation_stats() const {
    return part_stats_;
  }

  /// Install/replace the per-round report observer after construction
  /// (equivalent to Hooks::on_round).
  void set_round_observer(
      std::function<void(const RoundParticipationReport&)> observer) {
    hooks_.on_round = std::move(observer);
  }

  /// Train for `episodes` more episodes (continues from the current
  /// episode counter; faults whose episode falls inside the range fire).
  void train(std::size_t episodes);

  /// Episodes completed so far.
  std::size_t episode() const { return episode_; }

  /// Communication rounds completed (0 without a server).
  std::size_t round() const { return server_ ? server_->round() : 0; }

  /// Uplink+downlink bytes so far (0 without a server).
  std::size_t communication_bytes() const {
    return server_ ? server_->channel().bytes_sent() : 0;
  }

  /// The server (null for the single-agent system).
  ParameterServer* server() { return server_ ? &*server_ : nullptr; }
  const ParameterServer* server() const {
    return server_ ? &*server_ : nullptr;
  }

  /// Mitigation counters.
  const MitigationStats& mitigation_stats() const { return mit_stats_; }

  /// The engine-side training state a snapshot must carry for a restored
  /// run to replay the uninterrupted one bit-for-bit: the timeline
  /// counters, any straggler uploads still in the server's staleness
  /// buffer, an armed-but-unfired server fault, and the §V-A mitigation
  /// machinery (detector baselines, checkpoint store, counters) — the
  /// monitor baseline history is the piece historical snapshots lost.
  struct TrainingState {
    std::size_t episode = 0;
    std::size_t round = 0;
    bool server_fault_pending = false;
    /// The channel's persistent transmit sequence number: the key of the
    /// bursty plane's per-message derived streams (and of retry noise),
    /// so a restored campaign replays the same channel weather.
    std::uint64_t channel_seq = 0;
    std::vector<ParameterServer::PendingUpload> pending_uploads;
    bool has_mitigation_state = false;
    RewardDropMonitor::State monitor;
    CheckpointStore::State checkpoints;
    MitigationStats stats;
  };

  /// Capture the current engine-side training state.
  TrainingState training_state() const;

  /// Restore a captured training state. Mitigation state is applied only
  /// when both the snapshot carries it and mitigation is currently
  /// enabled; otherwise the machinery restarts fresh.
  void restore_training_state(const TrainingState& state);

  /// The configuration in force.
  const Config& config() const { return cfg_; }

 private:
  void run_training_episode();
  void inject_training_fault_if_due();
  void communicate_if_due();
  void apply_mitigation(const std::vector<double>& rewards);
  std::size_t effective_comm_interval() const;

  Config cfg_;
  Hooks hooks_;
  Rng train_rng_;
  std::optional<ParameterServer> server_;
  TrainingFaultPlan fault_plan_;
  MitigationPlan mitigation_;
  ParticipationPlan participation_;
  ParticipationStats part_stats_;
  // Per-agent Byzantine membership resolved once at plan arming, and the
  // per-round status scratch.
  std::vector<std::uint8_t> byzantine_mask_;
  std::vector<AgentRoundStatus> status_;
  std::optional<RewardDropMonitor> monitor_;
  CheckpointStore checkpoints_;
  MitigationStats mit_stats_;
  // The agent-indexed n x dim round matrix (empty without a server).
  std::vector<float> round_matrix_;
  std::vector<double> rewards_;
  // Persistent episode pool whenever the resolved lane count is above 1
  // — built once so the per-episode dispatch never spawns threads on the
  // hot path (null: the episodes run serially on the calling thread).
  std::unique_ptr<ThreadPool> episode_pool_;
  std::size_t episode_ = 0;
  bool server_fault_pending_ = false;
};

}  // namespace frlfi
