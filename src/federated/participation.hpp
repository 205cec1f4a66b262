#pragma once

/// \file participation.hpp
/// The degraded-participation plane: what the synchronous federated round
/// never models — agents that crash mid-round and rejoin later, stragglers
/// whose uploads arrive K rounds late, and Byzantine agents that upload
/// garbage. A ParticipationPlan describes the scenario declaratively; the
/// per-(round, agent) outcomes are drawn from RNG streams derived with the
/// non-advancing split discipline, so
///
///  * the same (seed, plan) always resolves the same participation
///    schedule, independent of thread count and of how much of the
///    training stream has been consumed, and
///  * a plan that resolves to "all present" perturbs nothing: the round
///    engine's communication path stays bit-identical to the plan-free
///    engine, RNG stream position included.
///
/// Dropout is defined *functionally*: agent i is out at round r iff any of
/// its per-round crash draws in the window (r - crash_rounds, r] fired.
/// Crash-and-rejoin schedules therefore need no cross-round state and
/// survive snapshot/restore for free. Stragglers and the server-side
/// staleness buffer do carry state (the actual late payload bits); that
/// state is exposed by ParameterServer::pending_uploads() and captured by
/// the engine's TrainingState.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"
#include "federated/channel.hpp"  // UploadProtocolConfig

namespace frlfi {

/// What happened to one agent in one communication round.
enum class AgentRoundStatus : std::uint8_t {
  /// Uploaded on time; aggregated; receives the downlink.
  Present,
  /// Crashed/offline: no upload, no downlink; local training continues on
  /// the agent's own (stale) parameters until it rejoins.
  Dropped,
  /// Uploaded, but the payload spends `straggler_lag` rounds in flight;
  /// no downlink this round. The server folds the stale row in on arrival
  /// with weight kStaleDecay^lag (or discards it past kMaxStaleness).
  Straggler,
  /// Uploaded garbage (a fault, not a schedule): aggregated unless
  /// screening excludes it; still receives the downlink.
  Byzantine,
};

/// True when this status transmits an uplink payload this round.
inline bool sends_upload(AgentRoundStatus s) {
  return s != AgentRoundStatus::Dropped;
}

/// True when this status receives the downlink this round.
inline bool receives_downlink(AgentRoundStatus s) {
  return s == AgentRoundStatus::Present || s == AgentRoundStatus::Byzantine;
}

/// Fold weight of a stale row is kStaleDecay^lag.
inline constexpr double kStaleDecay = 0.5;

/// Uploads later than this many rounds are discarded, not folded.
inline constexpr std::size_t kMaxStaleness = 4;

/// The L2 screen excludes a row whose norm is more than this factor
/// times the (lower) median contributor norm away in either direction.
inline constexpr double kL2ScreenFactor = 3.0;

/// Server-side Byzantine screening configuration (§ robust aggregation).
struct ScreeningConfig {
  /// Exclude contributed rows whose L2 norm is off the (lower) median
  /// contributor norm by more than kL2ScreenFactor in either direction,
  /// and any non-finite row. Median zero disables the ratio test.
  bool l2_norm = false;
  /// Replace the peer average with the coordinate-wise trimmed mean over
  /// all contributors (self included), dropping the smallest and largest
  /// value per coordinate (trimmed_mean_rows). Needs > 2 contributors;
  /// rounds below that fall back to the weighted average. Stale-row fold
  /// weights are ignored under trimming (rank statistics have no natural
  /// weights).
  bool trimmed_mean = false;
};

/// Declarative degraded-participation scenario. Inactive plans change
/// nothing; an active plan with zero rates, no Byzantine agents and
/// screening disabled resolves to full participation and is locked
/// bit-identical to the inactive path.
struct ParticipationPlan {
  bool active = false;
  /// Per-(round, agent) crash probability.
  double dropout_rate = 0.0;
  /// Consecutive rounds a crashed agent stays out before rejoining.
  std::size_t crash_rounds = 1;
  /// Per-(round, agent) probability an upload is delayed.
  double straggler_rate = 0.0;
  /// Rounds late a delayed upload arrives; past kMaxStaleness the upload
  /// is discarded.
  std::size_t straggler_lag = 1;
  /// Fixed set of garbage senders (see pick_byzantine_agents); their
  /// rows are uniform in [-kByzantineMagnitude, +kByzantineMagnitude].
  std::vector<std::size_t> byzantine_agents;
  /// Server-side robust-aggregation screening.
  ScreeningConfig screening;
  /// Checksum/retry/backoff upload protocol for on-time senders. An
  /// upload that exhausts its retry/deadline budget degrades into this
  /// plane: its clean payload folds in straggler_lag rounds late through
  /// the staleness buffer, or is dropped past kMaxStaleness. A
  /// zero-retry protocol is locked bit-identical to the plain plan path.
  UploadProtocolConfig upload;
};

/// Magnitude bound of a Byzantine sender's garbage row.
inline constexpr double kByzantineMagnitude = 10.0;

/// Tag of the participation RNG plane: all participation draws come from
/// train_rng.split(kParticipationStreamTag).derive_stream({kind, round,
/// agent}), never from the training stream itself.
inline constexpr std::uint64_t kParticipationStreamTag = 0x9A47'1C17ULL;

/// Sub-stream kinds under kParticipationStreamTag.
inline constexpr std::uint64_t kParticipationDropTag = 0xD801ULL;
inline constexpr std::uint64_t kParticipationStragglerTag = 0x57A6ULL;
inline constexpr std::uint64_t kParticipationByzantineTag = 0xBAD0ULL;

/// Validate plan parameters (throws Error on nonsense rates/windows).
void validate_participation_plan(const ParticipationPlan& plan,
                                 std::size_t n_agents);

/// Resolve one agent's status for one round. `participation_base` is
/// train_rng.split(kParticipationStreamTag); `byzantine` marks membership
/// in the plan's fixed Byzantine set (which overrides schedule outcomes —
/// a garbage sender is garbage every round it is up). Purely functional in
/// (plan, seed, round, agent): no cross-round state.
AgentRoundStatus resolve_agent_round_status(const ParticipationPlan& plan,
                                            const Rng& participation_base,
                                            std::size_t round,
                                            std::size_t agent, bool byzantine);

/// Deterministically pick round(n * fraction) Byzantine agents by seeded
/// shuffle (sorted ascending for readable reports).
std::vector<std::size_t> pick_byzantine_agents(std::size_t n_agents,
                                               double fraction,
                                               std::uint64_t seed);

/// What one degraded communication round did, surfaced to callers through
/// the engine's on_round hook and accumulated into ParticipationStats.
struct RoundParticipationReport {
  std::size_t round = 0;
  std::size_t present = 0;
  std::size_t dropped = 0;
  std::size_t stragglers = 0;
  std::size_t byzantine = 0;
  /// Stale rows folded into / discarded from this round's aggregate.
  std::size_t stale_folded = 0;
  std::size_t stale_discarded = 0;
  /// Contributed rows excluded by the L2-norm screen.
  std::size_t screened_out = 0;
  /// Rows that entered the aggregate (on-time survivors + folded stale).
  std::size_t contributors = 0;
  /// Reliable-upload protocol accounting (zeros while the protocol is
  /// off): transmit attempts by on-time senders, uploads whose retry/
  /// deadline budget ran out, how each exhausted upload degraded (folded
  /// late into the staleness buffer vs dropped), and the simulated
  /// seconds spent in exponential backoff.
  std::size_t upload_attempts = 0;
  std::size_t uploads_failed = 0;
  std::size_t failed_stale = 0;
  std::size_t failed_dropped = 0;
  double backoff_seconds = 0.0;
  /// False when no row contributed (receivers echo their own upload).
  bool aggregated = false;
  /// Per-agent statuses (n entries).
  std::vector<AgentRoundStatus> status;
  /// Per-agent exhausted-upload flags (n entries when the protocol ran,
  /// empty otherwise). A flagged agent contributed nothing this round and
  /// receives no downlink — its link is the thing that failed.
  std::vector<std::uint8_t> upload_failed;
};

/// Running totals over a training run's communication rounds.
struct ParticipationStats {
  std::size_t rounds = 0;
  std::size_t present = 0;
  std::size_t dropped = 0;
  std::size_t stragglers = 0;
  std::size_t byzantine = 0;
  std::size_t stale_folded = 0;
  std::size_t stale_discarded = 0;
  std::size_t screened_out = 0;
  /// Rounds where fewer than 2 rows contributed.
  std::size_t degenerate_rounds = 0;
  /// Reliable-upload totals (see RoundParticipationReport).
  std::size_t upload_attempts = 0;
  std::size_t uploads_failed = 0;
  std::size_t failed_stale = 0;
  std::size_t failed_dropped = 0;
  double backoff_seconds = 0.0;

  void accumulate(const RoundParticipationReport& rep);
};

}  // namespace frlfi
