#pragma once

/// \file server.hpp
/// The designated-agent parameter server of the FRL system: collects
/// per-agent uploads over a CommChannel, runs the smoothing average, and
/// broadcasts the per-agent results back. Fault hooks allow corrupting the
/// aggregated state (the paper's "server faults"), and the mitigation
/// module attaches its checkpoint store here.
///
/// A round enters through one call, communicate_round: every agent's
/// status (all Present when no participation plan is armed) decides who
/// uploads, who is averaged and who gets the downlink. The round runs on
/// the calling thread, and its i.i.d. channel noise rides the caller's
/// advancing RNG stream, message by message in agent order (see
/// CommChannel::transmit_uploads).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "federated/aggregation.hpp"
#include "federated/channel.hpp"
#include "federated/participation.hpp"

namespace frlfi {

/// Smoothing-average parameter server over n agents.
class ParameterServer {
 public:
  /// \param n_agents       number of federated agents (>= 2).
  /// \param parameter_dim  flat parameter vector length.
  /// \param schedule       alpha_k consensus schedule.
  ParameterServer(std::size_t n_agents, std::size_t parameter_dim,
                  AlphaSchedule schedule);

  /// Number of agents.
  std::size_t agent_count() const { return n_; }

  /// Flat parameter length.
  std::size_t parameter_dim() const { return dim_; }

  /// Communication rounds completed.
  std::size_t round() const { return round_; }

  /// Reset the round counter (used when restoring a training snapshot so
  /// the alpha_k schedule resumes from the right point).
  void set_round(std::size_t round) { round_ = round; }

  /// The uplink/downlink channel (shared by all agents; cost counters
  /// accumulate across the whole swarm).
  CommChannel& channel() { return channel_; }
  const CommChannel& channel() const { return channel_; }

  /// Server-side knobs of one degraded round (engine-derived from the
  /// ParticipationPlan; the server never sees schedule probabilities,
  /// only resolved statuses).
  struct RobustRoundOptions {
    /// Rounds a straggler upload spends in flight (>= 1).
    std::size_t straggler_lag = 1;
    /// Stale fold weight is stale_decay^lag, stale_decay in (0, 1].
    double stale_decay = 0.5;
    /// Straggler uploads later than this are discarded, bounding the
    /// staleness buffer.
    std::size_t max_staleness = 4;
    ScreeningConfig screening;
    /// Checksum/retry/backoff protocol applied to on-time uploads
    /// (Present/Byzantine rows; stragglers are already late and keep the
    /// single plain transmit). Disabled or zero-retry configurations
    /// leave the round byte-for-byte on the plain plan path.
    UploadProtocolConfig upload;
  };

  /// A straggler upload in flight: the post-channel payload of `agent`'s
  /// round-r upload, folded into round `deliver_round`'s aggregate with
  /// `weight` = stale_decay^lag. Part of the server's training state —
  /// the engine captures/restores it across snapshots.
  struct PendingUpload {
    std::size_t agent = 0;
    std::size_t deliver_round = 0;
    float weight = 1.0f;
    std::vector<float> data;
  };

  /// The server round over participant-compacted storage. `sender_rows`
  /// is a row-major n_senders x dim matrix holding, in ascending agent
  /// order, the upload of every agent whose status sends (Present /
  /// Straggler / Byzantine — `sender_agents[j]` is row j's agent index).
  /// Only senders transmit uplink, straggler payloads detour through the
  /// staleness buffer, the smoothing average runs over the weighted
  /// contributor set (on-time survivors + due stale rows) with optional
  /// Byzantine screening, and only receivers (a subset of senders) get the
  /// downlink: on return row j holds agent sender_agents[j]'s downlink
  /// payload when that agent receives, its clean payload after a failed
  /// reliable upload, and its post-channel upload otherwise (the caller
  /// must scatter receivers only). With every agent Present, screening
  /// off, no retry protocol and nothing stale due, this is the paper's
  /// synchronous round: every weight is 1, so the aggregate equals the
  /// scalar smoothing_average of the post-channel uploads bit for bit.
  /// With the retry protocol armed, on-time uploads go through the
  /// channel's retry protocol; an upload that exhausts its budget is
  /// excluded from the aggregate and the downlink, and its clean payload
  /// degrades into the staleness buffer (or is dropped) — the failure is
  /// absorbed by the participation machinery instead of poisoning the
  /// round. The channel noise comes off `rng`.
  ///
  /// `run_post_hook` gates the post-aggregation hook: when false the
  /// aggregation combines IN PLACE over the caller's sender rows — no
  /// aggregate matrix is retained at all — because the caller asserts
  /// the installed hook would not observe or mutate anything this round.
  /// When true the full zero-filled n x dim aggregate matrix is built
  /// (grow-only) and the hook runs over it. The round engine passes true
  /// on every plan-free round and while a server fault is pending.
  RoundParticipationReport communicate_round(
      std::span<float> sender_rows, std::span<const std::size_t> sender_agents,
      std::span<const AgentRoundStatus> status, const RobustRoundOptions& opts,
      Rng& rng, bool run_post_hook);

  /// Bytes currently retained by the round-scratch buffers (aggregate
  /// matrices, row sums, trim/candidate scratch). At partial participation
  /// this scales with the participants, not the agent roster.
  std::size_t round_buffer_bytes() const;

  /// Staleness-buffer state (straggler uploads still in flight), exposed
  /// for snapshot capture; set_pending_uploads restores it.
  const std::vector<PendingUpload>& pending_uploads() const {
    return pending_;
  }
  void set_pending_uploads(std::vector<PendingUpload> pending);

  /// Hook invoked after aggregation but before the downlink with the
  /// mutable row-major n x dim aggregate matrix and the round index. This
  /// is where ServerFault injection and checkpoint-based recovery attach
  /// (the round engine's in-place server-fault injection).
  void set_post_aggregate_rows_hook(
      std::function<void(std::size_t round, std::span<float> rows,
                         std::size_t dim)>
          hook);

  /// Mean of the last aggregated parameters (the consensus policy); empty
  /// before the first round.
  const std::vector<float>& consensus() const { return consensus_; }

 private:
  /// Transmit `n_rows` consecutive dim-wide rows starting at `rows`
  /// through CommChannel::transmit_uploads (same optional protocol
  /// arguments).
  void transmit_matrix(float* rows, std::size_t n_rows, Rng& rng,
                       const UploadProtocolConfig* proto = nullptr,
                       const std::uint8_t* reliable_mask = nullptr,
                       CommChannel::UploadOutcome* outcomes = nullptr);

  std::size_t n_;
  std::size_t dim_;
  AlphaSchedule schedule_;
  CommChannel channel_;
  std::size_t round_ = 0;
  std::vector<float> consensus_;
  std::function<void(std::size_t, std::span<float>, std::size_t)> rows_hook_;
  // Round scratch, lazily grown and pooled across rounds: the full
  // n x dim aggregate matrix (only materialized by hook-bearing rounds —
  // hook-free rounds combine in place over the caller's sender rows and
  // retain no aggregate matrix) and the smoothing row-sum (dim).
  std::vector<float> agg_;
  std::vector<float> total_;
  // Degraded-round state and scratch: straggler uploads in flight plus
  // the contributor bookkeeping of communicate_round (row pointers /
  // weights / per-agent on-time flags / trimmed-mean buffers).
  std::vector<PendingUpload> pending_;
  std::vector<const float*> cand_rows_;
  std::vector<float> cand_weights_;
  std::vector<std::size_t> cand_agents_;
  std::vector<std::uint8_t> ontime_;
  std::vector<std::uint8_t> upload_failed_;
  std::vector<float> trim_out_;
  std::vector<float> trim_scratch_;
  // Channel upload pointer/mask/outcome tables, the receiver row list, and
  // the screening norm buffers.
  std::vector<float*> upload_ptrs_;
  std::vector<std::uint8_t> upload_mask_;
  std::vector<CommChannel::UploadOutcome> upload_outcomes_;
  std::vector<std::size_t> recv_idx_;
  std::vector<double> norms_;
  std::vector<double> norms_sorted_;
};

}  // namespace frlfi
