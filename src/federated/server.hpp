#pragma once

/// \file server.hpp
/// The designated-agent parameter server of the FRL system: collects
/// per-agent uploads over a CommChannel, runs the smoothing average, and
/// broadcasts the per-agent results back. Fault hooks allow corrupting the
/// aggregated state (the paper's "server faults"), and the mitigation
/// module attaches its checkpoint store here.
///
/// A round enters through one call, communicate_round, over the caller's
/// agent-indexed n x dim round matrix (row i is agent i's): every agent's
/// status (all Present when no participation plan is armed) decides who
/// uploads, who is averaged and who gets the downlink, and each
/// receiver's row is combined in place, so the server keeps no second
/// copy of the matrix. The round runs on
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

  /// A straggler upload in flight: the post-channel payload of `agent`'s
  /// round-r upload, folded into round `deliver_round`'s aggregate with
  /// `weight` = kStaleDecay^lag. Part of the server's training state —
  /// the engine captures/restores it across snapshots.
  struct PendingUpload {
    std::size_t agent = 0;
    std::size_t deliver_round = 0;
    float weight = 1.0f;
    std::vector<float> data;
  };

  /// One server round over the agent-indexed round matrix: `rows` is the
  /// row-major n x dim matrix whose row i is agent i's. On entry every
  /// sender's row (Present / Straggler / Byzantine) holds its upload; the
  /// round itself neither reads nor writes the rows of Dropped agents
  /// (only the hook sees them). Only senders
  /// transmit uplink, straggler payloads detour through the staleness
  /// buffer, the smoothing average runs over the weighted contributor set
  /// (on-time survivors + due stale rows) with optional Byzantine
  /// screening, and every receiver's row is combined in place and sent
  /// down: on return it holds the agent's downlink payload. A sender that
  /// does not receive keeps its post-channel upload (its clean payload
  /// after a failed reliable upload); the caller scatters receivers only.
  /// `plan` supplies the straggler lag, screening and upload protocol;
  /// the server reads nothing else of it (statuses arrive resolved).
  /// With every agent Present, screening off,
  /// no retry protocol and nothing stale due, this is the paper's
  /// synchronous round: every weight is 1, so the aggregate equals the
  /// scalar smoothing_average of the post-channel uploads bit for bit.
  /// With the retry protocol armed, on-time uploads go through the
  /// channel's retry protocol; an upload that exhausts its budget is
  /// excluded from the aggregate and the downlink, and its clean payload
  /// degrades into the staleness buffer (or is dropped) — the failure is
  /// absorbed by the participation machinery instead of poisoning the
  /// round. The post-aggregate hook, when installed, runs on every round
  /// over the whole matrix. The channel noise comes off `rng`.
  RoundParticipationReport communicate_round(
      std::span<float> rows, std::span<const AgentRoundStatus> status,
      const ParticipationPlan& plan, Rng& rng);

  /// Staleness-buffer state (straggler uploads still in flight), exposed
  /// for snapshot capture; set_pending_uploads restores it.
  const std::vector<PendingUpload>& pending_uploads() const {
    return pending_;
  }
  void set_pending_uploads(std::vector<PendingUpload> pending);

  /// Hook invoked on every round after aggregation but before the
  /// downlink with the mutable row-major n x dim round matrix and the
  /// round index. Receivers' rows hold their aggregates; the other rows
  /// hold whatever the round left there, and nothing reads them. This is
  /// where ServerFault injection attaches (the round engine's in-place
  /// server-fault injection).
  void set_post_aggregate_rows_hook(
      std::function<void(std::size_t round, std::span<float> rows,
                         std::size_t dim)>
          hook);

  /// Mean of the last aggregated parameters (the consensus policy); empty
  /// before the first round.
  const std::vector<float>& consensus() const { return consensus_; }

 private:
  std::size_t n_;
  std::size_t dim_;
  AlphaSchedule schedule_;
  CommChannel channel_;
  std::size_t round_ = 0;
  std::vector<float> consensus_;
  std::function<void(std::size_t, std::span<float>, std::size_t)> rows_hook_;
  // The smoothing row-sum (dim).
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
  // The sender list, channel upload pointer/mask/outcome tables, the
  // receiver list, and the screening norm buffers.
  std::vector<std::size_t> senders_;
  std::vector<float*> upload_ptrs_;
  std::vector<std::uint8_t> upload_mask_;
  std::vector<CommChannel::UploadOutcome> upload_outcomes_;
  std::vector<std::size_t> receivers_;
  std::vector<double> norms_;
  std::vector<double> norms_sorted_;
};

}  // namespace frlfi
