#include "federated/round_engine.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "fault/injector.hpp"

namespace frlfi {

FederatedRoundEngine::FederatedRoundEngine(const Config& cfg,
                                           std::uint64_t seed,
                                           std::uint64_t stream_tag,
                                           Hooks hooks)
    : cfg_(cfg),
      hooks_(std::move(hooks)),
      train_rng_(Rng(seed).split(stream_tag)),
      checkpoints_(5) {
  FRLFI_CHECK_MSG(cfg_.n_agents >= 1, "need at least one agent");
  FRLFI_CHECK(cfg_.comm_interval >= 1);
  FRLFI_CHECK(cfg_.comm_interval_boost >= 1);
  FRLFI_CHECK(cfg_.parameter_dim > 0);
  FRLFI_CHECK_MSG(hooks_.run_episode && hooks_.gather_params &&
                      hooks_.scatter_params && hooks_.inject_agent,
                  "round engine needs all four agent hooks");
  rewards_.resize(cfg_.n_agents);
  byzantine_mask_.assign(cfg_.n_agents, 0);
  // The lane count dispatch_lanes would pick (never more lanes than
  // agents), resolved once: the pool persists across every episode of
  // the training run.
  const std::size_t lanes =
      std::min(resolve_thread_count(cfg_.threads), cfg_.n_agents);
  if (lanes > 1) episode_pool_ = std::make_unique<ThreadPool>(lanes);

  if (cfg_.n_agents >= 2) {
    server_.emplace(
        cfg_.n_agents, cfg_.parameter_dim,
        AlphaSchedule(cfg_.n_agents, cfg_.alpha0, cfg_.alpha_tau));
    server_->channel().set_bit_error_rate(cfg_.channel_ber);
    server_->channel().set_bursty(cfg_.bursty_channel);
    round_matrix_.assign(cfg_.n_agents * cfg_.parameter_dim, 0.0f);
    // Server faults corrupt the aggregated rows in place, row by row on
    // one stream — the exact arithmetic and RNG order of the historical
    // per-agent-vector hook (inject_int8 is span-based now). The hook
    // runs on every round and acts only while a fault is pending.
    server_->set_post_aggregate_rows_hook(
        [this](std::size_t /*round*/, std::span<float> rows,
               std::size_t dim) {
          if (!server_fault_pending_) return;
          server_fault_pending_ = false;
          Rng fault_rng = train_rng_.split(0xFA017 + episode_);
          for (std::size_t i = 0; i < cfg_.n_agents; ++i)
            inject_int8(rows.subspan(i * dim, dim), fault_plan_.spec,
                        fault_rng);
        });
  }
}

void FederatedRoundEngine::set_fault_plan(const TrainingFaultPlan& plan) {
  if (plan.active && plan.spec.site == FaultSite::AgentFault)
    FRLFI_CHECK_MSG(plan.spec.agent_index < cfg_.n_agents,
                    "agent_index " << plan.spec.agent_index);
  fault_plan_ = plan;
}

void FederatedRoundEngine::set_mitigation(const MitigationPlan& plan) {
  mitigation_ = plan;
  if (plan.enabled) {
    monitor_.emplace(cfg_.n_agents, plan.detector);
    checkpoints_ = CheckpointStore(plan.checkpoint_interval);
    mit_stats_ = MitigationStats{};
  } else {
    monitor_.reset();
  }
}

void FederatedRoundEngine::set_participation_plan(
    const ParticipationPlan& plan) {
  validate_participation_plan(plan, cfg_.n_agents);
  participation_ = plan;
  part_stats_ = ParticipationStats{};
  byzantine_mask_.assign(cfg_.n_agents, 0);
  for (std::size_t agent : plan.byzantine_agents) byzantine_mask_[agent] = 1;
}

std::size_t FederatedRoundEngine::effective_comm_interval() const {
  if (episode_ >= cfg_.boost_after_episode)
    return cfg_.comm_interval * cfg_.comm_interval_boost;
  return cfg_.comm_interval;
}

void FederatedRoundEngine::inject_training_fault_if_due() {
  if (!fault_plan_.active || episode_ != fault_plan_.spec.episode) return;
  switch (fault_plan_.spec.site) {
    case FaultSite::AgentFault: {
      // In the single-agent system every fault hits the lone agent.
      const std::size_t victim =
          std::min(fault_plan_.spec.agent_index, cfg_.n_agents - 1);
      Rng fault_rng = train_rng_.split(0xFA017 + episode_);
      hooks_.inject_agent(victim, fault_plan_.spec, fault_rng);
      break;
    }
    case FaultSite::ServerFault: {
      if (server_) {
        // Corrupts the aggregated state at the next communication round.
        server_fault_pending_ = true;
      } else {
        // No server in the single-agent system: the fault hits the agent.
        Rng fault_rng = train_rng_.split(0xFA017 + episode_);
        hooks_.inject_agent(0, fault_plan_.spec, fault_rng);
      }
      break;
    }
  }
}

void FederatedRoundEngine::communicate_if_due() {
  if (!server_) return;
  if ((episode_ + 1) % effective_comm_interval() != 0) return;

  const std::size_t dim = cfg_.parameter_dim;
  const std::size_t round = server_->round();

  // Participation outcomes live on their own derived RNG plane — split
  // never advances train_rng_, so an all-present resolution leaves the
  // training stream exactly where the plan-free engine has it. The
  // default plan resolves everyone Present without a draw.
  const Rng part_base = train_rng_.split(kParticipationStreamTag);
  status_.resize(cfg_.n_agents);
  for (std::size_t i = 0; i < cfg_.n_agents; ++i)
    status_[i] = resolve_agent_round_status(participation_, part_base, round,
                                            i, byzantine_mask_[i] != 0);

  // Gather each sending agent into its own row. The rows of agents that
  // send nothing keep what an earlier round left there; the server
  // neither reads nor delivers them.
  for (std::size_t i = 0; i < cfg_.n_agents; ++i) {
    if (!sends_upload(status_[i])) continue;
    std::span<float> row(round_matrix_.data() + i * dim, dim);
    if (status_[i] == AgentRoundStatus::Byzantine) {
      // Garbage upload from the participation plane (deterministic in
      // (seed, round, agent), independent of the training stream).
      Rng garbage =
          part_base.derive_stream({kParticipationByzantineTag, round, i});
      for (float& v : row)
        v = static_cast<float>(
            garbage.uniform(-kByzantineMagnitude, kByzantineMagnitude));
    } else {
      hooks_.gather_params(i, row);
    }
  }

  Rng comm_rng = train_rng_.split(0xC0111 + episode_);
  const RoundParticipationReport rep = server_->communicate_round(
      round_matrix_, status_, participation_, comm_rng);

  // Downlink lands only on receiving agents; dropped agents keep training
  // on their own stale parameters, stragglers keep the parameters whose
  // update is still in flight, and an agent whose upload exhausted its
  // retry budget got no downlink either (its row holds its own clean
  // payload, not a server aggregate).
  for (std::size_t i = 0; i < cfg_.n_agents; ++i) {
    if (!receives_downlink(status_[i])) continue;
    if (i < rep.upload_failed.size() && rep.upload_failed[i]) continue;
    hooks_.scatter_params(
        i, std::span<const float>(round_matrix_.data() + i * dim, dim));
  }

  part_stats_.accumulate(rep);
  if (hooks_.on_round) hooks_.on_round(rep);

  // Checkpoint the (pre-fault) consensus, pausing while the detector is
  // suspicious so recovery state stays clean. (The consensus can still be
  // empty if every round so far had zero receivers.)
  if (mitigation_.enabled && !(monitor_ && monitor_->suspicious()) &&
      !server_->consensus().empty()) {
    if (checkpoints_.offer(server_->round(), server_->consensus()))
      ++mit_stats_.checkpoints_taken;
  }
}

void FederatedRoundEngine::apply_mitigation(
    const std::vector<double>& rewards) {
  if (!mitigation_.enabled || !monitor_) return;
  const DetectedFault verdict = monitor_->observe(rewards);
  if (verdict == DetectedFault::None || !checkpoints_.has_checkpoint()) return;

  if (verdict == DetectedFault::Agent) {
    const std::vector<float>& cp = checkpoints_.restore();
    for (std::size_t agent : monitor_->flagged_agents())
      hooks_.scatter_params(agent, std::span<const float>(cp));
    ++mit_stats_.agent_recoveries;
  } else {
    // Server fault: revert every agent to the checkpointed consensus
    // (equivalent to reverting the server and broadcasting).
    const std::vector<float>& cp = checkpoints_.restore();
    for (std::size_t i = 0; i < cfg_.n_agents; ++i)
      hooks_.scatter_params(i, std::span<const float>(cp));
    ++mit_stats_.server_recoveries;
  }
  monitor_->acknowledge();
}

void FederatedRoundEngine::run_training_episode() {
  // Local episodes: agents own disjoint state and per-(episode, agent)
  // derived streams (split never advances train_rng_), so the lane
  // partition cannot change a bit — threads == 1 is the historical
  // serial loop.
  std::fill(rewards_.begin(), rewards_.end(), 0.0);
  const auto body = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Rng ep_rng = train_rng_.split(episode_ * 1000003ULL + i);
      rewards_[i] = hooks_.run_episode(i, episode_, ep_rng);
    }
  };
  if (episode_pool_) {
    episode_pool_->parallel_for(cfg_.n_agents, body);
  } else {
    body(0, cfg_.n_agents);
  }
  inject_training_fault_if_due();
  communicate_if_due();
  apply_mitigation(rewards_);
  ++episode_;
}

void FederatedRoundEngine::train(std::size_t episodes) {
  for (std::size_t e = 0; e < episodes; ++e) run_training_episode();
}

FederatedRoundEngine::TrainingState FederatedRoundEngine::training_state()
    const {
  TrainingState state;
  state.episode = episode_;
  state.round = server_ ? server_->round() : 0;
  state.server_fault_pending = server_fault_pending_;
  if (server_) {
    state.channel_seq = server_->channel().transmit_seq();
    state.pending_uploads = server_->pending_uploads();
  }
  if (mitigation_.enabled && monitor_) {
    state.has_mitigation_state = true;
    state.monitor = monitor_->state();
    state.checkpoints = checkpoints_.state();
    state.stats = mit_stats_;
  }
  return state;
}

void FederatedRoundEngine::restore_training_state(const TrainingState& state) {
  episode_ = state.episode;
  server_fault_pending_ = state.server_fault_pending;
  if (server_) {
    server_->set_round(state.round);
    server_->channel().set_transmit_seq(state.channel_seq);
    server_->set_pending_uploads(state.pending_uploads);
  }
  if (mitigation_.enabled) {
    // Fresh machinery first, then overlay the snapshot's history when it
    // carries one — that is what makes the resumed run's detection
    // verdicts identical to the uninterrupted run's.
    set_mitigation(mitigation_);
    if (state.has_mitigation_state && monitor_) {
      monitor_->set_state(state.monitor);
      checkpoints_.set_state(state.checkpoints);
      mit_stats_ = state.stats;
    }
  }
}

}  // namespace frlfi
