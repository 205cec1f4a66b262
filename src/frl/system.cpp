#include "frl/system.hpp"

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "federated/aggregation.hpp"

namespace frlfi {

void FrlSystem::start_engine(
    FederatedRoundEngine::Config ecfg, std::uint64_t seed,
    std::uint64_t stream_tag,
    std::function<double(std::size_t, std::size_t, Rng&)> run_episode,
    InferenceCampaign campaign) {
  FRLFI_CHECK(!nets_.empty() && engine_ == nullptr);
  campaign_ = std::move(campaign);
  ecfg.n_agents = nets_.size();
  ecfg.parameter_dim = nets_[0]->parameter_count();
  engine_ = std::make_unique<FederatedRoundEngine>(
      ecfg, seed, stream_tag,
      FederatedRoundEngine::Hooks{
          std::move(run_episode),
          [this](std::size_t i, std::span<float> out) {
            nets_[i]->copy_flat_parameters(out);
          },
          [this](std::size_t i, std::span<const float> params) {
            nets_[i]->set_flat_parameters(params);
          },
          [this](std::size_t victim, const FaultSpec& spec, Rng& rng) {
            inject_network_weights(*nets_[victim], spec, rng);
          },
          /*on_round=*/nullptr});
}

Network FrlSystem::consensus_network() const {
  std::vector<std::vector<float>> all;
  all.reserve(nets_.size());
  for (const auto& n : nets_) all.push_back(n->flat_parameters());
  Network net = nets_[0]->clone();
  net.set_flat_parameters(mean_parameters(all));
  return net;
}

double FrlSystem::evaluate_inference_fault(
    const InferenceFaultScenario& scenario, std::size_t episodes_per_agent,
    std::uint64_t seed) {
  Network policy = consensus_network();
  Rng fault_rng = Rng(seed).split(campaign_.fault_tag);

  const bool trans1 =
      scenario.spec.model == FaultModel::TransientSingleStep;
  if (!trans1) apply_static_inference_fault(policy, scenario, fault_rng);

  // One consensus policy serves every agent: all episodes of all agents
  // run as one lockstep, a single forward per step over the shared
  // read-only policy (bit-identical to the serial loop at any width).
  // Trans-1 lanes join the same batched step via per-lane weight views.
  BatchedCampaignSpec spec;
  spec.episodes = episodes_per_agent;
  spec.agents = nets_.size();
  spec.max_steps = campaign_.max_steps;
  spec.seed = seed;
  spec.rng_salt = campaign_.rng_salt;
  if (trans1) spec.trans1 = &scenario;
  const std::vector<double> metrics = run_batched_inference_campaign(
      policy, spec, campaign_.make_env, campaign_.metric);
  double total = 0.0;
  for (const double m : metrics) total += m;
  return total / static_cast<double>(metrics.size());
}

FrlSystem::Snapshot FrlSystem::snapshot() const {
  Snapshot snap;
  snap.engine = engine_->training_state();
  for (const auto& n : nets_) snap.agent_params.push_back(n->flat_parameters());
  return snap;
}

void FrlSystem::restore(const Snapshot& snap) {
  FRLFI_CHECK_MSG(snap.agent_params.size() == nets_.size(),
                  "snapshot agent count mismatch");
  for (std::size_t i = 0; i < nets_.size(); ++i)
    nets_[i]->set_flat_parameters(snap.agent_params[i]);
  engine_->restore_training_state(snap.engine);
}

}  // namespace frlfi
