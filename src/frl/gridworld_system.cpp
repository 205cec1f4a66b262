#include "frl/gridworld_system.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/stats.hpp"
#include "fault/injector.hpp"
#include "federated/aggregation.hpp"
#include "frl/policies.hpp"

namespace frlfi {

GridWorldFrlSystem::GridWorldFrlSystem(Config cfg, std::uint64_t seed)
    : cfg_(cfg), eps_(cfg.eps_start, cfg.eps_end, cfg.eps_span) {
  FRLFI_CHECK_MSG(cfg_.n_agents >= 1, "need at least one agent");
  FRLFI_CHECK(cfg_.comm_interval >= 1);

  const std::vector<GridLayout> suite = GridLayout::paper_suite();
  // All agents start from one shared initialization: parameter-space
  // averaging across independently-initialized networks is destructive
  // (weight-permutation symmetry), and federated training conventionally
  // broadcasts a common initial model.
  Rng init_rng = Rng(seed).split(0x1717);
  const Network shared_init = make_gridworld_policy(init_rng);
  for (std::size_t i = 0; i < cfg_.n_agents; ++i) {
    envs_.push_back(std::make_unique<GridWorldEnv>(suite[i % suite.size()],
                                                   cfg_.env));
    nets_.push_back(std::make_unique<Network>(shared_init.clone()));
    learners_.push_back(std::make_unique<QLearner>(*nets_.back(), cfg_.learner));
  }

  FederatedRoundEngine::Config ecfg;
  ecfg.n_agents = cfg_.n_agents;
  ecfg.parameter_dim = nets_[0]->parameter_count();
  ecfg.comm_interval = cfg_.comm_interval;
  ecfg.alpha0 = cfg_.alpha0;
  ecfg.alpha_tau = cfg_.alpha_tau;
  ecfg.channel_ber = cfg_.channel_ber;
  ecfg.bursty_channel = cfg_.channel_bursty;
  ecfg.threads = cfg_.threads;
  engine_ = std::make_unique<FederatedRoundEngine>(
      ecfg, seed, /*stream_tag=*/0x7121A1,
      FederatedRoundEngine::Hooks{
          [this](std::size_t i, std::size_t episode, Rng& rng) {
            const double epsilon = eps_.at(episode);
            return learners_[i]
                ->run_episode(*envs_[i], rng, epsilon, /*learn=*/true)
                .total_reward;
          },
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

void GridWorldFrlSystem::set_fault_plan(const TrainingFaultPlan& plan) {
  engine_->set_fault_plan(plan);
}

void GridWorldFrlSystem::set_mitigation(const MitigationPlan& plan) {
  engine_->set_mitigation(plan);
}

void GridWorldFrlSystem::train(std::size_t episodes) {
  engine_->train(episodes);
}

std::vector<float> GridWorldFrlSystem::consensus_params() const {
  std::vector<std::vector<float>> all;
  all.reserve(nets_.size());
  for (const auto& n : nets_) all.push_back(n->flat_parameters());
  return mean_parameters(all);
}

double GridWorldFrlSystem::evaluate_agent(std::size_t agent,
                                          std::size_t attempts,
                                          std::uint64_t seed) {
  FRLFI_CHECK(agent < cfg_.n_agents);
  FRLFI_CHECK(attempts >= 1);
  Rng eval_rng = Rng(seed).split(0xE7A1 + agent);
  std::size_t successes = 0;
  for (std::size_t a = 0; a < attempts; ++a) {
    const EpisodeStats stats = greedy_episode(*nets_[agent], *envs_[agent],
                                              eval_rng, cfg_.learner.max_steps);
    successes += stats.success ? 1 : 0;
  }
  return static_cast<double>(successes) / static_cast<double>(attempts);
}

double GridWorldFrlSystem::evaluate_success_rate(std::size_t attempts_per_agent,
                                                 std::uint64_t seed) {
  double total = 0.0;
  for (std::size_t i = 0; i < cfg_.n_agents; ++i)
    total += evaluate_agent(i, attempts_per_agent, seed);
  return total / static_cast<double>(cfg_.n_agents);
}

std::size_t GridWorldFrlSystem::episodes_to_recover(
    double sr_threshold, std::size_t check_every,
    std::size_t attempts_per_agent, std::size_t max_extra_episodes,
    std::uint64_t eval_seed) {
  FRLFI_CHECK(check_every >= 1);
  std::size_t extra = 0;
  while (extra < max_extra_episodes) {
    const std::size_t chunk =
        std::min(check_every, max_extra_episodes - extra);
    train(chunk);
    extra += chunk;
    if (evaluate_success_rate(attempts_per_agent, eval_seed + extra) >=
        sr_threshold)
      return extra;
  }
  return max_extra_episodes;
}

Network GridWorldFrlSystem::consensus_network() const {
  Network net = nets_[0]->clone();
  net.set_flat_parameters(consensus_params());
  return net;
}

double GridWorldFrlSystem::consensus_action_stddev() const {
  Network net = consensus_network();
  // Enumerate the full observation lattice (each of the 10 features takes
  // one of 3 codes — the paper's |S| = 3^4 space extended by diagonals and
  // goal-direction features) with a base-3 counter, and average the
  // per-state spread of the 4 action values.
  constexpr std::size_t kFeatures = GridWorldEnv::kObservationSize;
  constexpr std::array<float, 3> kCodes{-1.0f, 0.0f, 1.0f};
  RunningStats per_state_std;
  std::array<std::size_t, kFeatures> digits{};
  Tensor obs({kFeatures});
  bool done = false;
  while (!done) {
    for (std::size_t f = 0; f < kFeatures; ++f) obs[f] = kCodes[digits[f]];
    const Tensor q = net.forward(obs);
    std::vector<double> vals(q.data().begin(), q.data().end());
    per_state_std.add(population_stddev_of(vals));
    // Increment the base-3 counter.
    std::size_t f = 0;
    while (true) {
      if (f == kFeatures) {
        done = true;
        break;
      }
      if (++digits[f] < kCodes.size()) break;
      digits[f] = 0;
      ++f;
    }
  }
  return per_state_std.mean();
}

double GridWorldFrlSystem::evaluate_inference_fault(
    const InferenceFaultScenario& scenario, std::size_t attempts_per_agent,
    std::uint64_t seed) {
  Network policy = consensus_network();
  Rng fault_rng = Rng(seed).split(0xFA52);

  const bool trans1 =
      scenario.spec.model == FaultModel::TransientSingleStep;
  if (!trans1) apply_static_inference_fault(policy, scenario, fault_rng);

  // One consensus policy serves every agent: all attempts of all agents
  // run as one lockstep, a single forward per step over the shared
  // read-only policy (bit-identical to the serial loop at any width).
  // Trans-1 attempts join the same batched step via per-lane weight
  // views. Each lane copies its agent's validated environment; reset()
  // overwrites all of its episode state.
  BatchedCampaignSpec spec;
  spec.episodes = attempts_per_agent;
  spec.agents = cfg_.n_agents;
  spec.max_steps = cfg_.learner.max_steps;
  spec.seed = seed;
  spec.rng_salt = 0xE7A1;
  if (trans1) spec.trans1 = &scenario;
  const std::vector<double> successes = run_batched_inference_campaign(
      policy, spec,
      [this](std::size_t a) {
        return std::make_unique<GridWorldEnv>(*envs_[a]);
      },
      [](std::size_t, const Environment&, const EpisodeStats& stats) {
        return stats.success ? 1.0 : 0.0;
      });
  double total = 0.0;
  for (const double s : successes) total += s;
  return total / static_cast<double>(successes.size());
}

GridWorldFrlSystem::Snapshot GridWorldFrlSystem::snapshot() const {
  Snapshot snap;
  snap.engine = engine_->training_state();
  for (const auto& n : nets_) snap.agent_params.push_back(n->flat_parameters());
  return snap;
}

void GridWorldFrlSystem::restore(const Snapshot& snap) {
  FRLFI_CHECK_MSG(snap.agent_params.size() == nets_.size(),
                  "snapshot agent count mismatch");
  for (std::size_t i = 0; i < nets_.size(); ++i)
    nets_[i]->set_flat_parameters(snap.agent_params[i]);
  engine_->restore_training_state(snap.engine);
}

Network& GridWorldFrlSystem::agent_network(std::size_t agent) {
  FRLFI_CHECK(agent < nets_.size());
  return *nets_[agent];
}

GridWorldEnv& GridWorldFrlSystem::agent_env(std::size_t agent) {
  FRLFI_CHECK(agent < envs_.size());
  return *envs_[agent];
}

}  // namespace frlfi
