#include "frl/drone_system.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <mutex>

#include "core/error.hpp"
#include "dronesim/heuristic.hpp"
#include "fault/injector.hpp"
#include "federated/aggregation.hpp"
#include "frl/policies.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace frlfi {
namespace {

/// Cache key over every knob pretrain() consumes, absorbed field by field
/// through the shared tag mixer (floats/doubles by bit pattern). Distinct
/// configs must never alias one slot — under pool-parallel campaign
/// cells an alias would make which config wins the call_once fill
/// thread-schedule dependent. When pretrain() grows a new input, add it
/// here.
std::uint64_t pretraining_cache_key(const DroneFrlSystem::Config& cfg,
                                    std::uint64_t seed) {
  const auto f = [](float v) {
    return static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(v));
  };
  const auto d = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const DroneNavEnv::Options& e = cfg.env;
  const ObstacleWorld::Options& w = e.world;
  const ReinforceTrainer::Options& l = cfg.learner;
  return Rng::mix_tags(
      seed,
      {cfg.imitation_episodes, cfg.pretrain_reinforce_episodes,
       f(cfg.imitation_lr), f(l.gamma), f(l.learning_rate), l.max_steps,
       f(l.baseline_beta), d(e.dt), d(e.max_yaw_step), d(e.min_speed),
       d(e.max_speed), d(e.max_distance), e.max_steps, f(e.crash_penalty),
       d(e.body_radius), static_cast<std::uint64_t>(e.randomize_world),
       e.stall_window_steps, d(e.stall_min_displacement), d(w.cell_size),
       d(w.density), d(w.min_radius), d(w.max_radius), d(w.spawn_clearance)});
}

}  // namespace

DroneFrlSystem::Config::Config() {
  // DroneNav flies long episodes; tune the defaults for the task scale.
  learner.gamma = 0.97f;
  learner.learning_rate = 2e-4f;
  // Default fine-tuning environment: faster steps so a 750 m flight fits
  // in a few hundred decisions (see DESIGN.md runtime budget).
  env.dt = 0.75;
  env.min_speed = 1.5;
  env.max_speed = 7.5;
  learner.max_steps = env.max_steps;
}

const std::vector<float>& DroneFrlSystem::pretrained_parameters(
    const Config& cfg, std::uint64_t seed) {
  // Cache key: the seed plus every training knob that changes what is
  // learned (see pretraining_cache_key), absorbed through the shared tag
  // mixer — the old ad-hoc `<< 32 / << 44` packing let wide components
  // overflow into each other, and omitted the env/learner knobs entirely.
  //
  // Thread safety for pool-parallel campaign cells: the map is guarded by
  // a mutex held only for slot lookup/insertion, and each slot computes
  // its parameters under std::call_once — concurrent cells wanting the
  // same key block until the one computation finishes (never recompute),
  // while cells with different keys pretrain concurrently. Entries are
  // never erased and the per-slot vector is heap-stable, so returned
  // references stay valid for the life of the process.
  struct CacheEntry {
    std::once_flag once;
    std::vector<float> params;
  };
  static std::mutex cache_mu;
  static std::map<std::uint64_t, std::unique_ptr<CacheEntry>> cache;
  const std::uint64_t key = pretraining_cache_key(cfg, seed);
  CacheEntry* entry = nullptr;
  {
    const std::lock_guard<std::mutex> lock(cache_mu);
    std::unique_ptr<CacheEntry>& slot = cache[key];
    if (slot == nullptr) slot = std::make_unique<CacheEntry>();
    entry = slot.get();
  }
  std::call_once(entry->once, [&] { entry->params = pretrain(cfg, seed); });
  return entry->params;
}

std::vector<float> DroneFrlSystem::pretrain(const Config& cfg,
                                            std::uint64_t seed) {
  Rng rng = Rng(seed).split(0x0FF11E);
  Network net = make_drone_policy(rng);
  DroneNavEnv env(seed ^ 0x0FF11E5EEDULL, cfg.env, DroneCamera::Options{});
  HeuristicPilot pilot(env);

  // Phase 1: DAgger-style imitation. The *student* increasingly drives
  // (so training covers the states the student will actually visit — plain
  // behaviour cloning suffers compounding drift), while every visited
  // state is labelled by the teacher and regressed with cross-entropy
  // (policy-gradient grad at advantage 1).
  {
    SgdOptimizer opt(net, {.learning_rate = cfg.imitation_lr,
                           .momentum = 0.9f,
                           .clip_norm = 5.0f});
    std::size_t batch = 0;
    for (std::size_t ep = 0; ep < cfg.imitation_episodes; ++ep) {
      Rng ep_rng = rng.split(1000 + ep);
      const double p_student =
          0.9 * static_cast<double>(ep) /
          static_cast<double>(std::max<std::size_t>(1, cfg.imitation_episodes));
      Tensor obs = env.reset(ep_rng);
      for (std::size_t t = 0; t < cfg.env.max_steps; ++t) {
        const std::size_t teacher = pilot.act(env);
        const Tensor logits = net.forward(obs);
        net.backward(policy_gradient_grad(logits, teacher, 1.0f));
        if (++batch % 16 == 0) opt.step();
        const std::size_t drive =
            ep_rng.bernoulli(p_student) ? logits.argmax() : teacher;
        StepResult r = env.step(drive, ep_rng);
        if (r.done) break;
        obs = std::move(r.observation);
      }
      opt.step();
    }
  }

  // Phase 2: REINFORCE polish so the policy optimizes the task reward it
  // will keep fine-tuning on.
  {
    ReinforceTrainer trainer(net, cfg.learner);
    for (std::size_t ep = 0; ep < cfg.pretrain_reinforce_episodes; ++ep) {
      Rng ep_rng = rng.split(5000 + ep);
      trainer.run_episode(env, ep_rng, /*learn=*/true);
    }
  }

  return net.flat_parameters();
}

DroneFrlSystem::DroneFrlSystem(Config cfg, std::uint64_t seed)
    : cfg_(cfg), seed_(seed) {
  FRLFI_CHECK_MSG(cfg_.n_drones >= 1, "need at least one drone");
  FRLFI_CHECK(cfg_.comm_interval >= 1);
  FRLFI_CHECK(cfg_.comm_interval_boost >= 1);

  const std::vector<float>& pretrained = pretrained_parameters(cfg_, seed);
  // Every drone starts from the shared offline-pretrained policy (see
  // pretrained_parameters); topology init RNG is irrelevant because the
  // parameters are overwritten, but keep it deterministic anyway.
  Rng init_rng = Rng(seed).split(0x1718);
  for (std::size_t i = 0; i < cfg_.n_drones; ++i) {
    envs_.push_back(std::make_unique<DroneNavEnv>(
        seed ^ (0xD60E'0000ULL + i), cfg_.env, DroneCamera::Options{}));
    Rng net_rng = init_rng.split(i);
    nets_.push_back(std::make_unique<Network>(make_drone_policy(net_rng)));
    nets_.back()->set_flat_parameters(pretrained);
    learners_.push_back(
        std::make_unique<ReinforceTrainer>(*nets_.back(), cfg_.learner));
  }

  FederatedRoundEngine::Config ecfg;
  ecfg.n_agents = cfg_.n_drones;
  ecfg.parameter_dim = nets_[0]->parameter_count();
  ecfg.comm_interval = cfg_.comm_interval;
  ecfg.boost_after_episode = cfg_.boost_after_episode;
  ecfg.comm_interval_boost = cfg_.comm_interval_boost;
  ecfg.alpha0 = cfg_.alpha0;
  ecfg.alpha_tau = cfg_.alpha_tau;
  ecfg.channel_ber = cfg_.channel_ber;
  ecfg.bursty_channel = cfg_.channel_bursty;
  ecfg.threads = cfg_.threads;
  ecfg.server_threads = cfg_.server_threads;
  engine_ = std::make_unique<FederatedRoundEngine>(
      ecfg, seed, /*stream_tag=*/0xD201E,
      FederatedRoundEngine::Hooks{
          [this](std::size_t i, std::size_t /*episode*/, Rng& rng) {
            return learners_[i]
                ->run_episode(*envs_[i], rng, /*learn=*/true)
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

void DroneFrlSystem::set_fault_plan(const TrainingFaultPlan& plan) {
  engine_->set_fault_plan(plan);
}

void DroneFrlSystem::set_mitigation(const MitigationPlan& plan) {
  engine_->set_mitigation(plan);
}

void DroneFrlSystem::train(std::size_t episodes) { engine_->train(episodes); }

double DroneFrlSystem::evaluate_flight_distance(std::size_t episodes_per_drone,
                                                std::uint64_t seed) {
  FRLFI_CHECK(episodes_per_drone >= 1);
  double total = 0.0;
  for (std::size_t i = 0; i < cfg_.n_drones; ++i) {
    Rng eval_rng = Rng(seed).split(0xE7A2 + i);
    for (std::size_t e = 0; e < episodes_per_drone; ++e) {
      greedy_episode(*nets_[i], *envs_[i], eval_rng, cfg_.env.max_steps);
      total += envs_[i]->flight_distance();
    }
  }
  return total /
         static_cast<double>(cfg_.n_drones * episodes_per_drone);
}

Network DroneFrlSystem::consensus_network() const {
  std::vector<std::vector<float>> all;
  all.reserve(nets_.size());
  for (const auto& n : nets_) all.push_back(n->flat_parameters());
  Network net = nets_[0]->clone();
  net.set_flat_parameters(mean_parameters(all));
  return net;
}

double DroneFrlSystem::evaluate_inference_fault(
    const InferenceFaultScenario& scenario, std::size_t episodes_per_drone,
    std::uint64_t seed, std::size_t threads) {
  Network policy = consensus_network();
  Rng fault_rng = Rng(seed).split(0xFA53);

  const bool trans1 =
      scenario.spec.model == FaultModel::TransientSingleStep;
  if (!trans1) apply_static_inference_fault(policy, scenario, fault_rng);

  // One policy serves every drone, so each decision step batches all
  // still-flying drones' observations into a single forward, and episodes
  // fan across worker lanes with per-lane env ownership over the shared
  // read-only policy. Trans-1 joins the same batched step: each drone's
  // single-read corruption rides a per-lane weight view, so striking and
  // clean drones share one forward without any clone-and-restore.
  BatchedCampaignSpec spec;
  spec.episodes = episodes_per_drone;
  spec.agents = cfg_.n_drones;
  spec.max_steps = cfg_.env.max_steps;
  spec.seed = seed;
  spec.rng_salt = 0xE7A2;
  spec.threads = threads;
  // Same plane rule as the gridworld system: scenario.mode governs both
  // Trans-1 (inside the runner) and static-fault campaigns (clean trials
  // over the corrupted policy's fresh int8 deployment).
  spec.mode = scenario.mode;
  spec.int8_headroom = scenario.int8_headroom;
  if (trans1) spec.trans1 = &scenario;
  const std::vector<double> distances = run_batched_inference_campaign(
      policy, spec,
      [this](std::size_t i) {
        return std::make_unique<DroneNavEnv>(seed_ ^ (0xD60E'0000ULL + i),
                                             cfg_.env, DroneCamera::Options{});
      },
      [](std::size_t, const Environment& env, const EpisodeStats&) {
        return static_cast<const DroneNavEnv&>(env).flight_distance();
      });
  double total = 0.0;
  for (const double d : distances) total += d;
  return total / static_cast<double>(distances.size());
}

DroneFrlSystem::Snapshot DroneFrlSystem::snapshot() const {
  Snapshot snap;
  snap.engine = engine_->training_state();
  for (const auto& n : nets_) snap.drone_params.push_back(n->flat_parameters());
  for (const auto& l : learners_) snap.baselines.push_back(l->baseline_state());
  return snap;
}

void DroneFrlSystem::restore(const Snapshot& snap) {
  FRLFI_CHECK_MSG(snap.drone_params.size() == nets_.size(),
                  "snapshot drone count mismatch");
  for (std::size_t i = 0; i < nets_.size(); ++i)
    nets_[i]->set_flat_parameters(snap.drone_params[i]);
  FRLFI_CHECK(snap.baselines.size() == learners_.size());
  for (std::size_t i = 0; i < learners_.size(); ++i)
    learners_[i]->set_baseline_state(snap.baselines[i]);
  engine_->restore_training_state(snap.engine);
}

Network& DroneFrlSystem::drone_network(std::size_t drone) {
  FRLFI_CHECK(drone < nets_.size());
  return *nets_[drone];
}

DroneNavEnv& DroneFrlSystem::drone_env(std::size_t drone) {
  FRLFI_CHECK(drone < envs_.size());
  return *envs_[drone];
}

}  // namespace frlfi
