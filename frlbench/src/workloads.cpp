#include "workloads.hpp"

#include <algorithm>

#include "core/rng.hpp"
#include "envs/gridworld.hpp"
#include "fault/injector.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"
#include "frl/policies.hpp"
#include "rl/schedule.hpp"

namespace frlbench {

using frlfi::DroneFrlSystem;
using frlfi::GridWorldFrlSystem;
using frlfi::Network;
using frlfi::Rng;

namespace {

// ------------------------------------------------------------ parameters ----
// Only paper-level knobs are set (agents, comm interval, BER, fault plan,
// mitigation); every implementation knob (threads, server_threads, pools)
// stays at its default, so the benchmark runs serially.

/// Fixed evaluation seed of task_score (independent of the benchmark seed).
constexpr std::uint64_t kEvalSeed = 0xB3AC4;

constexpr std::size_t kDroneEpisodesPerOp = 2;  // one round at interval 2
constexpr std::size_t kDroneEvalEpisodes = 3;
constexpr std::size_t kGridPrefixEpisodes = 300;
constexpr std::size_t kGridEpisodesPerOp = 10;
constexpr std::size_t kGridEvalAttempts = 10;
constexpr std::size_t kInferTrainEpisodes = 500;
constexpr std::size_t kInferAttemptsPerOp = 10;
constexpr std::size_t kInferEvalAttempts = 40;

const std::vector<WorkloadInfo> kWorkloads = {
    {"drone_train", 7.4,
     "fixed fleet; 4 drones, comm interval 2, clean links; server Trans-M "
     "BER 1e-3 in a seed-picked one of each system's last four timed rounds; "
     "op = train(2)", /*channel_noise=*/false},
    {"grid_train", 28.0,
     "seed-drawn systems; 12 agents, comm interval 1, channel BER 1e-4; "
     "agent-0 Trans-M BER 5e-3 at episode 300 (first timed episode); "
     "mitigation p=25 k=50; set-up trains 300 clean episodes; "
     "op = train(10)", /*channel_noise=*/true},
    {"infer_campaign", 135.0,
     "fixed fleet; 12 agents trained 500 episodes; op = one Trans-1 int8 "
     "campaign at BER 1e-2, 10 attempts x 12 agents on seed-derived streams, "
     "range detector margin 0.10", /*channel_noise=*/false},
};

/// Upper end of a drone's safe flight distance: the task length plus the
/// overshoot of one step at top speed.
const double kDroneMaxDistance = [] {
  const frlfi::DroneNavEnv::Options env = DroneFrlSystem::Config{}.env;
  return env.max_distance + env.max_speed * env.dt;
}();

/// Drone task_score: safe flight distance after the timed phase as % of
/// the same systems' distance before it, on the same evaluation worlds.
/// The absolute distance is set by the seed's offline pretraining, which is
/// bimodal (see README.md); the retained share is what the fault-injected
/// rounds of the workload act on.
double retained_percent(double before, double after) {
  return before > 0.0 ? 100.0 * after / before : 0.0;
}

bool in_percent_range(const std::vector<double>& scores) {
  for (const double s : scores)
    if (!(s >= 0.0 && s <= 100.0)) return false;
  return !scores.empty();
}

/// Construction seed of system k of a grid_train run: drawn from the
/// benchmark seed.
std::uint64_t system_seed(std::uint64_t seed, std::size_t k) {
  return Rng::mix_tags(seed, {0x5E75, k});
}

/// Construction seed of system k of drone_train and infer_campaign: a fixed
/// fleet, the same for every benchmark seed. How well a trained policy
/// flies or navigates sets how long its episodes run; across training
/// seeds that moved a run's cost by up to 4x (infer_campaign) and 20 %
/// (drone_train, whose offline pretraining is bimodal), which would
/// measure the seed, not the code. The benchmark seed drives what the
/// workload feeds this fleet instead: the fault realization and the
/// campaign streams.
std::uint64_t fleet_seed(std::size_t k) { return Rng::mix_tags(0xF1EE7, {k}); }

/// Per-benchmark-seed draw in [0, n).
std::size_t seed_pick(std::uint64_t seed, std::size_t n) {
  return static_cast<std::size_t>(Rng::mix_tags(seed, {0xFA}) % n);
}

void append(std::vector<double>& out, const std::vector<float>& v) {
  out.insert(out.end(), v.begin(), v.end());
}

DroneFrlSystem::Config drone_config() { return DroneFrlSystem::Config{}; }

/// Server Trans-M fault armed in one of the last four timed rounds of a
/// system that runs `ops` ops. Late, so that the rounds before it are the
/// same work for every seed: a damaged policy crashes sooner, and a fault
/// in the first round moved the whole run's cost by 10 %.
frlfi::TrainingFaultPlan drone_fault(std::uint64_t seed, std::size_t ops) {
  frlfi::TrainingFaultPlan plan;
  plan.active = true;
  plan.spec.model = frlfi::FaultModel::TransientPersistent;
  plan.spec.site = frlfi::FaultSite::ServerFault;
  plan.spec.ber = 1e-3;
  const std::size_t last = ops > 0 ? ops - 1 : 0;
  plan.spec.episode = kDroneEpisodesPerOp * (last - std::min(seed_pick(seed, 4), last));
  return plan;
}

GridWorldFrlSystem::Config grid_config() {
  GridWorldFrlSystem::Config cfg;
  cfg.channel_ber = 1e-4;
  return cfg;
}

/// Agent-0 Trans-M fault at the first timed episode.
frlfi::TrainingFaultPlan grid_fault() {
  frlfi::TrainingFaultPlan plan;
  plan.active = true;
  plan.spec.model = frlfi::FaultModel::TransientPersistent;
  plan.spec.site = frlfi::FaultSite::AgentFault;
  plan.spec.ber = 5e-3;
  plan.spec.episode = kGridPrefixEpisodes;
  plan.spec.agent_index = 0;
  return plan;
}

frlfi::MitigationPlan grid_mitigation() {
  frlfi::MitigationPlan plan;
  plan.enabled = true;
  plan.detector.drop_percent = 25.0;
  plan.detector.consecutive_episodes = 50;
  return plan;
}

frlfi::InferenceFaultScenario infer_scenario(
    const frlfi::RangeAnomalyDetector& detector) {
  frlfi::InferenceFaultScenario scenario;
  scenario.spec.model = frlfi::FaultModel::TransientSingleStep;
  scenario.spec.ber = 1e-2;
  scenario.use_int8 = true;
  scenario.detector = &detector;
  return scenario;
}

LayerCounters engine_counters(const frlfi::FederatedRoundEngine& engine) {
  LayerCounters c;
  c.rounds = static_cast<double>(engine.round());
  if (const frlfi::ParameterServer* server = engine.server()) {
    c.channel_bytes = static_cast<double>(server->channel().bytes_sent());
    c.channel_messages = static_cast<double>(server->channel().messages_sent());
    c.channel_bits_corrupted =
        static_cast<double>(server->channel().bits_corrupted());
  }
  const frlfi::MitigationStats& m = engine.mitigation_stats();
  c.checkpoints = static_cast<double>(m.checkpoints_taken);
  c.recoveries =
      static_cast<double>(m.agent_recoveries + m.server_recoveries);
  return c;
}

LayerCounters minus(const LayerCounters& a, const LayerCounters& b) {
  return {a.rounds - b.rounds,
          a.channel_bytes - b.channel_bytes,
          a.channel_messages - b.channel_messages,
          a.channel_bits_corrupted - b.channel_bits_corrupted,
          a.checkpoints - b.checkpoints,
          a.recoveries - b.recoveries};
}

LayerCounters plus(const LayerCounters& a, const LayerCounters& b) {
  return {a.rounds + b.rounds,
          a.channel_bytes + b.channel_bytes,
          a.channel_messages + b.channel_messages,
          a.channel_bits_corrupted + b.channel_bits_corrupted,
          a.checkpoints + b.checkpoints,
          a.recoveries + b.recoveries};
}

void count_injection(Tracer& tracer, const frlfi::InjectionReport& report) {
  if (!tracer.enabled()) return;
  ++tracer.strikes;
  tracer.bits_flipped += report.bits_flipped;
  tracer.bits_scanned += report.bits_total;
}

// ---------------------------------------------------------- drone_train ----

class DronePlain final : public Workload {
 public:
  explicit DronePlain(const RunInput& in) : in_(in) {}

  void setup(std::size_t k) override {
    systems_.push_back(
        std::make_unique<DroneFrlSystem>(drone_config(), fleet_seed(k)));
    systems_.back()->set_fault_plan(drone_fault(in_.seed, in_.ops_of(k)));
  }
  void begin_timed() override {
    for (const auto& sys : systems_)
      before_.push_back(sys->evaluate_flight_distance(kDroneEvalEpisodes, kEvalSeed));
  }
  bool op(std::size_t k, std::size_t) override {
    DroneFrlSystem& sys = *systems_[k];
    const std::size_t episode = sys.episode();
    const std::size_t rounds = sys.communication_rounds();
    sys.train(kDroneEpisodesPerOp);
    return sys.episode() == episode + kDroneEpisodesPerOp &&
           sys.communication_rounds() == rounds + 1;
  }
  double score(std::size_t k) override {
    after_.push_back(
        systems_[k]->evaluate_flight_distance(kDroneEvalEpisodes, kEvalSeed));
    return retained_percent(before_[k], after_.back());
  }
  std::vector<double> fingerprint(std::size_t k) override {
    std::vector<double> out;
    for (std::size_t i = 0; i < drone_config().n_drones; ++i)
      append(out, systems_[k]->drone_network(i).flat_parameters());
    return out;
  }
  void check(std::vector<Check>& out) override {
    bool ok = after_.size() == before_.size();
    for (std::size_t k = 0; k < before_.size() && ok; ++k)
      ok = before_[k] > 0.0 && before_[k] <= kDroneMaxDistance &&
           after_[k] >= 0.0 && after_[k] <= kDroneMaxDistance;
    out.push_back({"flight distances in (0, max_distance + one step]", ok});
  }

 private:
  RunInput in_;
  std::vector<std::unique_ptr<DroneFrlSystem>> systems_;
  std::vector<double> before_, after_;  // mean safe flight distance [m]
};

/// DroneFrlSystem rebuilt from public parts (see frl/drone_system.cpp):
/// the same environments, pretrained policy, learners and round engine,
/// with spans around every agent hook, environment call and layer. The
/// engine's server-fault hook is replaced by an identical benchmark-owned
/// one so the injected flips can be counted.
class DroneTraced final : public Workload {
 public:
  DroneTraced(const RunInput& in, Tracer& tracer) : in_(in), tracer_(tracer) {}

  void setup(std::size_t k) override {
    systems_.push_back(std::make_unique<System>(
        fleet_seed(k), drone_fault(in_.seed, in_.ops_of(k)).spec, tracer_));
  }
  void begin_timed() override {
    for (const auto& s : systems_) {
      start_ = plus(start_, engine_counters(*s->engine));
      before_.push_back(flight_distance(*s));
    }
  }
  bool op(std::size_t k, std::size_t) override {
    System& sys = *systems_[k];
    const std::size_t episode = sys.engine->episode();
    const std::size_t rounds = sys.engine->round();
    {
      const Span span(tracer_, Site::kFederatedRound);
      sys.engine->train(kDroneEpisodesPerOp);
    }
    return sys.engine->episode() == episode + kDroneEpisodesPerOp &&
           sys.engine->round() == rounds + 1;
  }
  double score(std::size_t k) override {
    return retained_percent(before_[k], flight_distance(*systems_[k]));
  }
  std::vector<double> fingerprint(std::size_t k) override {
    std::vector<double> out;
    for (const auto& net : systems_[k]->nets) append(out, net->flat_parameters());
    return out;
  }
  LayerCounters counters() override {
    LayerCounters now;
    for (const auto& s : systems_) now = plus(now, engine_counters(*s->engine));
    return minus(now, start_);
  }

 private:
  struct System {
    System(std::uint64_t seed, const frlfi::FaultSpec& fault, Tracer& tracer) {
      const DroneFrlSystem::Config cfg = drone_config();
      const std::vector<float>& pretrained =
          DroneFrlSystem::pretrained_parameters(cfg, seed);
      Rng init_rng = Rng(seed).split(0x1718);
      for (std::size_t i = 0; i < cfg.n_drones; ++i) {
        envs.push_back(std::make_unique<TracedEnv>(
            std::make_unique<frlfi::DroneNavEnv>(seed ^ (0xD60E'0000ULL + i),
                                                 cfg.env,
                                                 frlfi::DroneCamera::Options{}),
            tracer, Site::kDronesimStep, Site::kDronesimReset));
        Rng net_rng = init_rng.split(i);
        nets.push_back(std::make_unique<Network>(
            traced_network(frlfi::make_drone_policy(net_rng), tracer)));
        nets.back()->set_flat_parameters(pretrained);
        learners.push_back(
            std::make_unique<frlfi::ReinforceTrainer>(*nets.back(), cfg.learner));
      }
      frlfi::FederatedRoundEngine::Config ecfg;
      ecfg.n_agents = cfg.n_drones;
      ecfg.parameter_dim = nets[0]->parameter_count();
      ecfg.comm_interval = cfg.comm_interval;
      ecfg.boost_after_episode = cfg.boost_after_episode;
      ecfg.comm_interval_boost = cfg.comm_interval_boost;
      ecfg.alpha0 = cfg.alpha0;
      ecfg.alpha_tau = cfg.alpha_tau;
      ecfg.channel_ber = cfg.channel_ber;
      ecfg.bursty_channel = cfg.channel_bursty;
      const std::uint64_t stream_tag = 0xD201E;
      engine = std::make_unique<frlfi::FederatedRoundEngine>(
          ecfg, seed, stream_tag,
          frlfi::FederatedRoundEngine::Hooks{
              [this, &tracer](std::size_t i, std::size_t, Rng& rng) {
                const Span span(tracer, Site::kRlLearn);
                return learners[i]
                    ->run_episode(*envs[i], rng, /*learn=*/true)
                    .total_reward;
              },
              [this](std::size_t i, std::span<float> out) {
                nets[i]->copy_flat_parameters(out);
              },
              [this](std::size_t i, std::span<const float> params) {
                nets[i]->set_flat_parameters(params);
              },
              [this](std::size_t victim, const frlfi::FaultSpec& spec,
                     Rng& rng) {
                frlfi::inject_network_weights(*nets[victim], spec, rng);
              },
              /*on_round=*/nullptr});
      // The server fault as FederatedRoundEngine arms it: pending from the
      // fault episode, it corrupts the aggregate rows of the next round on
      // the training stream's 0xFA017 + episode child.
      const Rng train_rng = Rng(seed).split(stream_tag);
      engine->server()->set_post_aggregate_rows_hook(
          [this, fault, train_rng, &tracer](std::size_t, std::span<float> rows,
                                            std::size_t dim) {
            if (fault_fired || engine->episode() < fault.episode) return;
            fault_fired = true;
            const Span span(tracer, Site::kFaultInject);
            Rng fault_rng = train_rng.split(0xFA017 + engine->episode());
            for (std::size_t i = 0; i < rows.size() / dim; ++i)
              count_injection(tracer, frlfi::inject_int8(rows.subspan(i * dim, dim),
                                                         fault, fault_rng));
          });
    }
    System(const System&) = delete;
    System& operator=(const System&) = delete;

    std::vector<std::unique_ptr<TracedEnv>> envs;
    std::vector<std::unique_ptr<Network>> nets;
    std::vector<std::unique_ptr<frlfi::ReinforceTrainer>> learners;
    std::unique_ptr<frlfi::FederatedRoundEngine> engine;
    bool fault_fired = false;
  };

  /// DroneFrlSystem::evaluate_flight_distance.
  static double flight_distance(System& sys) {
    const DroneFrlSystem::Config cfg = drone_config();
    double total = 0.0;
    for (std::size_t i = 0; i < cfg.n_drones; ++i) {
      Rng eval_rng = Rng(kEvalSeed).split(0xE7A2 + i);
      auto& env = static_cast<frlfi::DroneNavEnv&>(sys.envs[i]->inner());
      for (std::size_t e = 0; e < kDroneEvalEpisodes; ++e) {
        frlfi::greedy_episode(*sys.nets[i], env, eval_rng, cfg.env.max_steps);
        total += env.flight_distance();
      }
    }
    return total / static_cast<double>(cfg.n_drones * kDroneEvalEpisodes);
  }

  RunInput in_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<System>> systems_;
  LayerCounters start_;
  std::vector<double> before_;
};

// ----------------------------------------------------------- grid_train ----

class GridPlain final : public Workload {
 public:
  explicit GridPlain(const RunInput& in) : in_(in) {}

  void setup(std::size_t k) override {
    auto sys = std::make_unique<GridWorldFrlSystem>(grid_config(),
                                                    system_seed(in_.seed, k));
    sys->set_fault_plan(grid_fault());
    sys->set_mitigation(grid_mitigation());
    sys->train(kGridPrefixEpisodes);
    systems_.push_back(std::move(sys));
  }
  void begin_timed() override {
    for (const auto& s : systems_)
      corrupted_start_ += s->comm_channel()->bits_corrupted();
  }
  bool op(std::size_t k, std::size_t) override {
    GridWorldFrlSystem& sys = *systems_[k];
    const std::size_t episode = sys.episode();
    sys.train(kGridEpisodesPerOp);
    return sys.episode() == episode + kGridEpisodesPerOp;
  }
  double score(std::size_t k) override {
    scores_.push_back(
        100.0 * systems_[k]->evaluate_success_rate(kGridEvalAttempts, kEvalSeed));
    return scores_.back();
  }
  std::vector<double> fingerprint(std::size_t k) override {
    std::vector<double> out;
    for (std::size_t i = 0; i < grid_config().n_agents; ++i)
      append(out, systems_[k]->agent_network(i).flat_parameters());
    return out;
  }
  void check(std::vector<Check>& out) override {
    std::size_t corrupted = 0;
    for (const auto& s : systems_) corrupted += s->comm_channel()->bits_corrupted();
    out.push_back({"channel.bits_corrupted > 0", corrupted > corrupted_start_});
    out.push_back({"success rates in [0, 100] %", in_percent_range(scores_)});
  }

 private:
  RunInput in_;
  std::vector<std::unique_ptr<GridWorldFrlSystem>> systems_;
  std::size_t corrupted_start_ = 0;
  std::vector<double> scores_;
};

/// GridWorldFrlSystem rebuilt from public parts (see
/// frl/gridworld_system.cpp), with spans around the agent hooks, the
/// environments and every network layer.
class GridTraced final : public Workload {
 public:
  GridTraced(const RunInput& in, Tracer& tracer) : in_(in), tracer_(tracer) {}

  void setup(std::size_t k) override {
    auto sys = std::make_unique<System>(system_seed(in_.seed, k), tracer_);
    sys->engine->set_fault_plan(grid_fault());
    sys->engine->set_mitigation(grid_mitigation());
    sys->engine->train(kGridPrefixEpisodes);
    systems_.push_back(std::move(sys));
  }
  void begin_timed() override {
    for (const auto& s : systems_) start_ = plus(start_, engine_counters(*s->engine));
  }
  bool op(std::size_t k, std::size_t) override {
    System& sys = *systems_[k];
    const std::size_t episode = sys.engine->episode();
    {
      const Span span(tracer_, Site::kFederatedRound);
      sys.engine->train(kGridEpisodesPerOp);
    }
    return sys.engine->episode() == episode + kGridEpisodesPerOp;
  }
  double score(std::size_t k) override {
    // GridWorldFrlSystem::evaluate_success_rate.
    System& sys = *systems_[k];
    const GridWorldFrlSystem::Config cfg = grid_config();
    double total = 0.0;
    for (std::size_t i = 0; i < cfg.n_agents; ++i) {
      Rng eval_rng = Rng(kEvalSeed).split(0xE7A1 + i);
      std::size_t successes = 0;
      for (std::size_t a = 0; a < kGridEvalAttempts; ++a)
        successes += frlfi::greedy_episode(*sys.nets[i], sys.envs[i]->inner(),
                                           eval_rng, cfg.learner.max_steps)
                             .success
                         ? 1
                         : 0;
      total += static_cast<double>(successes) /
               static_cast<double>(kGridEvalAttempts);
    }
    return 100.0 * (total / static_cast<double>(cfg.n_agents));
  }
  std::vector<double> fingerprint(std::size_t k) override {
    std::vector<double> out;
    for (const auto& net : systems_[k]->nets) append(out, net->flat_parameters());
    return out;
  }
  LayerCounters counters() override {
    LayerCounters now;
    for (const auto& s : systems_) now = plus(now, engine_counters(*s->engine));
    return minus(now, start_);
  }

 private:
  struct System {
    System(std::uint64_t seed, Tracer& tracer) {
      const GridWorldFrlSystem::Config cfg = grid_config();
      const std::vector<frlfi::GridLayout> suite =
          frlfi::GridLayout::paper_suite();
      Rng init_rng = Rng(seed).split(0x1717);
      const Network shared_init = frlfi::make_gridworld_policy(init_rng);
      for (std::size_t i = 0; i < cfg.n_agents; ++i) {
        envs.push_back(std::make_unique<TracedEnv>(
            std::make_unique<frlfi::GridWorldEnv>(suite[i % suite.size()],
                                                  cfg.env),
            tracer, Site::kEnvsStep, Site::kEnvsReset));
        nets.push_back(
            std::make_unique<Network>(traced_network(shared_init, tracer)));
        learners.push_back(
            std::make_unique<frlfi::QLearner>(*nets.back(), cfg.learner));
      }
      frlfi::FederatedRoundEngine::Config ecfg;
      ecfg.n_agents = cfg.n_agents;
      ecfg.parameter_dim = nets[0]->parameter_count();
      ecfg.comm_interval = cfg.comm_interval;
      ecfg.alpha0 = cfg.alpha0;
      ecfg.alpha_tau = cfg.alpha_tau;
      ecfg.channel_ber = cfg.channel_ber;
      ecfg.bursty_channel = cfg.channel_bursty;
      const frlfi::EpsilonSchedule eps(cfg.eps_start, cfg.eps_end, cfg.eps_span);
      engine = std::make_unique<frlfi::FederatedRoundEngine>(
          ecfg, seed, /*stream_tag=*/0x7121A1,
          frlfi::FederatedRoundEngine::Hooks{
              [this, eps, &tracer](std::size_t i, std::size_t episode, Rng& rng) {
                const Span span(tracer, Site::kRlLearn);
                return learners[i]
                    ->run_episode(*envs[i], rng, eps.at(episode), /*learn=*/true)
                    .total_reward;
              },
              [this](std::size_t i, std::span<float> out) {
                nets[i]->copy_flat_parameters(out);
              },
              [this](std::size_t i, std::span<const float> params) {
                nets[i]->set_flat_parameters(params);
              },
              [this, &tracer](std::size_t victim, const frlfi::FaultSpec& spec,
                              Rng& rng) {
                const Span span(tracer, Site::kFaultInject);
                count_injection(tracer, frlfi::inject_network_weights(
                                            *nets[victim], spec, rng));
              },
              /*on_round=*/nullptr});
    }
    System(const System&) = delete;
    System& operator=(const System&) = delete;

    std::vector<std::unique_ptr<TracedEnv>> envs;
    std::vector<std::unique_ptr<Network>> nets;
    std::vector<std::unique_ptr<frlfi::QLearner>> learners;
    std::unique_ptr<frlfi::FederatedRoundEngine> engine;
  };

  RunInput in_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<System>> systems_;
  LayerCounters start_;
};

// ------------------------------------------------------- infer_campaign ----

std::uint64_t campaign_seed(std::uint64_t seed, std::size_t i) {
  return Rng::mix_tags(seed, {0xCA3, i});
}

class InferPlain final : public Workload {
 public:
  explicit InferPlain(const RunInput& in) : in_(in) {}

  void setup(std::size_t k) override {
    System sys;
    sys.system = std::make_unique<GridWorldFrlSystem>(
        GridWorldFrlSystem::Config{}, fleet_seed(k));
    sys.system->train(kInferTrainEpisodes);
    Network healthy = sys.system->consensus_network();
    sys.detector = std::make_unique<frlfi::RangeAnomalyDetector>(
        healthy, frlfi::RangeAnomalyDetector::Options{.margin = 0.10});
    systems.push_back(std::move(sys));
  }
  bool op(std::size_t k, std::size_t i) override {
    System& sys = systems[k];
    const double sr = sys.system->evaluate_inference_fault(
        infer_scenario(*sys.detector), kInferAttemptsPerOp,
        campaign_seed(in_.seed, i));
    sys.results.push_back(sr);
    return sr >= 0.0 && sr <= 1.0;
  }
  double score(std::size_t k) override {
    System& sys = systems[k];
    scores_.push_back(100.0 * sys.system->evaluate_inference_fault(
                                  infer_scenario(*sys.detector),
                                  kInferEvalAttempts, kEvalSeed));
    return scores_.back();
  }
  std::vector<double> fingerprint(std::size_t k) override {
    return systems[k].results;
  }
  void check(std::vector<Check>& out) override {
    out.push_back({"success rates in [0, 100] %", in_percent_range(scores_)});
  }

  /// Public: the traced build evaluates these same trained systems.
  struct System {
    std::unique_ptr<GridWorldFrlSystem> system;
    std::unique_ptr<frlfi::RangeAnomalyDetector> detector;
    std::vector<double> results;  // op outputs, in op order
  };
  std::vector<System> systems;

 private:
  RunInput in_;
  std::vector<double> scores_;
};

/// GridWorldFrlSystem::evaluate_inference_fault for a Trans-1 scenario,
/// rebuilt from public parts: the batched lockstep runner of
/// frl/evaluation.cpp with the strike split into its injection
/// (trans1_strike_overlay without the detector) and the detector screen,
/// spans around every call, and the activation hook marking per-layer
/// forward boundaries.
class InferTraced final : public Workload {
 public:
  InferTraced(const RunInput& in, Tracer& tracer, InferPlain& plain)
      : in_(in), tracer_(tracer), plain_(plain) {}

  void setup(std::size_t) override {}  // evaluates the plain build's systems
  void begin_timed() override { results_.resize(plain_.systems.size()); }
  bool op(std::size_t k, std::size_t i) override {
    const double sr =
        campaign(plain_.systems[k], kInferAttemptsPerOp, campaign_seed(in_.seed, i));
    results_[k].push_back(sr);
    return sr >= 0.0 && sr <= 1.0;
  }
  double score(std::size_t k) override {
    return 100.0 * campaign(plain_.systems[k], kInferEvalAttempts, kEvalSeed);
  }
  std::vector<double> fingerprint(std::size_t k) override { return results_[k]; }

 private:
  double campaign(InferPlain::System& sys, std::size_t attempts,
                  std::uint64_t seed) {
    const Span campaign_span(tracer_, Site::kCampaign);
    const GridWorldFrlSystem::Config& cfg = sys.system->config();
    const frlfi::InferenceFaultScenario scenario = infer_scenario(*sys.detector);
    frlfi::InferenceFaultScenario injection = scenario;
    injection.detector = nullptr;  // screened under its own span below

    Network policy = sys.system->consensus_network();
    Tracer::Clock::time_point mark;
    policy.set_activation_hook([this, &mark](std::size_t layer, frlfi::Tensor&) {
      if (!tracer_.enabled()) return;
      const Tracer::Clock::time_point now = Tracer::Clock::now();
      tracer_.add_forward_layer_ns(
          layer,
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark).count());
      mark = now;
    });
    const frlfi::DeployedWeights deployed =
        frlfi::make_deployed_weights(policy, scenario);
    const std::vector<std::size_t> base_hits =
        scenario.detector->base_out_of_range(deployed.base());

    const std::size_t agents = cfg.n_agents;
    const std::size_t max_steps = cfg.learner.max_steps;
    std::vector<std::unique_ptr<TracedEnv>> envs;
    for (std::size_t a = 0; a < agents; ++a)
      envs.push_back(std::make_unique<TracedEnv>(
          std::make_unique<frlfi::GridWorldEnv>(sys.system->agent_env(a).layout(),
                                                cfg.env),
          tracer_, Site::kEnvsStep, Site::kEnvsReset));

    const Rng base(seed);
    std::size_t successes = 0;
    std::vector<Rng> rngs(agents, Rng(0));
    std::vector<std::size_t> fault_step(agents);
    std::vector<frlfi::Tensor> obs(agents);
    std::vector<frlfi::WeightOverlay> overlays;
    std::vector<frlfi::WeightView> views;
    std::vector<const frlfi::WeightView*> lane_views;
    for (std::size_t t = 0; t < attempts; ++t) {
      std::vector<std::size_t> active;
      for (std::size_t a = 0; a < agents; ++a) {
        rngs[a] = base.derive_stream({0xE7A1 + a, t});
        fault_step[a] = static_cast<std::size_t>(rngs[a].uniform_index(max_steps));
      }
      for (std::size_t a = 0; a < agents; ++a) {
        obs[a] = envs[a]->reset(rngs[a]);
        active.push_back(a);
      }
      const std::size_t sample = obs[0].size();
      frlfi::Tensor batch;
      for (std::size_t step = 0; step < max_steps && !active.empty(); ++step) {
        const std::size_t nb = active.size();
        if (batch.empty() || batch.dim(0) != nb) {
          std::vector<std::size_t> shape{nb};
          shape.insert(shape.end(), obs[active[0]].shape().begin(),
                       obs[active[0]].shape().end());
          batch = frlfi::Tensor(std::move(shape));
        }
        std::size_t striking = 0;
        for (std::size_t a = 0; a < nb; ++a) {
          std::copy_n(obs[active[a]].data().begin(), sample,
                      batch.data().begin() + static_cast<std::ptrdiff_t>(a * sample));
          if (fault_step[active[a]] == step) ++striking;
        }
        if (striking > 0) {
          overlays.clear();
          views.clear();
          overlays.reserve(striking);
          views.reserve(striking);
          lane_views.assign(nb, nullptr);
          for (std::size_t a = 0; a < nb; ++a) {
            const std::size_t i = active[a];
            if (fault_step[i] != step) continue;
            overlays.emplace_back();
            {
              const Span span(tracer_, Site::kFaultInject);
              count_injection(tracer_, frlfi::trans1_strike_overlay(
                                           deployed, injection, rngs[i],
                                           overlays.back()));
            }
            {
              const Span span(tracer_, Site::kMitigationDetector);
              const std::size_t repaired = scenario.detector->scan_and_suppress(
                  std::span<const float>(deployed.base()), overlays.back(),
                  &base_hits);
              if (tracer_.enabled()) tracer_.suppressed += repaired;
            }
            views.push_back(deployed.view(&overlays.back()));
            lane_views[a] = &views.back();
          }
        }
        frlfi::Tensor logits;
        {
          const Span span(tracer_, Site::kNnForward);
          if (tracer_.enabled()) ++tracer_.forward_calls;
          mark = Tracer::Clock::now();
          logits = striking > 0
                       ? policy.forward_batch(batch, nb, nullptr, lane_views)
                       : policy.forward_batch(batch, nb, nullptr);
        }
        const std::size_t width = logits.size() / nb;
        std::vector<std::size_t> still_active;
        for (std::size_t a = 0; a < nb; ++a) {
          const std::size_t i = active[a];
          const std::size_t action =
              frlfi::argmax_row(logits.data().data() + a * width, width);
          frlfi::StepResult r = envs[i]->step(action, rngs[i]);
          if (r.done) {
            successes += r.success ? 1 : 0;
          } else {
            obs[i] = std::move(r.observation);
            still_active.push_back(i);
          }
        }
        active = std::move(still_active);
      }
    }
    return static_cast<double>(successes) /
           static_cast<double>(attempts * agents);
  }

  RunInput in_;
  Tracer& tracer_;
  InferPlain& plain_;
  std::vector<std::vector<double>> results_;
};

}  // namespace

const std::vector<WorkloadInfo>& all_workloads() { return kWorkloads; }

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::unique_ptr<Workload> make_plain(const WorkloadInfo& info,
                                     const RunInput& in) {
  const std::string name = info.name;
  if (name == "drone_train") return std::make_unique<DronePlain>(in);
  if (name == "grid_train") return std::make_unique<GridPlain>(in);
  return std::make_unique<InferPlain>(in);
}

std::unique_ptr<Workload> make_traced(const WorkloadInfo& info,
                                      const RunInput& in, Tracer& tracer,
                                      Workload& plain) {
  const std::string name = info.name;
  if (name == "drone_train") return std::make_unique<DroneTraced>(in, tracer);
  if (name == "grid_train") return std::make_unique<GridTraced>(in, tracer);
  return std::make_unique<InferTraced>(in, tracer,
                                       static_cast<InferPlain&>(plain));
}

}  // namespace frlbench
