#include "frl/evaluation.hpp"

#include <algorithm>
#include <optional>

#include "core/error.hpp"

namespace frlfi {

namespace {

/// The greedy episode loop shared by the serial evaluators: `act(obs, t)`
/// picks the action at step t (it may draw from `rng` first, as a Trans-1
/// strike does).
template <typename Act>
EpisodeStats run_greedy(Environment& env, Rng& rng, std::size_t max_steps,
                        Act&& act) {
  FRLFI_CHECK(max_steps >= 1);
  EpisodeStats stats;
  Tensor obs = env.reset(rng);
  for (std::size_t t = 0; t < max_steps; ++t) {
    const std::size_t action = act(obs, t);
    StepResult r = env.step(action, rng);
    stats.total_reward += r.reward;
    ++stats.steps;
    if (r.done) {
      stats.success = r.success;
      return stats;
    }
    obs = std::move(r.observation);
  }
  stats.success = false;
  return stats;
}

/// One observation as a width-1 batch for the inference forwards.
Tensor as_batch(const Tensor& obs) {
  std::vector<std::size_t> shape{1};
  shape.insert(shape.end(), obs.shape().begin(), obs.shape().end());
  return obs.reshaped(std::move(shape));
}

}  // namespace

EpisodeStats greedy_episode(Network& policy, Environment& env, Rng& rng,
                            std::size_t max_steps, const WeightView* view) {
  return run_greedy(env, rng, max_steps, [&](const Tensor& obs, std::size_t) {
    if (view == nullptr) return policy.forward(obs).argmax();
    return policy
        .forward_batch(as_batch(obs), 1, nullptr,
                       std::span<const WeightView* const>(&view, 1))
        .argmax();
  });
}

namespace {

/// Trans-1 strike plan for the lockstep runner: each lane's fault step
/// plus the shared deployed image its overlay is computed against.
struct Trans1Strikes {
  const DeployedWeights& deployed;
  const InferenceFaultScenario& scenario;
  std::vector<std::size_t> fault_step;  // per lane
  // Detector precomputation (null without a detector): the base's
  // out-of-range indices, scanned once per campaign so each strike
  // screens in O(overlay entries).
  const std::vector<std::size_t>* base_hits = nullptr;
};

/// Per-step strike state: each striking row's overlay, the view over it,
/// and the per-row view pointers (null for a clean row). Overlays and
/// views are sized before any pointer into them is taken, so a striking
/// row's view stays valid for the whole forward; the strike clears each
/// reused overlay before recording into it.
struct LaneStrikes {
  std::vector<WeightOverlay> overlays;
  std::vector<WeightView> views;
  std::vector<const WeightView*> lane_views;

  /// Strike `rows` of an `nb`-row batch in ascending order through
  /// `strike(row, overlay) -> view`; no rows yields no lane views.
  template <typename Strike>
  std::span<const WeightView* const> apply(const std::vector<std::size_t>& rows,
                                     std::size_t nb, Strike&& strike) {
    if (rows.empty()) return {};
    overlays.resize(rows.size());
    views.resize(rows.size());
    lane_views.assign(nb, nullptr);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      views[k] = strike(rows[k], overlays[k]);
      lane_views[rows[k]] = &views[k];
    }
    return lane_views;
  }
};

/// The single lockstep lane runner behind greedy_episodes_batched and
/// greedy_episodes_trans1_batched: one greedy episode per lane over
/// independent environments, all still-active lanes batched into one
/// forward per decision step. With a non-null `strikes`, lane i's weights
/// are corrupted for the single read at strikes->fault_step[i] via a
/// per-lane weight view (drawn from rngs[i] at that step, exactly where
/// the serial Trans-1 path consumes it). Keeping both paths on this one
/// loop is what keeps their lockstep machinery — batch-buffer reuse,
/// argmax rule, lane retirement — bit-aligned forever.
std::vector<EpisodeStats> lockstep_episodes(
    Network& policy, const std::vector<Environment*>& envs,
    std::vector<Rng>& rngs, std::size_t max_steps,
    const Trans1Strikes* strikes) {
  const std::size_t lanes = envs.size();
  FRLFI_CHECK_MSG(lanes >= 1 && rngs.size() == lanes && max_steps >= 1,
                  "batched greedy: " << lanes << " envs, " << rngs.size()
                                     << " rngs");
  std::vector<EpisodeStats> stats(lanes);
  std::vector<Tensor> obs(lanes);
  std::vector<std::size_t> active;
  active.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    obs[i] = envs[i]->reset(rngs[i]);
    FRLFI_CHECK_MSG(obs[i].shape() == obs[0].shape(),
                    "batched greedy: lanes disagree on observation shape");
    active.push_back(i);
  }
  const std::size_t sample = obs[0].size();
  Tensor batch;
  std::vector<std::size_t> strike_rows;
  LaneStrikes lane_strikes;
  const auto strike = [&](std::size_t a, WeightOverlay& overlay) {
    trans1_strike_overlay(strikes->deployed, strikes->scenario,
                          rngs[active[a]], overlay, strikes->base_hits);
    return strikes->deployed.view(&overlay);
  };
  for (std::size_t t = 0; t < max_steps && !active.empty(); ++t) {
    const std::size_t nb = active.size();
    // The lane count only shrinks as episodes finish, so most steps reuse
    // the previous step's batch buffer unchanged.
    if (batch.empty() || batch.dim(0) != nb) {
      std::vector<std::size_t> bshape{nb};
      bshape.insert(bshape.end(), obs[active[0]].shape().begin(),
                    obs[active[0]].shape().end());
      batch = Tensor(std::move(bshape));
    }
    strike_rows.clear();
    for (std::size_t a = 0; a < nb; ++a) {
      std::copy_n(obs[active[a]].data().begin(), sample,
                  batch.data().begin() + static_cast<std::ptrdiff_t>(a * sample));
      if (strikes != nullptr && strikes->fault_step[active[a]] == t)
        strike_rows.push_back(a);
    }
    // Each striking lane draws its own corruption from its own stream
    // (exactly what the serial path consumes at this step) and rides a
    // private view; the other lanes share the clean forward.
    const Tensor logits = policy.forward_batch(
        batch, nb, nullptr, lane_strikes.apply(strike_rows, nb, strike));
    const std::size_t width = logits.size() / nb;
    std::vector<std::size_t> still_active;
    still_active.reserve(nb);
    for (std::size_t a = 0; a < nb; ++a) {
      const std::size_t i = active[a];
      // Shared row argmax: the single action-selection rule (ties and NaN
      // -> lowest index), exactly Tensor::argmax, so a fault-corrupted
      // policy's NaN/Inf logits pick the same action as the serial path.
      const std::size_t action =
          argmax_row(logits.data().data() + a * width, width);
      StepResult r = envs[i]->step(action, rngs[i]);
      stats[i].total_reward += r.reward;
      ++stats[i].steps;
      if (r.done) {
        stats[i].success = r.success;
      } else {
        obs[i] = std::move(r.observation);
        still_active.push_back(i);
      }
    }
    active = std::move(still_active);
  }
  return stats;
}

}  // namespace

std::vector<EpisodeStats> greedy_episodes_batched(
    Network& policy, const std::vector<Environment*>& envs,
    std::vector<Rng>& rngs, std::size_t max_steps) {
  return lockstep_episodes(policy, envs, rngs, max_steps, nullptr);
}

namespace {

/// Quantization-range headroom of the int8 deployment view: online-fine-
/// tuned deployments keep a fixed scale with room for weight growth, so a
/// high-bit flip can reach headroom * max|w|. Headroom 2 reproduces the
/// paper's Fig. 4 degradation slope and Fig. 8a 3.3x mitigation factor.
constexpr float kInt8Headroom = 2.0f;

/// Corrupt a policy's weights per the scenario's deployment representation.
InjectionReport corrupt_policy(Network& policy,
                               const InferenceFaultScenario& scenario,
                               Rng& rng) {
  if (scenario.use_int8) {
    std::vector<float> flat = policy.flat_parameters();
    const InjectionReport report =
        inject_int8(flat, scenario.spec, rng, kInt8Headroom);
    policy.set_flat_parameters(flat);
    return report;
  }
  std::vector<float> flat = policy.flat_parameters();
  const InjectionReport report =
      inject_fixed_point(flat, scenario.fixed_format, scenario.spec, rng);
  policy.set_flat_parameters(flat);
  return report;
}

}  // namespace

DeployedWeights make_deployed_weights(const Network& policy,
                                      const InferenceFaultScenario& scenario) {
  const std::vector<float> flat = policy.flat_parameters();
  if (scenario.use_int8)
    return DeployedWeights::int8_image(flat, kInt8Headroom);
  return DeployedWeights::fixed_point_image(flat, scenario.fixed_format);
}

InjectionReport trans1_strike_overlay(
    const DeployedWeights& deployed, const InferenceFaultScenario& scenario,
    Rng& rng, WeightOverlay& out,
    const std::vector<std::size_t>* base_hits) {
  const InjectionReport report = deployed.inject(scenario.spec, rng, out);
  if (scenario.detector != nullptr)
    scenario.detector->scan_and_suppress(
        std::span<const float>(deployed.base()), out, base_hits);
  return report;
}

std::vector<EpisodeStats> greedy_episodes_trans1_batched(
    Network& policy, const DeployedWeights& deployed,
    const InferenceFaultScenario& scenario,
    const std::vector<Environment*>& envs, std::vector<Rng>& rngs,
    std::size_t max_steps, const std::vector<std::size_t>* base_hits) {
  const std::size_t lanes = envs.size();
  FRLFI_CHECK_MSG(lanes >= 1 && rngs.size() == lanes && max_steps >= 1,
                  "batched trans1: " << lanes << " envs, " << rngs.size()
                                     << " rngs");
  Trans1Strikes strikes{deployed, scenario, {}, nullptr};
  strikes.fault_step.reserve(lanes);
  // Per-lane stream order matches the serial runner exactly: the
  // fault-step draw precedes the environment reset (which the shared
  // lockstep core performs next).
  for (std::size_t i = 0; i < lanes; ++i)
    strikes.fault_step.push_back(
        static_cast<std::size_t>(rngs[i].uniform_index(max_steps)));
  std::vector<std::size_t> local_hits;
  if (scenario.detector != nullptr) {
    if (base_hits == nullptr) {
      local_hits = scenario.detector->base_out_of_range(
          std::span<const float>(deployed.base()));
      base_hits = &local_hits;
    }
    strikes.base_hits = base_hits;
  }
  // The scenario's detector screens the strike overlays (weight scan,
  // inside trans1_strike_overlay).
  return lockstep_episodes(policy, envs, rngs, max_steps, &strikes);
}

EpisodeStats greedy_episode_trans1(Network& policy, Environment& env, Rng& rng,
                                   std::size_t max_steps,
                                   const InferenceFaultScenario& scenario) {
  FRLFI_CHECK(max_steps >= 1);
  // The faulty read strikes at one uniformly chosen step of the episode.
  // Episodes that terminate before that step simply never experience it —
  // matching a fault arriving at a random wall-clock time.
  const std::size_t fault_step =
      static_cast<std::size_t>(rng.uniform_index(max_steps));

  return run_greedy(env, rng, max_steps, [&](const Tensor& obs, std::size_t t) {
    if (t != fault_step) return policy.forward(obs).argmax();
    WeightRestoreGuard guard(policy);  // restores after the single read
    corrupt_policy(policy, scenario, rng);
    if (scenario.detector) scenario.detector->scan_and_suppress(policy);
    return policy.forward(obs).argmax();
  });
}

InjectionReport apply_static_inference_fault(
    Network& policy, const InferenceFaultScenario& scenario, Rng& rng) {
  const InjectionReport report = corrupt_policy(policy, scenario, rng);
  if (scenario.detector) scenario.detector->scan_and_suppress(policy);
  return report;
}

std::vector<double> run_batched_inference_campaign(
    const Network& policy, const BatchedCampaignSpec& spec,
    const std::function<std::unique_ptr<Environment>(std::size_t)>& make_env,
    const std::function<double(std::size_t, const Environment&,
                               const EpisodeStats&)>& metric) {
  FRLFI_CHECK_MSG(spec.episodes >= 1 && spec.agents >= 1 && spec.max_steps >= 1,
                  "batched campaign: " << spec.episodes << " episodes, "
                                       << spec.agents << " agents");
  FRLFI_CHECK(static_cast<bool>(make_env) && static_cast<bool>(metric));
  const Rng base(spec.seed);

  // Nothing in the batched runners mutates parameters — Trans-1
  // corruption rides per-lane weight views over one shared deployed image
  // — so every lane reads a single working copy of the policy.
  Network shared_policy = policy.clone();
  std::optional<DeployedWeights> deployed;
  std::vector<std::size_t> base_hits;
  if (spec.trans1 != nullptr) {
    deployed.emplace(make_deployed_weights(policy, *spec.trans1));
    // Detector precomputation, once per campaign: the deployed base and
    // its out-of-range set are fixed across all lanes.
    if (spec.trans1->detector != nullptr)
      base_hits = spec.trans1->detector->base_out_of_range(
          std::span<const float>(deployed->base()));
  }
  // Every (trial, agent) lane runs in one lockstep: lanes that finish
  // early leave the batch while the rest stay wide, instead of each trial
  // walking its slowest agent alone. Lane t * agents + a gets its own
  // environment and the stream its trial would have used.
  const std::size_t lanes = spec.episodes * spec.agents;
  std::vector<std::unique_ptr<Environment>> owned_envs;
  std::vector<Environment*> envs;
  std::vector<Rng> rngs;
  owned_envs.reserve(lanes);
  envs.reserve(lanes);
  rngs.reserve(lanes);
  for (std::size_t t = 0; t < spec.episodes; ++t) {
    for (std::size_t a = 0; a < spec.agents; ++a) {
      owned_envs.push_back(make_env(a));
      FRLFI_CHECK_MSG(owned_envs.back() != nullptr, "make_env returned null");
      envs.push_back(owned_envs.back().get());
      rngs.push_back(base.derive_stream({spec.rng_salt + a, t}));
    }
  }
  const std::vector<EpisodeStats> stats =
      spec.trans1 != nullptr
          ? greedy_episodes_trans1_batched(shared_policy, *deployed,
                                           *spec.trans1, envs, rngs,
                                           spec.max_steps, &base_hits)
          : greedy_episodes_batched(shared_policy, envs, rngs, spec.max_steps);
  std::vector<double> metrics(lanes);
  for (std::size_t i = 0; i < lanes; ++i)
    metrics[i] = metric(i % spec.agents, *envs[i], stats[i]);
  return metrics;
}

}  // namespace frlfi
