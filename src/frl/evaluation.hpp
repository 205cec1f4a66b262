#pragma once

/// \file evaluation.hpp
/// Greedy-exploitation evaluation (the paper's "inference" phase) with the
/// inference-time fault modes of Fig. 4: clean, Trans-M/stuck-at (static
/// weight corruption before the run), and Trans-1 (a read-register fault
/// at one random action step). Faults strike the deployed int8 or
/// fixed-point words; every forward runs in float over the dequantized
/// words (fault/overlay.hpp).

#include <functional>
#include <memory>
#include <optional>

#include "fault/injector.hpp"
#include "mitigation/range_detector.hpp"
#include "nn/network.hpp"
#include "numeric/fixed_point.hpp"
#include "rl/env.hpp"
#include "rl/qlearner.hpp"  // EpisodeStats

namespace frlfi {

/// Run one greedy episode (argmax of the network output at every step).
/// A non-null `view` routes every forward through the fault-overlay plane
/// (a width-1 Network::forward_batch reading the view): the episode runs
/// exactly as if the policy held the view's effective weights, but nothing
/// is mutated — which is how the per-layer ablation replays many fault
/// overlays over one shared read-only snapshot instead of cloning it per
/// trial.
EpisodeStats greedy_episode(Network& policy, Environment& env, Rng& rng,
                            std::size_t max_steps,
                            const WeightView* view = nullptr);

/// Run one greedy episode per lane over independent environments in
/// lockstep, batching the observations of all still-active lanes into a
/// single Network::forward_batch per decision step. Lane i consumes
/// envs[i] and rngs[i] exactly as a serial greedy_episode(policy, *envs[i],
/// rngs[i], max_steps) would, and per-lane results match the serial loop
/// bit for bit: every in-tree layer's batched forward gives forward()'s
/// bits at every width (Layer::infer), so neither the lane count nor which
/// lanes are still active can move a logit. Lanes drop out of the batch
/// as their episodes terminate. Requires all environments to share one
/// observation shape and one policy (weight faults must be injected
/// beforehand).
std::vector<EpisodeStats> greedy_episodes_batched(
    Network& policy, const std::vector<Environment*>& envs,
    std::vector<Rng>& rngs, std::size_t max_steps);

/// Configuration for an inference fault campaign on a deployed policy.
///
/// Deployment representation: inference-time weights live in a fixed-point
/// word (default Q(1,7,8), the middle format of the paper's §IV-B.3
/// study). Bit flips in the integer/high bits of such words produce the
/// large-magnitude outliers the paper describes ("0->1 flips can
/// catastrophically destroy the NN policy") — and those outliers are
/// exactly what the §V-B range detector catches. Set `use_int8` to
/// corrupt through a saturating per-network int8 view instead (flips then
/// stay within the calibrated weight range).
struct InferenceFaultScenario {
  /// Fault description (model + BER; site is implicit: deployed weights).
  FaultSpec spec;
  /// Deployed word format for injection.
  FixedPointFormat fixed_format = FixedPointFormat::q1_7_8();
  /// Inject through the int8-quantized view (quantization headroom 2,
  /// see evaluation.cpp) instead of fixed_format.
  bool use_int8 = false;
  /// When set, run range-based anomaly detection + suppression after
  /// injection (the §V-B mitigation).
  const RangeAnomalyDetector* detector = nullptr;
};

/// Run one greedy episode with a Trans-1 fault: at one uniformly chosen
/// step the weights are corrupted (per the scenario's representation and
/// BER) for that single action read — with the range detector, when
/// configured, screening that read — then restored. This is the serial
/// clone-and-mutate reference; the batched runner below reproduces it
/// bit-for-bit through per-lane weight views without ever mutating.
EpisodeStats greedy_episode_trans1(Network& policy, Environment& env, Rng& rng,
                                   std::size_t max_steps,
                                   const InferenceFaultScenario& scenario);

/// Deployed-domain image of `policy`'s parameters under the scenario's
/// representation (int8 with headroom, or the fixed-point word): the
/// shared, read-only half of a Trans-1 strike. Compute once per campaign;
/// each strike then costs only its sparse overlay.
DeployedWeights make_deployed_weights(const Network& policy,
                                      const InferenceFaultScenario& scenario);

/// Compute one Trans-1 strike as a sparse overlay against `deployed`,
/// consuming `rng` exactly as the in-place corrupt+repair sequence in
/// greedy_episode_trans1 does — injection through the deployed words, then
/// the scenario's range detector (when configured) folding zero-repairs
/// into the overlay. deployed.base() + out is bit-identical to the weights
/// the in-place path would have executed with. `base_hits`
/// (RangeAnomalyDetector::base_out_of_range of deployed.base()) lets a
/// campaign pay the detector's full base scan once instead of per strike.
InjectionReport trans1_strike_overlay(
    const DeployedWeights& deployed, const InferenceFaultScenario& scenario,
    Rng& rng, WeightOverlay& out,
    const std::vector<std::size_t>* base_hits = nullptr);

/// Lockstep batched Trans-1: one greedy episode per lane over independent
/// environments, where lane i's weights are corrupted for the single
/// action read at one uniformly chosen step of its episode. Lane i
/// consumes rngs[i] exactly as greedy_episode_trans1(policy, *envs[i],
/// rngs[i], max_steps, scenario) would (fault-step draw, reset, strike,
/// env steps — in that order), and the strike rides a per-lane WeightView
/// through Network::forward_batch instead of mutating the policy: clean
/// lanes share the batched forward while each striking lane's rows read
/// its own corrupted weights. Per-lane results match the serial Trans-1
/// loop bit for bit at any lane count, as in greedy_episodes_batched.
/// `policy` is never mutated and
/// never cloned — the deletion of the per-lane clone + restore-guard
/// machinery this runner replaces. `base_hits` (the detector's
/// base_out_of_range over deployed.base()) lets a multi-trial campaign
/// pay that scan once; when null it is computed here per call.
std::vector<EpisodeStats> greedy_episodes_trans1_batched(
    Network& policy, const DeployedWeights& deployed,
    const InferenceFaultScenario& scenario,
    const std::vector<Environment*>& envs, std::vector<Rng>& rngs,
    std::size_t max_steps, const std::vector<std::size_t>* base_hits = nullptr);

/// Corrupt `policy` in place per the scenario (static injection, performed
/// before inference execution begins) and, if configured, repair it with
/// the range detector. Returns the injection report.
InjectionReport apply_static_inference_fault(Network& policy,
                                             const InferenceFaultScenario& scenario,
                                             Rng& rng);

/// A campaign of batched greedy-inference trials: `episodes` independent
/// trials of one greedy episode per agent, run on the calling thread as a
/// single lockstep over all episodes x agents lanes — every still-active
/// lane's decision step batched through one forward per step, so the
/// lanes that run long share their forwards across trials.
///
/// Trial e / agent a is one lane with its own environment, consuming the
/// stream Rng(seed).derive_stream({rng_salt + a, e}) — independent across
/// trials, so trials are exchangeable (the policy is shared read-only —
/// Trans-1 corruption rides per-lane weight views; metrics are folded in
/// trial order by the caller from the returned trial-major vector).
struct BatchedCampaignSpec {
  /// Independent trials (one episode per agent each).
  std::size_t episodes = 1;
  /// Agents per trial; the lockstep runs episodes x agents lanes.
  std::size_t agents = 1;
  /// Per-episode step cap.
  std::size_t max_steps = 1;
  /// Base seed for the per-(agent, trial) streams.
  std::uint64_t seed = 0;
  /// Salt mixed into each agent's stream tag (keeps the per-agent streams
  /// aligned with the historical serial evaluators' split tags).
  std::uint64_t rng_salt = 0xE7A1;
  /// When set, the lanes run the batched Trans-1 lockstep runner under
  /// this scenario (per-lane random-step corruption carried by per-lane
  /// weight views over one shared deployed image — the policy is never
  /// mutated) instead of the clean batched step.
  const InferenceFaultScenario* trans1 = nullptr;
};

/// Run the campaign. `make_env(a)` builds a fresh environment equivalent
/// to agent a's; it is called once per lane, episodes x agents times, in
/// trial-major order (the policy is cloned once and nothing mutates it).
/// `metric(a, env, stats)` maps a lane of agent a's finished episode (its
/// own environment still holds the terminal state) to the scalar of
/// interest; it runs once per lane, in lane order. Returns episodes x agents metrics indexed [trial * agents +
/// agent] — deterministic in (spec, policy parameters), and equal to
/// serial greedy episodes on the same streams.
std::vector<double> run_batched_inference_campaign(
    const Network& policy, const BatchedCampaignSpec& spec,
    const std::function<std::unique_ptr<Environment>(std::size_t)>& make_env,
    const std::function<double(std::size_t, const Environment&,
                               const EpisodeStats&)>& metric);

}  // namespace frlfi
