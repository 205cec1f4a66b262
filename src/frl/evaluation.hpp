#pragma once

/// \file evaluation.hpp
/// Greedy-exploitation evaluation (the paper's "inference" phase) with the
/// inference-time fault modes of Fig. 4: clean, Trans-M/stuck-at (static
/// weight corruption before the run), and Trans-1 (a read-register fault
/// at one random action step).

#include <functional>
#include <memory>
#include <optional>

#include "core/parallel.hpp"
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

/// greedy_episode on the int8-native plane: every action read executes the
/// deployed int8 words through `qview` (a width-1
/// Network::forward_batch_quant) instead of the float shadow. The serial
/// golden for the batched quant runner — which reproduces it bit-for-bit
/// at every fleet size and thread count, since the quant plane has no
/// batch-width tolerance.
EpisodeStats greedy_episode_quant(Network& policy, Environment& env, Rng& rng,
                                  std::size_t max_steps,
                                  const QuantWeightView& qview);

/// Run one greedy episode per lane over independent environments in
/// lockstep, batching the observations of all still-active lanes into a
/// single Network::forward_batch per decision step. Lane i consumes
/// envs[i] and rngs[i] exactly as a serial greedy_episode(policy, *envs[i],
/// rngs[i], max_steps) would, so per-lane results match the serial loop
/// (bit-identical for MLP policies; conv policies with tiny layers may
/// diverge within the batched-GEMM ulp tolerance, which can flip an argmax
/// tie and hence a trajectory). Lanes drop out of the batch as their
/// episodes terminate. Requires all environments to share one observation
/// shape and one policy (weight faults must be injected beforehand).
///
/// A non-null `pool` shards each decision step's forward_batch across the
/// pool's lanes (Network::forward_batch's sharded path — bit-identical to
/// the unsharded call for every thread count); safe even when the caller is
/// itself a pool worker, where the nested dispatch runs inline.
///
/// A non-null `qview` moves every batched forward to the int8-native plane
/// (Network::forward_batch_quant over the deployed image): lane i then
/// matches greedy_episode_quant(policy, *envs[i], rngs[i], max_steps,
/// *qview) bit-for-bit at EVERY fleet size — per-sample activation scales
/// and exact integer accumulation leave no batched-GEMM ulp tolerance on
/// this plane, conv policies included.
std::vector<EpisodeStats> greedy_episodes_batched(
    Network& policy, const std::vector<Environment*>& envs,
    std::vector<Rng>& rngs, std::size_t max_steps, ThreadPool* pool = nullptr,
    const QuantWeightView* qview = nullptr);

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
  /// Inject through the int8-quantized view instead of fixed_format.
  bool use_int8 = false;
  /// Quantization-range headroom for the int8 view: online-fine-tuned
  /// deployments keep a fixed scale with room for weight growth, so a
  /// high-bit flip can reach headroom * max|w|. Headroom 2 reproduces the
  /// paper's Fig. 4 degradation slope and Fig. 8a 3.3x mitigation factor.
  float int8_headroom = 2.0f;
  /// Numeric plane the evaluation executes its forwards on. Float32 (the
  /// default and golden reference) runs the dequantized float shadow of
  /// the deployed image; Int8 executes the deployed int8 words natively
  /// (weights x requantized activations in int32 — see
  /// Network::forward_batch_quant) and requires `use_int8`: only an int8
  /// deployment has an int8 image to execute.
  InferenceMode mode = InferenceMode::Float32;
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

/// trans1_strike_overlay on the int8-native plane: the identical strike —
/// same rng stream, same flip sites, same detector screen — recorded as
/// corrupted int8 *words* instead of dequantized floats
/// (DeployedWeights::inject_quant + the detector's quant-overlay screen).
/// Dequantizing each entry with the image scale reproduces exactly the
/// float overlay trans1_strike_overlay yields from the same rng state;
/// requires an int8 deployment.
InjectionReport trans1_strike_overlay_quant(
    const DeployedWeights& deployed, const InferenceFaultScenario& scenario,
    Rng& rng, QuantOverlay& out,
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
/// loop under the same batch-width equivalence contract as
/// greedy_episodes_batched (bit-identical for MLP policies and for conv
/// policies at sub-wide-kernel fleet sizes). `policy` is never mutated and
/// never cloned — the deletion of the per-lane clone + restore-guard
/// machinery this runner replaces. `base_hits` (the detector's
/// base_out_of_range over deployed.base()) lets a multi-trial campaign
/// pay that scan once; when null it is computed here per call.
///
/// With scenario.mode == InferenceMode::Int8 every forward — clean steps
/// and strikes alike — executes the deployed int8 image natively: strikes
/// ride per-lane QuantWeightViews (corrupted words, never floats) through
/// Network::forward_batch_quant, and per-lane results are bit-identical
/// to the serial quant Trans-1 loop at every fleet size and thread count.
std::vector<EpisodeStats> greedy_episodes_trans1_batched(
    Network& policy, const DeployedWeights& deployed,
    const InferenceFaultScenario& scenario,
    const std::vector<Environment*>& envs, std::vector<Rng>& rngs,
    std::size_t max_steps, ThreadPool* pool = nullptr,
    const std::vector<std::size_t>* base_hits = nullptr);

/// Corrupt `policy` in place per the scenario (static injection, performed
/// before inference execution begins) and, if configured, repair it with
/// the range detector. Returns the injection report.
InjectionReport apply_static_inference_fault(Network& policy,
                                             const InferenceFaultScenario& scenario,
                                             Rng& rng);

/// A campaign of batched greedy-inference trials: `episodes` independent
/// trials, each running one greedy episode per agent with all agents'
/// decision steps batched through a single forward per step (the lockstep
/// lane runner), fanned across the `core/parallel` pool.
///
/// Trial e / agent a consumes the stream Rng(seed).derive_stream({rng_salt
/// + a, e}) — independent across trials, so trials are exchangeable and
/// the campaign is embarrassingly parallel: results are bit-identical for
/// every `threads` value (each worker lane owns a private environment set;
/// the policy is shared read-only across lanes — Trans-1 corruption rides
/// per-lane weight views; metrics are folded in trial order by the caller
/// from the returned trial-major vector).
struct BatchedCampaignSpec {
  /// Independent trials (one batched episode over all agents each).
  std::size_t episodes = 1;
  /// Lockstep lanes batched per decision step.
  std::size_t agents = 1;
  /// Per-episode step cap.
  std::size_t max_steps = 1;
  /// Base seed for the per-(agent, trial) streams.
  std::uint64_t seed = 0;
  /// Salt mixed into each agent's stream tag (keeps the per-agent streams
  /// aligned with the historical serial evaluators' split tags).
  std::uint64_t rng_salt = 0xE7A1;
  /// Campaign fan-out: 1 = serial on the calling thread; 0 = the shared
  /// global pool (FRLFI_NUM_THREADS re-resolved per call by
  /// dispatch_lanes); N = an explicit pool of N lanes. Any choice yields
  /// the same bits. Nested use from a worker of the *same* pool (0 = the
  /// shared global pool) degrades to inline; a nested explicit count
  /// spins its own pool (see parallel.hpp).
  std::size_t threads = 1;
  /// Numeric plane for *clean* trials (trans1 == nullptr): Int8 deploys
  /// the policy to an int8 image (int8_headroom below) once per campaign
  /// and runs every forward int8-natively. Trans-1 trials follow their
  /// scenario's own `mode` field instead.
  InferenceMode mode = InferenceMode::Float32;
  /// Quantization headroom for the clean-trial Int8 deployment (same
  /// meaning as InferenceFaultScenario::int8_headroom).
  float int8_headroom = 2.0f;
  /// When set, each trial runs the batched Trans-1 lockstep runner under
  /// this scenario (per-agent random-step corruption carried by per-lane
  /// weight views over one shared deployed image — the policy is never
  /// mutated) instead of the clean batched step.
  const InferenceFaultScenario* trans1 = nullptr;
};

/// Run the campaign. `make_env(a)` builds a fresh environment equivalent
/// to agent a's (each worker lane materializes its own set — environments
/// are stateful and never shared across lanes; the policy is cloned once
/// and shared read-only by every lane, nothing mutates it).
/// `metric(a, env, stats)` maps agent a's finished episode (the
/// environment still holds its terminal state) to the scalar of interest.
/// Returns episodes x agents metrics indexed [trial * agents + agent] —
/// deterministic in (spec, policy parameters) regardless of `threads`.
std::vector<double> run_batched_inference_campaign(
    const Network& policy, const BatchedCampaignSpec& spec,
    const std::function<std::unique_ptr<Environment>(std::size_t)>& make_env,
    const std::function<double(std::size_t, const Environment&,
                               const EpisodeStats&)>& metric);

}  // namespace frlfi
