#include "frl/drone_system.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/error.hpp"

namespace frlfi {
namespace {

/// Reduced offline phase so the whole suite stays fast; the same cached
/// pretraining is shared by every test using this config + seed.
DroneFrlSystem::Config test_config(std::size_t n_drones = 2) {
  DroneFrlSystem::Config cfg;
  cfg.n_drones = n_drones;
  cfg.imitation_episodes = 60;
  return cfg;
}

constexpr std::uint64_t kSeed = 21;

TEST(DroneFrl, PretrainedPolicyFliesReasonably) {
  DroneFrlSystem sys(test_config(), kSeed);
  EXPECT_GT(sys.evaluate_flight_distance(4, 99), 200.0);
}

TEST(DroneFrl, PretrainingIsCachedAcrossInstances) {
  const auto& a = DroneFrlSystem::pretrained_parameters(test_config(), kSeed);
  const auto& b = DroneFrlSystem::pretrained_parameters(test_config(), kSeed);
  EXPECT_EQ(&a, &b);  // same cached vector
}

TEST(DroneFrl, PretrainingCacheIsConcurrencySafe) {
  // Pool-parallel campaign cells hit the cache from many threads at once:
  // same-key callers must all land on one computation (no recompute, no
  // torn reads), distinct keys must be able to fill concurrently. Run on
  // fresh keys so the race window — first fill — is actually exercised.
  DroneFrlSystem::Config cfg_a = test_config();
  cfg_a.imitation_episodes = 3;  // cheap fresh key
  DroneFrlSystem::Config cfg_b = cfg_a;
  cfg_b.imitation_episodes = 4;  // second fresh key
  constexpr std::uint64_t seed = 0xC0FFEE;
  std::vector<const std::vector<float>*> got_a(8, nullptr), got_b(8, nullptr);
  std::atomic<int> start{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      start.fetch_add(1);
      while (start.load() < 8) {
      }  // maximize overlap on the first fill
      got_a[i] = &DroneFrlSystem::pretrained_parameters(cfg_a, seed);
      got_b[i] = &DroneFrlSystem::pretrained_parameters(cfg_b, seed);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(got_a[i], got_a[0]) << "thread " << i;
    EXPECT_EQ(got_b[i], got_b[0]) << "thread " << i;
  }
  EXPECT_NE(got_a[0], got_b[0]);
  EXPECT_EQ(*got_a[0],
            DroneFrlSystem::pretrained_parameters(cfg_a, seed));
}

TEST(DroneFrl, HeatmapCellsPoolParallelAreThreadCountInvariant) {
  // A miniature training-phase heatmap campaign (bench/sweeps.cpp's shape):
  // cells build whole systems — sharing only the pretraining cache — train
  // under distinct fault plans, and evaluate. Cell metrics must not
  // depend on the fan-out.
  const auto cell_fn = [](std::size_t cell) {
    DroneFrlSystem sys(test_config(), kSeed);
    TrainingFaultPlan plan;
    plan.active = true;
    plan.spec.site = cell % 2 == 0 ? FaultSite::AgentFault
                                   : FaultSite::ServerFault;
    plan.spec.model = FaultModel::TransientPersistent;
    plan.spec.ber = cell < 2 ? 1e-3 : 1e-2;
    plan.spec.episode = 2;
    sys.set_fault_plan(plan);
    sys.train(5);
    return sys.evaluate_flight_distance(2, 99 + cell);
  };
  const std::vector<double> serial = run_cell_campaign(4, 1, cell_fn);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    EXPECT_EQ(run_cell_campaign(4, threads, cell_fn), serial)
        << "threads " << threads;
  }
}

TEST(DroneFrl, FineTuningDoesNotCollapse) {
  DroneFrlSystem sys(test_config(), kSeed);
  const double before = sys.evaluate_flight_distance(4, 99);
  sys.train(30);
  const double after = sys.evaluate_flight_distance(4, 99);
  EXPECT_GT(after, before * 0.7);
}

TEST(DroneFrl, DeterministicAcrossRuns) {
  DroneFrlSystem a(test_config(), kSeed), b(test_config(), kSeed);
  a.train(10);
  b.train(10);
  EXPECT_EQ(a.drone_network(0).flat_parameters(),
            b.drone_network(0).flat_parameters());
}

TEST(DroneFrl, SnapshotRestoreReplaysIdentically) {
  DroneFrlSystem sys(test_config(), kSeed);
  sys.train(6);
  const auto snap = sys.snapshot();
  sys.train(6);
  const auto direct = sys.drone_network(0).flat_parameters();
  sys.restore(snap);
  EXPECT_EQ(sys.episode(), 6u);
  sys.train(6);
  EXPECT_EQ(sys.drone_network(0).flat_parameters(), direct);
}

TEST(DroneFrl, SnapshotRestoresIntoFreshSystem) {
  // A snapshot restored into a second, freshly built system continues
  // training bit-identically to the original: parameters, REINFORCE
  // baselines and engine state all travel in the snapshot.
  DroneFrlSystem sys(test_config(), kSeed);
  sys.train(4);
  const auto snap = sys.snapshot();

  DroneFrlSystem other(test_config(), kSeed);
  other.restore(snap);
  EXPECT_EQ(other.episode(), 4u);
  EXPECT_EQ(other.drone_network(1).flat_parameters(),
            sys.drone_network(1).flat_parameters());
  sys.train(4);
  other.train(4);
  EXPECT_EQ(other.drone_network(0).flat_parameters(),
            sys.drone_network(0).flat_parameters());
}

TEST(DroneFrl, CommunicationRoundsFollowInterval) {
  DroneFrlSystem::Config cfg = test_config();
  cfg.comm_interval = 3;
  DroneFrlSystem sys(cfg, kSeed);
  sys.train(12);
  EXPECT_EQ(sys.communication_rounds(), 4u);
  EXPECT_GT(sys.communication_bytes(), 0u);
}

TEST(DroneFrl, CommIntervalBoostReducesRounds) {
  DroneFrlSystem::Config boosted = test_config();
  boosted.comm_interval = 2;
  boosted.boost_after_episode = 6;
  boosted.comm_interval_boost = 3;
  DroneFrlSystem sys(boosted, kSeed);
  sys.train(18);
  // Episodes 0..5: rounds at 1,3,5 -> 3 rounds; then interval 6:
  // rounds at 11,17 -> 2 rounds.
  EXPECT_EQ(sys.communication_rounds(), 5u);
}

TEST(DroneFrl, SingleDroneHasNoServer) {
  DroneFrlSystem sys(test_config(1), kSeed);
  sys.train(4);
  EXPECT_EQ(sys.communication_bytes(), 0u);
  EXPECT_EQ(sys.communication_rounds(), 0u);
}

/// Greedy-action agreement between two policies over `probes` random
/// drone observations.
std::size_t action_agreement(Network& a, Network& b, std::size_t probes,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < probes; ++i) {
    const Tensor obs = Tensor::random_uniform({3, 18, 32}, rng, 0.0f, 1.0f);
    agree += a.forward(obs).argmax() == b.forward(obs).argmax() ? 1 : 0;
  }
  return agree;
}

// The next three tests are property-based on purpose: absolute
// flight-distance thresholds at this reduced training budget flip sign
// under ISA-dependent float rounding (FRLFI_MARCH_NATIVE's FMA
// contraction changes trajectories), so instead of pinning per-ISA
// distance goldens they assert the scale-free causal chain the paper's
// figures rest on — the fault reaches the policy and changes its
// decisions, and the mitigation reverses exactly that.

TEST(DroneFrl, HeavyServerFaultCorruptsFleetPolicy) {
  DroneFrlSystem::Config cfg = test_config();
  DroneFrlSystem clean(cfg, kSeed);
  clean.train(20);

  DroneFrlSystem faulty(cfg, kSeed);
  TrainingFaultPlan plan;
  plan.active = true;
  plan.spec.site = FaultSite::ServerFault;
  plan.spec.ber = 0.1;
  plan.spec.episode = 19;  // right before evaluation
  faulty.set_fault_plan(plan);
  faulty.train(20);

  // Identical seed and training stream: any consensus delta is the fault,
  // propagated to every drone through the server downlink.
  Network clean_policy = clean.consensus_network();
  Network faulty_policy = faulty.consensus_network();
  EXPECT_NE(clean_policy.flat_parameters(), faulty_policy.flat_parameters());
  // And it corrupts behaviour, not just bits: a large fraction of greedy
  // decisions change.
  const std::size_t probes = 64;
  const std::size_t agree =
      action_agreement(clean_policy, faulty_policy, probes, 4242);
  EXPECT_LT(agree, probes * 3 / 4);
}

TEST(DroneFrl, InferenceFaultDegradesWithBer) {
  DroneFrlSystem sys(test_config(), kSeed);
  sys.train(10);
  InferenceFaultScenario clean;
  clean.spec.ber = 0.0;
  InferenceFaultScenario heavy;
  heavy.spec.model = FaultModel::TransientPersistent;
  heavy.spec.ber = 0.1;
  // Single-seed outcomes are heavy-tailed enough to flip sign across
  // ISAs; compare means over several evaluation/injection seeds, as the
  // paper's campaigns do.
  double d_clean = 0.0, d_heavy = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    d_clean += sys.evaluate_inference_fault(clean, 3, 7 + 31 * s);
    d_heavy += sys.evaluate_inference_fault(heavy, 3, 7 + 31 * s);
  }
  EXPECT_LT(d_heavy, d_clean);
}

TEST(DroneFrl, RangeDetectionRepairsFaultedPolicy) {
  DroneFrlSystem sys(test_config(), kSeed);
  sys.train(10);
  Network healthy = sys.consensus_network();
  RangeAnomalyDetector detector(healthy, {.margin = 0.10});
  const std::size_t probes = 48;
  std::size_t suppressed = 0, agree_faulted = 0, agree_repaired = 0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    InferenceFaultScenario fault;
    fault.spec.model = FaultModel::TransientPersistent;
    fault.spec.ber = 0.01;
    Network faulted = healthy.clone();
    Rng fault_rng = Rng(100 + s).split(0xFA53);
    apply_static_inference_fault(faulted, fault, fault_rng);
    agree_faulted += action_agreement(healthy, faulted, probes, 900 + s);
    // The paper's §V-B repair: zero every out-of-range weight.
    suppressed += detector.scan_and_suppress(faulted);
    agree_repaired += action_agreement(healthy, faulted, probes, 900 + s);
  }
  // The fixed-point flips produce out-of-range outliers the detector
  // catches, and removing them moves the policy's decisions back toward
  // the healthy ones.
  EXPECT_GT(suppressed, 0u);
  EXPECT_GT(agree_repaired, agree_faulted);
}

TEST(DroneFrl, Validation) {
  DroneFrlSystem::Config cfg = test_config();
  cfg.n_drones = 0;
  EXPECT_THROW(DroneFrlSystem(cfg, 1), Error);
  DroneFrlSystem sys(test_config(), kSeed);
  EXPECT_THROW(sys.drone_network(5), Error);
  TrainingFaultPlan plan;
  plan.active = true;
  plan.spec.site = FaultSite::AgentFault;
  plan.spec.agent_index = 9;
  EXPECT_THROW(sys.set_fault_plan(plan), Error);
}

}  // namespace
}  // namespace frlfi
