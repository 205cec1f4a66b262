#include "frl/gridworld_system.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"

namespace frlfi {
namespace {

/// Small-but-learnable configuration used by most integration tests.
GridWorldFrlSystem::Config test_config(std::size_t n_agents = 4) {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = n_agents;
  cfg.eps_span = 420;
  return cfg;
}

TEST(GridWorldFrl, TrainsToHighSuccessRate) {
  GridWorldFrlSystem sys(test_config(), 1);
  sys.train(600);
  EXPECT_GT(sys.evaluate_success_rate(20, 99), 0.9);
}

TEST(GridWorldFrl, SingleAgentModeWorks) {
  GridWorldFrlSystem::Config cfg = test_config(1);
  GridWorldFrlSystem sys(cfg, 2);
  sys.train(600);
  // Single agent trains on env 0 only; evaluation is on its own env.
  EXPECT_GT(sys.evaluate_success_rate(20, 99), 0.85);
  EXPECT_EQ(sys.communication_bytes(), 0u);
}

TEST(GridWorldFrl, CommunicationCostAccumulates) {
  GridWorldFrlSystem sys(test_config(), 3);
  sys.train(10);
  EXPECT_GT(sys.communication_bytes(), 0u);
}

TEST(GridWorldFrl, CommIntervalReducesCost) {
  GridWorldFrlSystem::Config cfg1 = test_config();
  GridWorldFrlSystem::Config cfg3 = test_config();
  cfg3.comm_interval = 3;
  GridWorldFrlSystem s1(cfg1, 4), s3(cfg3, 4);
  s1.train(30);
  s3.train(30);
  EXPECT_GT(s1.communication_bytes(), 2 * s3.communication_bytes());
}

TEST(GridWorldFrl, DeterministicAcrossRuns) {
  GridWorldFrlSystem a(test_config(), 5), b(test_config(), 5);
  a.train(50);
  b.train(50);
  EXPECT_EQ(a.agent_network(0).flat_parameters(),
            b.agent_network(0).flat_parameters());
}

TEST(GridWorldFrl, SnapshotRestoreRoundTrip) {
  GridWorldFrlSystem sys(test_config(), 6);
  sys.train(40);
  const auto snap = sys.snapshot();
  const auto params_at_snap = sys.agent_network(1).flat_parameters();
  sys.train(40);
  EXPECT_NE(sys.agent_network(1).flat_parameters(), params_at_snap);
  sys.restore(snap);
  EXPECT_EQ(sys.episode(), 40u);
  EXPECT_EQ(sys.agent_network(1).flat_parameters(), params_at_snap);
}

TEST(GridWorldFrl, SnapshotRestoreReplaysIdentically) {
  GridWorldFrlSystem a(test_config(), 7);
  a.train(30);
  const auto snap = a.snapshot();
  a.train(20);
  const auto direct = a.agent_network(0).flat_parameters();
  a.restore(snap);
  a.train(20);
  EXPECT_EQ(a.agent_network(0).flat_parameters(), direct);
}

TEST(GridWorldFrl, SnapshotRestoresIntoFreshSystem) {
  // Cross-instance resume: a second, freshly built system restored from a
  // snapshot continues training bit-identically to the original.
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = 4;
  GridWorldFrlSystem a(cfg, 6);
  a.train(40);
  const auto snap = a.snapshot();
  a.train(20);
  GridWorldFrlSystem b(cfg, 6);
  b.restore(snap);
  EXPECT_EQ(b.episode(), 40u);
  b.train(20);
  EXPECT_EQ(a.agent_network(0).flat_parameters(),
            b.agent_network(0).flat_parameters());
}

TEST(GridWorldFrl, ServerFaultHurtsMoreThanAgentFault) {
  const std::size_t episodes = 600;
  auto run = [&](FaultSite site) {
    GridWorldFrlSystem sys(test_config(), 1);
    TrainingFaultPlan plan;
    plan.active = true;
    plan.spec.site = site;
    plan.spec.ber = 0.02;
    plan.spec.episode = episodes - 1;  // no recovery time
    sys.set_fault_plan(plan);
    sys.train(episodes);
    return sys.evaluate_success_rate(20, 99);
  };
  const double sr_agent = run(FaultSite::AgentFault);
  const double sr_server = run(FaultSite::ServerFault);
  EXPECT_GT(sr_agent, sr_server + 0.1);
}

TEST(GridWorldFrl, EarlyFaultRecovers) {
  GridWorldFrlSystem sys(test_config(), 8);
  TrainingFaultPlan plan;
  plan.active = true;
  plan.spec.site = FaultSite::ServerFault;
  plan.spec.ber = 0.02;
  plan.spec.episode = 100;
  sys.set_fault_plan(plan);
  sys.train(600);
  EXPECT_GT(sys.evaluate_success_rate(20, 99), 0.9);
}

TEST(GridWorldFrl, ConsensusNetworkMatchesAgentsAfterConvergence) {
  GridWorldFrlSystem sys(test_config(), 9);
  sys.train(300);
  Network consensus = sys.consensus_network();
  // After many smoothing rounds agents are near consensus.
  const auto c = consensus.flat_parameters();
  const auto a0 = sys.agent_network(0).flat_parameters();
  double max_diff = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i)
    max_diff = std::max(max_diff, std::abs(double(c[i]) - double(a0[i])));
  EXPECT_LT(max_diff, 0.05);
}

TEST(GridWorldFrl, ConsensusStddevGrowsWithAgents) {
  // Table I's qualitative claim at test scale: the multi-agent consensus
  // policy separates actions at least as well as a single agent's.
  GridWorldFrlSystem multi(test_config(4), 10);
  multi.train(500);
  GridWorldFrlSystem single(test_config(1), 10);
  single.train(500);
  EXPECT_GT(multi.consensus_action_stddev(), 0.0);
  EXPECT_GT(single.consensus_action_stddev(), 0.0);
}

TEST(GridWorldFrl, InferenceFaultDegradesWithBer) {
  GridWorldFrlSystem sys(test_config(), 11);
  sys.train(600);
  InferenceFaultScenario clean;
  clean.spec.ber = 0.0;
  const double sr_clean = sys.evaluate_inference_fault(clean, 15, 7);
  InferenceFaultScenario heavy;
  heavy.spec.model = FaultModel::TransientPersistent;
  heavy.spec.ber = 0.05;
  const double sr_heavy = sys.evaluate_inference_fault(heavy, 15, 7);
  EXPECT_GT(sr_clean, 0.9);
  EXPECT_LT(sr_heavy, sr_clean);
}

TEST(GridWorldFrl, Trans1IsMilderThanTransM) {
  GridWorldFrlSystem sys(test_config(), 12);
  sys.train(600);
  InferenceFaultScenario t1, tm;
  t1.spec.model = FaultModel::TransientSingleStep;
  t1.spec.ber = 0.02;
  tm.spec.model = FaultModel::TransientPersistent;
  tm.spec.ber = 0.02;
  const double sr_t1 = sys.evaluate_inference_fault(t1, 20, 7);
  const double sr_tm = sys.evaluate_inference_fault(tm, 20, 7);
  EXPECT_GE(sr_t1 + 1e-9, sr_tm);
  EXPECT_GT(sr_t1, 0.85);  // single-read faults barely matter (Fig. 4)
}

TEST(GridWorldFrl, InferenceFaultEvalIsThreadCountInvariant) {
  // The campaign fan-out must not change the metric by a single bit —
  // per-lane env ownership plus per-(agent, trial) streams make the
  // partition of trials over worker lanes invisible.
  GridWorldFrlSystem sys(test_config(), 17);
  InferenceFaultScenario fault;
  fault.spec.model = FaultModel::TransientPersistent;
  fault.spec.ber = 0.02;
  const double serial = sys.evaluate_inference_fault(fault, 6, 7, 1);
  EXPECT_EQ(sys.evaluate_inference_fault(fault, 6, 7, 3), serial);
  InferenceFaultScenario t1;
  t1.spec.model = FaultModel::TransientSingleStep;
  t1.spec.ber = 0.02;
  const double t1_serial = sys.evaluate_inference_fault(t1, 6, 7, 1);
  EXPECT_EQ(sys.evaluate_inference_fault(t1, 6, 7, 4), t1_serial);
}

TEST(GridWorldFrl, RangeDetectionRepairsInference) {
  GridWorldFrlSystem sys(test_config(), 13);
  sys.train(600);
  Network healthy = sys.consensus_network();
  RangeAnomalyDetector detector(healthy, {.margin = 0.10});
  InferenceFaultScenario fault;
  fault.spec.model = FaultModel::TransientPersistent;
  fault.spec.ber = 0.05;
  const double sr_fault = sys.evaluate_inference_fault(fault, 15, 7);
  fault.detector = &detector;
  const double sr_mitigated = sys.evaluate_inference_fault(fault, 15, 7);
  EXPECT_GT(sr_mitigated, sr_fault);
}

TEST(GridWorldFrl, MitigationRecoversFromServerFault) {
  GridWorldFrlSystem::Config cfg = test_config();
  GridWorldFrlSystem sys(cfg, 14);
  TrainingFaultPlan plan;
  plan.active = true;
  plan.spec.site = FaultSite::ServerFault;
  plan.spec.ber = 0.02;
  plan.spec.episode = 500;
  sys.set_fault_plan(plan);
  MitigationPlan mit;
  mit.enabled = true;
  mit.detector.drop_percent = 25.0;
  mit.detector.consecutive_episodes = 10;
  sys.set_mitigation(mit);
  sys.train(560);
  EXPECT_GT(sys.evaluate_success_rate(20, 99), 0.9);
  EXPECT_GE(sys.mitigation_stats().checkpoints_taken, 1u);
}

TEST(GridWorldFrl, EpisodesToRecoverBoundedForCleanSystem) {
  GridWorldFrlSystem sys(test_config(), 15);
  sys.train(600);
  // A healthy system is already above threshold: recovery is immediate
  // (one check interval).
  const std::size_t eps = sys.episodes_to_recover(0.9, 25, 15, 200, 3);
  EXPECT_LE(eps, 25u);
}

TEST(GridWorldFrl, Validation) {
  GridWorldFrlSystem::Config cfg = test_config();
  cfg.n_agents = 0;
  EXPECT_THROW(GridWorldFrlSystem(cfg, 1), Error);
  GridWorldFrlSystem sys(test_config(), 16);
  TrainingFaultPlan plan;
  plan.active = true;
  plan.spec.site = FaultSite::AgentFault;
  plan.spec.agent_index = 99;
  EXPECT_THROW(sys.set_fault_plan(plan), Error);
  EXPECT_THROW(sys.agent_network(99), Error);
}

}  // namespace
}  // namespace frlfi
