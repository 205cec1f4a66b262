/// \file test_system_golden.cpp
/// Golden digests of the two FRL systems' evaluation and snapshot surface
/// on small configurations: the consensus policy's parameters, the clean
/// greedy evaluation, inference fault campaigns on the consensus policy
/// (fixed-point Trans-M, and int8 Trans-1 screened by the range
/// detector), and the parameters after a snapshot is restored into a
/// fresh system and trained on — plus GridWorld's Table I spread and
/// Fig. 3e recovery count. Training itself is pinned by the round and
/// learner goldens; these pin what the systems compute around it.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

using testing::Digest;

InferenceFaultScenario fixed_point_trans_m(double ber) {
  InferenceFaultScenario s;
  s.spec.model = FaultModel::TransientPersistent;
  s.spec.ber = ber;
  return s;
}

InferenceFaultScenario int8_trans1(double ber,
                                   const RangeAnomalyDetector& detector) {
  InferenceFaultScenario s;
  s.spec.model = FaultModel::TransientSingleStep;
  s.spec.ber = ber;
  s.use_int8 = true;
  s.detector = &detector;
  return s;
}

// An agent fault under §V-A mitigation, so the snapshot carries monitor
// and checkpoint state as well as parameters.
void arm_fault_and_mitigation(auto& sys, std::size_t episode) {
  TrainingFaultPlan fault;
  fault.active = true;
  fault.spec.site = FaultSite::AgentFault;
  fault.spec.model = FaultModel::TransientPersistent;
  fault.spec.ber = 2e-3;
  fault.spec.episode = episode;
  fault.spec.agent_index = 1;
  sys.set_fault_plan(fault);
  MitigationPlan mit;
  mit.enabled = true;
  sys.set_mitigation(mit);
}

GridWorldFrlSystem::Config grid_config() {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = 4;
  cfg.channel_ber = 1e-4;
  return cfg;
}

constexpr std::uint64_t kGridSeed = 9;
constexpr std::size_t kGridEpisodes = 200;

TEST(SystemGolden, GridWorldConsensusAndEvaluation) {
  SKIP_ON_FMA();
  GridWorldFrlSystem sys(grid_config(), kGridSeed);
  sys.train(kGridEpisodes);
  const Network consensus = sys.consensus_network();
  Digest d;
  d.floats(consensus.flat_parameters());
  d.f64(sys.evaluate_success_rate(3, 5));
  d.f64(sys.consensus_action_stddev());
  d.f64(sys.evaluate_inference_fault(fixed_point_trans_m(1e-3), 3, 6));
  Network healthy = sys.consensus_network();
  const RangeAnomalyDetector detector(healthy, {.margin = 0.10});
  d.f64(sys.evaluate_inference_fault(int8_trans1(1e-2, detector), 3, 7));
  EXPECT_EQ(d.value(), 0x65F0F24573FEC152ULL);
}

TEST(SystemGolden, GridWorldEpisodesToRecover) {
  SKIP_ON_FMA();
  GridWorldFrlSystem sys(grid_config(), kGridSeed);
  sys.train(kGridEpisodes / 2);
  Digest d;
  d.u64(sys.episodes_to_recover(0.95, 10, 2, 200, 11));
  d.u64(sys.episode());
  d.floats(sys.consensus_network().flat_parameters());
  EXPECT_EQ(d.value(), 0x93F31ED5A2D15B5FULL);
}

TEST(SystemGolden, GridWorldSnapshotRestoreTrain) {
  SKIP_ON_FMA();
  GridWorldFrlSystem a(grid_config(), kGridSeed);
  arm_fault_and_mitigation(a, kGridEpisodes - 5);
  a.train(kGridEpisodes);
  GridWorldFrlSystem b(grid_config(), kGridSeed + 1);
  arm_fault_and_mitigation(b, kGridEpisodes - 5);
  b.restore(a.snapshot());
  b.train(10);
  Digest d;
  for (std::size_t i = 0; i < grid_config().n_agents; ++i)
    d.floats(b.agent_network(i).flat_parameters());
  d.u64(b.episode());
  d.u64(b.communication_bytes());
  d.u64(b.mitigation_stats().checkpoints_taken);
  d.u64(b.mitigation_stats().agent_recoveries);
  EXPECT_EQ(d.value(), 0x440F3B4BE4E21DE2ULL);
}

/// The reduced offline phase of test_frl_drone's config.
DroneFrlSystem::Config drone_config() {
  DroneFrlSystem::Config cfg;
  cfg.n_drones = 2;
  cfg.imitation_episodes = 60;
  return cfg;
}

constexpr std::uint64_t kDroneSeed = 21;

TEST(SystemGolden, DroneConsensusAndEvaluation) {
  SKIP_ON_FMA();
  SKIP_UNLESS_PORTABLE_NARROW_REDUCTION();
  DroneFrlSystem sys(drone_config(), kDroneSeed);
  sys.train(2);
  const Network consensus = sys.consensus_network();
  Digest d;
  d.floats(consensus.flat_parameters());
  d.f64(sys.evaluate_flight_distance(1, 5));
  d.f64(sys.evaluate_inference_fault(fixed_point_trans_m(1e-3), 1, 6));
  Network healthy = sys.consensus_network();
  const RangeAnomalyDetector detector(healthy, {.margin = 0.10});
  d.f64(sys.evaluate_inference_fault(int8_trans1(1e-2, detector), 1, 7));
  EXPECT_EQ(d.value(), 0x4AC1F3241654F430ULL);
}

TEST(SystemGolden, DroneSnapshotRestoreTrain) {
  SKIP_ON_FMA();
  SKIP_UNLESS_PORTABLE_NARROW_REDUCTION();
  DroneFrlSystem a(drone_config(), kDroneSeed);
  arm_fault_and_mitigation(a, 1);
  a.train(2);
  DroneFrlSystem b(drone_config(), kDroneSeed);
  arm_fault_and_mitigation(b, 1);
  b.restore(a.snapshot());
  b.train(2);
  Digest d;
  for (std::size_t i = 0; i < drone_config().n_drones; ++i)
    d.floats(b.drone_network(i).flat_parameters());
  d.u64(b.episode());
  d.u64(b.communication_rounds());
  d.u64(b.mitigation_stats().checkpoints_taken);
  EXPECT_EQ(d.value(), 0x37885EEF02EA03EBULL);
}

}  // namespace
}  // namespace frlfi
