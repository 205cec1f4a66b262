#include <gtest/gtest.h>

#include "core/error.hpp"
#include "frl/policies.hpp"
#include "mitigation/checkpoint.hpp"
#include "mitigation/range_detector.hpp"
#include "mitigation/reward_monitor.hpp"

namespace frlfi {
namespace {

RewardDropMonitor::Options fast_detector() {
  RewardDropMonitor::Options o;
  o.drop_percent = 25.0;
  o.consecutive_episodes = 3;
  o.warmup_episodes = 5;
  o.baseline_beta = 0.5;
  return o;
}

TEST(RewardMonitor, NoFaultNoDetection) {
  RewardDropMonitor mon(4, fast_detector());
  for (int ep = 0; ep < 50; ++ep)
    EXPECT_EQ(mon.observe({10, 10, 10, 10}), DetectedFault::None);
}

TEST(RewardMonitor, SingleAgentDropDetectedAsAgentFault) {
  RewardDropMonitor mon(4, fast_detector());
  for (int ep = 0; ep < 10; ++ep) mon.observe({10, 10, 10, 10});
  DetectedFault verdict = DetectedFault::None;
  for (int ep = 0; ep < 5 && verdict == DetectedFault::None; ++ep)
    verdict = mon.observe({10, 1, 10, 10});
  EXPECT_EQ(verdict, DetectedFault::Agent);
  ASSERT_EQ(mon.flagged_agents().size(), 1u);
  EXPECT_EQ(mon.flagged_agents()[0], 1u);
}

TEST(RewardMonitor, MajorityDropDetectedAsServerFault) {
  RewardDropMonitor mon(4, fast_detector());
  for (int ep = 0; ep < 10; ++ep) mon.observe({10, 10, 10, 10});
  DetectedFault verdict = DetectedFault::None;
  for (int ep = 0; ep < 5 && verdict == DetectedFault::None; ++ep)
    verdict = mon.observe({1, 1, 1, 10});
  EXPECT_EQ(verdict, DetectedFault::Server);
}

TEST(RewardMonitor, TransientDipDoesNotTrigger) {
  RewardDropMonitor mon(2, fast_detector());
  for (int ep = 0; ep < 10; ++ep) mon.observe({10, 10});
  // Two bad episodes (below k=3), then recovery.
  EXPECT_EQ(mon.observe({1, 10}), DetectedFault::None);
  EXPECT_EQ(mon.observe({1, 10}), DetectedFault::None);
  EXPECT_EQ(mon.observe({10, 10}), DetectedFault::None);
  EXPECT_EQ(mon.observe({1, 10}), DetectedFault::None);  // counter was reset
}

TEST(RewardMonitor, WarmupSuppressesEarlyTriggers) {
  RewardDropMonitor mon(2, fast_detector());
  // Wild swings during warmup must not trigger.
  for (int ep = 0; ep < 5; ++ep)
    EXPECT_EQ(mon.observe({ep % 2 ? 10.0 : -10.0, 10}), DetectedFault::None);
}

TEST(RewardMonitor, BaselineFrozenDuringDrop) {
  RewardDropMonitor mon(1, fast_detector());
  for (int ep = 0; ep < 20; ++ep) mon.observe({10});
  const double base = mon.baseline(0);
  mon.observe({0.0});
  EXPECT_EQ(mon.baseline(0), base);  // dropped episode not absorbed
}

TEST(RewardMonitor, AcknowledgeAndSuspicious) {
  RewardDropMonitor mon(2, fast_detector());
  for (int ep = 0; ep < 10; ++ep) mon.observe({10, 10});
  EXPECT_FALSE(mon.suspicious());
  mon.observe({1, 10});
  EXPECT_TRUE(mon.suspicious());
  mon.acknowledge();
  EXPECT_FALSE(mon.suspicious());
}

TEST(RewardMonitor, Validation) {
  RewardDropMonitor mon(2, fast_detector());
  EXPECT_THROW(mon.observe({1.0}), Error);
  EXPECT_THROW(mon.baseline(2), Error);
  RewardDropMonitor::Options bad = fast_detector();
  bad.drop_percent = 0.0;
  EXPECT_THROW(RewardDropMonitor(2, bad), Error);
}

TEST(RewardMonitor, StateRoundTripReproducesUninterruptedVerdicts) {
  // The snapshot gap this closes: restoring a monitor used to reset its
  // baseline history, so a resumed run re-warmed and missed (or re-timed)
  // detections. Carrying State must make the resumed verdict stream
  // identical to the uninterrupted one.
  RewardDropMonitor mon(3, fast_detector());
  for (int ep = 0; ep < 8; ++ep) mon.observe({10, 11, 12});
  mon.observe({10, 2, 12});  // one below-threshold episode in flight
  const RewardDropMonitor::State mid = mon.state();
  EXPECT_EQ(mid.baseline.size(), 3u);
  EXPECT_GT(mid.below_count[1], 0u);

  // Uninterrupted continuation.
  std::vector<DetectedFault> direct;
  for (int ep = 0; ep < 4; ++ep) direct.push_back(mon.observe({10, 2, 12}));

  // Fresh monitor resumed from the captured state.
  RewardDropMonitor resumed(3, fast_detector());
  resumed.set_state(mid);
  EXPECT_TRUE(resumed.suspicious());
  for (std::size_t a = 0; a < 3; ++a)
    EXPECT_EQ(resumed.baseline(a), mid.baseline[a]);
  std::vector<DetectedFault> replay;
  for (int ep = 0; ep < 4; ++ep) replay.push_back(resumed.observe({10, 2, 12}));
  EXPECT_EQ(replay, direct);
  EXPECT_EQ(resumed.flagged_agents(), mon.flagged_agents());
  for (std::size_t a = 0; a < 3; ++a)
    EXPECT_EQ(resumed.baseline(a), mon.baseline(a));
}

TEST(RewardMonitor, SetStateValidatesSizes) {
  RewardDropMonitor mon(3, fast_detector());
  RewardDropMonitor::State bad = mon.state();
  bad.baseline.pop_back();
  EXPECT_THROW(mon.set_state(bad), Error);
  bad = mon.state();
  bad.below_count.push_back(0);
  EXPECT_THROW(mon.set_state(bad), Error);
  bad = mon.state();
  bad.seen.clear();
  EXPECT_THROW(mon.set_state(bad), Error);
}

TEST(CheckpointStore, StateRoundTripKeepsSnapshotAndCounters) {
  CheckpointStore store(5);
  store.offer(5, {3.0f, 4.0f});
  store.restore();
  const CheckpointStore::State mid = store.state();

  CheckpointStore resumed(5);
  resumed.set_state(mid);
  EXPECT_TRUE(resumed.has_checkpoint());
  EXPECT_EQ(resumed.restore(), std::vector<float>({3.0f, 4.0f}));
  EXPECT_EQ(resumed.snapshots_taken(), 1u);
  EXPECT_EQ(resumed.restores_served(), 2u);

  // Empty state round-trips to "no checkpoint yet".
  CheckpointStore blank(5);
  resumed.set_state(blank.state());
  EXPECT_FALSE(resumed.has_checkpoint());
}

TEST(CheckpointStore, SnapshotsAtInterval) {
  CheckpointStore store(5);
  EXPECT_FALSE(store.has_checkpoint());
  EXPECT_FALSE(store.offer(1, {1.0f}));
  EXPECT_FALSE(store.offer(4, {1.0f}));
  EXPECT_TRUE(store.offer(5, {2.0f}));
  EXPECT_TRUE(store.has_checkpoint());
  EXPECT_EQ(store.snapshots_taken(), 1u);
  EXPECT_EQ(store.restore()[0], 2.0f);
  EXPECT_EQ(store.restores_served(), 1u);
}

TEST(CheckpointStore, KeepsLatestSnapshot) {
  CheckpointStore store(1);
  store.offer(1, {1.0f});
  store.offer(2, {2.0f});
  EXPECT_EQ(store.restore()[0], 2.0f);
}

TEST(CheckpointStore, RestoreBeforeSnapshotThrows) {
  CheckpointStore store(5);
  EXPECT_THROW(store.restore(), Error);
  EXPECT_THROW(CheckpointStore(0), Error);
}

TEST(CheckpointStore, MemoryFootprint) {
  CheckpointStore store(1);
  store.offer(1, std::vector<float>(100, 0.0f));
  EXPECT_EQ(store.memory_bytes(), 400u);
}

TEST(RangeDetector, CleanNetworkPasses) {
  Rng rng(1);
  Network net = make_gridworld_policy(rng);
  RangeAnomalyDetector det(net, {.margin = 0.10});
  EXPECT_EQ(det.scan(net), 0u);
  EXPECT_EQ(det.scan_and_suppress(net), 0u);
}

TEST(RangeDetector, BoundsIncludeMargin) {
  Rng rng(2);
  Network net = make_gridworld_policy(rng);
  auto params = net.parameters();
  params[0]->value[0] = -1.0f;
  params[0]->value[1] = 2.0f;
  RangeAnomalyDetector det(net, {.margin = 0.10});
  const auto [lo, hi] = det.bounds(0);
  EXPECT_FLOAT_EQ(lo, -1.1f);
  EXPECT_FLOAT_EQ(hi, 2.2f);
}

TEST(RangeDetector, SuppressesOutliersToZero) {
  Rng rng(3);
  Network net = make_gridworld_policy(rng);
  RangeAnomalyDetector det(net, {.margin = 0.10});
  Network corrupted = net.clone();
  auto params = corrupted.parameters();
  params[0]->value[3] = 1000.0f;   // way out of range
  params[2]->value[0] = -500.0f;
  EXPECT_EQ(det.scan(corrupted), 2u);
  EXPECT_EQ(det.scan_and_suppress(corrupted), 2u);
  EXPECT_EQ(corrupted.parameters()[0]->value[3], 0.0f);
  EXPECT_EQ(corrupted.parameters()[2]->value[0], 0.0f);
  EXPECT_EQ(det.scan(corrupted), 0u);
}

TEST(RangeDetector, InRangeCorruptionIsInvisible) {
  // Range detection is symptom-based: a flip that stays inside the
  // calibrated range cannot be seen (the paper accepts this: small values
  // are unlikely to become outliers).
  Rng rng(4);
  Network net = make_gridworld_policy(rng);
  RangeAnomalyDetector det(net, {.margin = 0.10});
  Network corrupted = net.clone();
  auto params = corrupted.parameters();
  params[0]->value[0] = params[0]->value[1];  // legal value, wrong place
  EXPECT_EQ(det.scan(corrupted), 0u);
}

TEST(RangeDetector, TopologyMismatchThrows) {
  Rng rng(5);
  Network grid = make_gridworld_policy(rng);
  Network drone = make_drone_policy(rng);
  RangeAnomalyDetector det(grid, {.margin = 0.10});
  EXPECT_THROW(det.scan(drone), Error);
}

TEST(RangeDetector, ZeroMarginIsExactRange) {
  Rng rng(6);
  Network net = make_gridworld_policy(rng);
  RangeAnomalyDetector det(net, {.margin = 0.0});
  EXPECT_EQ(det.scan(net), 0u);
  Network c = net.clone();
  c.parameters()[0]->value[0] = c.parameters()[0]->value.max() * 1.01f;
  EXPECT_EQ(det.scan(c), 1u);
}

}  // namespace
}  // namespace frlfi
