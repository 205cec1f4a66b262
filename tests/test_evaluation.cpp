#include "frl/evaluation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/campaign.hpp"
#include "envs/gridworld.hpp"
#include "frl/policies.hpp"
#include "mitigation/range_detector.hpp"
#include "nn/dense.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

using testing::BanditEnv;
using testing::ChainEnv;

/// A 1->2 policy hard-wired to always prefer action 1 ("right").
Network always_right() {
  Rng rng(1);
  Network net;
  auto d = std::make_unique<Dense>(1, 2, rng);
  d->weight().value.fill(0.0f);
  d->bias().value = testing::tensor_of({0.0f, 1.0f});
  net.add(std::move(d));
  return net;
}

TEST(GreedyEpisode, FollowsArgmaxToGoal) {
  Network net = always_right();
  ChainEnv env(4);
  Rng rng(1);
  const EpisodeStats stats = greedy_episode(net, env, rng, 50);
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.steps, 4u);
}

TEST(GreedyEpisode, StepCapFails) {
  Network net = always_right();
  ChainEnv env(100);
  Rng rng(1);
  const EpisodeStats stats = greedy_episode(net, env, rng, 5);
  EXPECT_FALSE(stats.success);
  EXPECT_EQ(stats.steps, 5u);
}

TEST(GreedyEpisodeTrans1, WeightsRestoredAfterEpisode) {
  Network net = always_right();
  const std::vector<float> before = net.flat_parameters();
  ChainEnv env(4);
  Rng rng(2);
  InferenceFaultScenario scenario;
  scenario.spec.model = FaultModel::TransientSingleStep;
  scenario.spec.ber = 0.5;
  greedy_episode_trans1(net, env, rng, 20, scenario);
  EXPECT_EQ(net.flat_parameters(), before);
}

TEST(GreedyEpisodeTrans1, ZeroBerBehavesLikeClean) {
  Network net = always_right();
  ChainEnv env(4);
  Rng rng(3);
  InferenceFaultScenario scenario;
  scenario.spec.model = FaultModel::TransientSingleStep;
  scenario.spec.ber = 0.0;
  const EpisodeStats stats = greedy_episode_trans1(net, env, rng, 50, scenario);
  EXPECT_TRUE(stats.success);
  EXPECT_EQ(stats.steps, 4u);
}

TEST(StaticFault, CorruptsAndOptionallyRepairs) {
  Rng init(4);
  Network net = make_gridworld_policy(init);
  const RangeAnomalyDetector detector(net, {.margin = 0.10});

  Network corrupted = net.clone();
  InferenceFaultScenario scenario;
  scenario.spec.model = FaultModel::TransientPersistent;
  scenario.spec.ber = 0.05;
  Rng rng(5);
  const InjectionReport r =
      apply_static_inference_fault(corrupted, scenario, rng);
  EXPECT_GT(r.bits_flipped, 0u);
  EXPECT_NE(corrupted.flat_parameters(), net.flat_parameters());

  // With the detector attached, no out-of-range weight survives.
  Network repaired = net.clone();
  scenario.detector = &detector;
  Rng rng2(5);
  apply_static_inference_fault(repaired, scenario, rng2);
  EXPECT_TRUE(detector.base_out_of_range(repaired.flat_parameters()).empty());
}

TEST(StaticFault, DefaultDeploymentIsFixedPoint16) {
  Rng init(6);
  Network net = make_gridworld_policy(init);
  InferenceFaultScenario scenario;
  scenario.spec.ber = 0.0;
  Rng rng(7);
  const InjectionReport r = apply_static_inference_fault(net, scenario, rng);
  EXPECT_EQ(r.bits_flipped, 0u);
  EXPECT_EQ(r.bits_total, net.parameter_count() * 16);  // 16-bit words
}

TEST(StaticFault, Int8PathUsesByteWords) {
  Rng init(8);
  Network net = make_gridworld_policy(init);
  InferenceFaultScenario scenario;
  scenario.spec.ber = 0.0;
  scenario.use_int8 = true;
  Rng rng(9);
  const InjectionReport r = apply_static_inference_fault(net, scenario, rng);
  EXPECT_EQ(r.bits_total, net.parameter_count() * 8);
}

TEST(ArgmaxRow, MatchesTensorArgmaxOnNaNAndInf) {
  // The single shared tie/NaN rule: every pattern fault injection can
  // produce (NaN-leading, NaN-interior, +/-Inf, all-NaN) must pick the
  // same index through argmax_row and Tensor::argmax.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::vector<float>> rows = {
      {nan, 5.0f, 3.0f}, {5.0f, nan, 7.0f},   {5.0f, nan, 3.0f},
      {nan, nan, nan},   {-inf, -5.0f, -inf}, {inf, 3.0f, inf},
      {3.0f, 3.0f, 1.0f}, {-inf, nan, 2.0f}};
  for (const auto& row : rows) {
    const Tensor t = testing::tensor_of(row);
    EXPECT_EQ(argmax_row(row.data(), row.size()), t.argmax())
        << "row starting " << row[0];
  }
}

TEST(GreedyBatched, NaNLogitsMatchSerialEpisode) {
  // A policy whose injected weights drive some logits to NaN/Inf must
  // take identical trajectories on the batched and single-sample paths.
  // The batched runner previously hand-rolled its row argmax; that loop
  // happened to match Tensor::argmax's IEEE semantics, but nothing pinned
  // the two — this test and the shared argmax_row helper do.
  Rng rng(21);
  Network net;
  auto d = std::make_unique<Dense>(1, 4, rng);
  // Logits per step: [NaN, +Inf, finite, NaN-ish mix] via weight times a
  // positive observation plus bias.
  d->weight().value = testing::tensor_of({std::nanf(""), 0.0f, 1.0f, 0.0f});
  d->weight().value = d->weight().value.reshaped({4, 1});
  d->bias().value = testing::tensor_of(
      {0.0f, std::numeric_limits<float>::infinity(), 0.5f,
       -std::numeric_limits<float>::infinity()});
  net.add(std::move(d));

  const std::size_t lanes = 3, max_steps = 12;
  std::vector<EpisodeStats> serial;
  for (std::size_t i = 0; i < lanes; ++i) {
    BanditEnv env(4, /*best=*/1);
    Rng r = Rng(50).split(i);
    serial.push_back(greedy_episode(net, env, r, max_steps));
  }
  std::vector<std::unique_ptr<BanditEnv>> envs;
  std::vector<Environment*> ptrs;
  std::vector<Rng> rngs;
  for (std::size_t i = 0; i < lanes; ++i) {
    envs.push_back(std::make_unique<BanditEnv>(4, 1));
    ptrs.push_back(envs.back().get());
    rngs.push_back(Rng(50).split(i));
  }
  const std::vector<EpisodeStats> batched =
      greedy_episodes_batched(net, ptrs, rngs, max_steps);
  ASSERT_EQ(batched.size(), serial.size());
  for (std::size_t i = 0; i < lanes; ++i) {
    EXPECT_EQ(batched[i].steps, serial[i].steps) << "lane " << i;
    EXPECT_EQ(batched[i].success, serial[i].success) << "lane " << i;
    EXPECT_EQ(batched[i].total_reward, serial[i].total_reward) << "lane " << i;
  }
}

TEST(BatchedCampaign, TrialsMatchSerialEpisodesOnDerivedStreams) {
  // High slip probability makes every trajectory depend heavily on its
  // (agent, trial) RNG stream, so any misassigned stream would show. The
  // shapes run the one lockstep narrow throughout (2 x 3), from exactly
  // the wide-kernel width down (1 x 8), and from wide to narrow as lanes
  // land (9 x 5).
  Rng init(30);
  Network policy = make_gridworld_policy(init);
  const std::vector<GridLayout> suite = GridLayout::paper_suite();
  GridWorldEnv::Options opts;
  opts.slip_probability = 0.35;
  const auto metric = [](const EpisodeStats& stats) {
    return static_cast<double>(stats.total_reward) +
           static_cast<double>(stats.steps);
  };
  const std::pair<std::size_t, std::size_t> shapes[] = {{9, 5}, {2, 3}, {1, 8}};
  for (const auto& [episodes, agents] : shapes) {
    BatchedCampaignSpec spec;
    spec.episodes = episodes;
    spec.agents = agents;
    spec.max_steps = 30;
    spec.seed = 77;
    const std::vector<double> campaign = run_batched_inference_campaign(
        policy, spec,
        [&](std::size_t a) {
          return std::make_unique<GridWorldEnv>(suite[a % suite.size()], opts);
        },
        [&](std::size_t, const Environment&, const EpisodeStats& stats) {
          return metric(stats);
        });
    ASSERT_EQ(campaign.size(), episodes * agents);
    // The streams actually bite: not all lane-trials coincide.
    bool varied = false;
    for (const double m : campaign) varied = varied || m != campaign[0];
    EXPECT_TRUE(varied);
    // Trial t / agent a is one serial greedy episode on the derived stream
    // Rng(seed).derive_stream({rng_salt + a, t}).
    for (std::size_t a = 0; a < agents; ++a) {
      GridWorldEnv env(suite[a % suite.size()], opts);
      for (std::size_t t = 0; t < episodes; ++t) {
        Rng rng = Rng(spec.seed).derive_stream({spec.rng_salt + a, t});
        EXPECT_EQ(campaign[t * agents + a],
                  metric(greedy_episode(policy, env, rng, spec.max_steps)))
            << episodes << "x" << agents << " trial " << t << " agent " << a;
      }
    }
  }
}

TEST(BatchedCampaign, Trans1LeavesPolicyUntouched) {
  // Trans-1 corrupts a lane's weights for one read mid-trial; the
  // campaign must isolate that per lane: the caller's policy is untouched
  // and a rerun reproduces every metric.
  Network policy = always_right();  // 1-feature input, matching ChainEnv
  const std::vector<float> before = policy.flat_parameters();
  InferenceFaultScenario scenario;
  scenario.spec.model = FaultModel::TransientSingleStep;
  scenario.spec.ber = 0.2;
  const auto run = [&] {
    BatchedCampaignSpec spec;
    spec.episodes = 6;
    spec.agents = 3;
    spec.max_steps = 25;
    spec.seed = 91;
    spec.trans1 = &scenario;
    return run_batched_inference_campaign(
        policy, spec,
        [](std::size_t) { return std::make_unique<ChainEnv>(5); },
        [](std::size_t, const Environment&, const EpisodeStats& stats) {
          return static_cast<double>(stats.steps);
        });
  };
  const std::vector<double> first = run();
  EXPECT_EQ(run(), first);
  EXPECT_EQ(policy.flat_parameters(), before);
}

TEST(BatchedCampaign, NarrowLockstepsOnPoolLanesMatchSerial) {
  // Campaign cells on four pool lanes, each a lockstep of 2 to 7 lanes
  // (the Dense strip kernel's single-strip widths), half of them under
  // Trans-1 strikes that split the lockstep into per-view runs. Every
  // cell's metrics must equal the same cells run serially.
  Rng init(31);
  const Network policy = make_gridworld_policy(init);
  const std::vector<GridLayout> suite = GridLayout::paper_suite();
  GridWorldEnv::Options opts;
  opts.slip_probability = 0.35;
  InferenceFaultScenario scenario;
  scenario.spec.model = FaultModel::TransientSingleStep;
  scenario.spec.ber = 0.02;
  scenario.use_int8 = true;
  const auto cell = [&](std::size_t c) {
    BatchedCampaignSpec spec;
    spec.episodes = 2 + c % 6;
    spec.max_steps = 30;
    spec.seed = 500 + c;
    spec.trans1 = c % 2 == 0 ? &scenario : nullptr;
    const std::vector<double> metrics = run_batched_inference_campaign(
        policy, spec,
        [&](std::size_t) {
          return std::make_unique<GridWorldEnv>(suite[c % suite.size()], opts);
        },
        [](std::size_t, const Environment&, const EpisodeStats& stats) {
          return static_cast<double>(stats.total_reward) +
                 1e-3 * static_cast<double>(stats.steps);
        });
    double acc = 0.0;
    for (std::size_t l = 0; l < metrics.size(); ++l)
      acc += metrics[l] * static_cast<double>(l + 1);
    return acc;
  };
  EXPECT_EQ(run_cell_campaign(12, 4, cell), run_cell_campaign(12, 1, cell));
}

TEST(StaticFault, FixedPointFlipsCreateOutOfRangeOutliers) {
  // The mechanism behind §V-B: high-bit flips in the Q(1,7,8) deployment
  // produce values far outside the trained weight range, which the range
  // detector can see.
  Rng init(10);
  Network net = make_gridworld_policy(init);
  RangeAnomalyDetector detector(net, {.margin = 0.10});
  InferenceFaultScenario scenario;
  scenario.spec.model = FaultModel::TransientPersistent;
  scenario.spec.ber = 0.01;
  Network corrupted = net.clone();
  Rng rng(11);
  apply_static_inference_fault(corrupted, scenario, rng);
  EXPECT_FALSE(detector.base_out_of_range(corrupted.flat_parameters()).empty());
}

}  // namespace
}  // namespace frlfi
