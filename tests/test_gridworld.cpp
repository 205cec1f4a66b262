#include "envs/gridworld.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"

namespace frlfi {
namespace {

/// Number of Hell cells in `l`.
int hells(const GridLayout& l) {
  int n = 0;
  for (int r = 0; r < GridLayout::kSize; ++r)
    for (int c = 0; c < GridLayout::kSize; ++c) n += l.at(r, c) == Cell::Hell;
  return n;
}

TEST(GridLayout, DefaultIsFreeAndSolvable) {
  GridLayout l;
  EXPECT_EQ(hells(l), 0);
  EXPECT_TRUE(l.is_solvable());
  EXPECT_EQ(l.at(0, 0), Cell::Source);
  EXPECT_EQ(l.at(9, 9), Cell::Goal);
}

TEST(GridLayout, BoundaryReadsAsHell) {
  GridLayout l;
  EXPECT_EQ(l.at(-1, 0), Cell::Hell);
  EXPECT_EQ(l.at(0, 10), Cell::Hell);
}

TEST(GridLayout, SetRelocatesMarkers) {
  GridLayout l;
  l.set(5, 5, Cell::Source);
  EXPECT_EQ(l.source(), (GridPos{5, 5}));
  EXPECT_EQ(l.at(0, 0), Cell::Free);
  l.set(2, 3, Cell::Goal);
  EXPECT_EQ(l.goal(), (GridPos{2, 3}));
}

TEST(GridLayout, SetOutOfRangeThrows) {
  GridLayout l;
  EXPECT_THROW(l.set(10, 0, Cell::Hell), Error);
}

TEST(GridLayout, WalledOffGoalIsUnsolvable) {
  GridLayout l;
  l.set(0, 0, Cell::Source);
  l.set(9, 9, Cell::Goal);
  l.set(8, 9, Cell::Hell);
  l.set(8, 8, Cell::Hell);
  l.set(9, 8, Cell::Hell);
  EXPECT_FALSE(l.is_solvable());
}

TEST(GridLayout, RandomProducesRequestedObstacles) {
  Rng rng(1);
  const GridLayout l = GridLayout::random(rng, 7);
  EXPECT_EQ(hells(l), 7);
  EXPECT_TRUE(l.is_solvable());
  EXPECT_TRUE(l.reactively_solvable());
}

TEST(GridLayout, RandomObstaclesAreIsolated) {
  Rng rng(2);
  const GridLayout l = GridLayout::random(rng, 8);
  for (int r = 0; r < GridLayout::kSize; ++r) {
    for (int c = 0; c < GridLayout::kSize; ++c) {
      if (l.at(r, c) != Cell::Hell) continue;
      for (int dr = -1; dr <= 1; ++dr)
        for (int dc = -1; dc <= 1; ++dc) {
          if (!dr && !dc) continue;
          const int rr = r + dr, cc = c + dc;
          if (rr < 0 || rr >= GridLayout::kSize || cc < 0 ||
              cc >= GridLayout::kSize)
            continue;
          EXPECT_NE(l.at(rr, cc), Cell::Hell)
              << "adjacent hells at (" << r << "," << c << ")";
        }
    }
  }
}

TEST(GridLayout, PaperSuiteHasTwelveSolvableEnvs) {
  const auto suite = GridLayout::paper_suite();
  ASSERT_EQ(suite.size(), 12u);
  for (const auto& env : suite) {
    EXPECT_TRUE(env.is_solvable());
    EXPECT_TRUE(env.reactively_solvable());
    EXPECT_FALSE(env.source() == env.goal());
  }
}

TEST(GridLayout, PaperSuiteIsDeterministic) {
  const auto a = GridLayout::paper_suite();
  const auto b = GridLayout::paper_suite();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].source() == b[i].source());
    EXPECT_TRUE(a[i].goal() == b[i].goal());
    EXPECT_EQ(hells(a[i]), hells(b[i]));
  }
}

TEST(GridLayout, PaperSuiteSharesMazesAcrossVariants) {
  // Environments 3k..3k+2 share maze k's obstacle field.
  const auto suite = GridLayout::paper_suite();
  for (int maze = 0; maze < 4; ++maze)
    EXPECT_EQ(hells(suite[maze * 3]), hells(suite[maze * 3 + 1]));
}

GridWorldEnv::Options no_slip() {
  GridWorldEnv::Options o;
  o.slip_probability = 0.0;
  return o;
}

TEST(GridWorldEnv, ResetStartsAtSource) {
  GridLayout l;
  l.set(4, 4, Cell::Source);
  GridWorldEnv env(l, no_slip());
  Rng rng(1);
  env.reset(rng);
  EXPECT_EQ(env.position(), (GridPos{4, 4}));
}

TEST(GridWorldEnv, ObservationEncodesNeighboursAndGoalDirection) {
  GridLayout l;
  l.set(5, 5, Cell::Source);
  l.set(4, 5, Cell::Hell);  // up
  l.set(9, 9, Cell::Goal);  // down-right of agent
  GridWorldEnv env(l, no_slip());
  Rng rng(1);
  const Tensor obs = env.reset(rng);
  ASSERT_EQ(obs.size(), GridWorldEnv::kObservationSize);
  EXPECT_FLOAT_EQ(obs[0], -1.0f);  // up = hell
  EXPECT_FLOAT_EQ(obs[1], 0.0f);   // down free
  EXPECT_FLOAT_EQ(obs[8], 1.0f);   // goal is below
  EXPECT_FLOAT_EQ(obs[9], 1.0f);   // goal is to the right
}

TEST(GridWorldEnv, GoalVisibleInObservation) {
  GridLayout l;
  l.set(5, 5, Cell::Source);
  l.set(5, 6, Cell::Goal);  // right
  GridWorldEnv env(l, no_slip());
  Rng rng(1);
  const Tensor obs = env.reset(rng);
  EXPECT_FLOAT_EQ(obs[2], 1.0f);
}

TEST(GridWorldEnv, StepRewardsMatchPaper) {
  GridLayout l;
  l.set(5, 5, Cell::Source);
  l.set(0, 0, Cell::Goal);
  GridWorldEnv env(l, no_slip());
  Rng rng(1);
  env.reset(rng);
  // Moving up (toward goal): +0.1.
  EXPECT_FLOAT_EQ(env.step(0, rng).reward, 0.1f);
  // Moving down (away): -0.1.
  EXPECT_FLOAT_EQ(env.step(1, rng).reward, -0.1f);
}

TEST(GridWorldEnv, CrashIntoHellEndsEpisode) {
  GridLayout l;
  l.set(5, 5, Cell::Source);
  l.set(4, 5, Cell::Hell);
  GridWorldEnv env(l, no_slip());
  Rng rng(1);
  env.reset(rng);
  const StepResult r = env.step(0, rng);  // up into hell
  EXPECT_FLOAT_EQ(r.reward, -1.0f);
  EXPECT_TRUE(r.done);
  EXPECT_FALSE(r.success);
  EXPECT_THROW(env.step(0, rng), Error);  // stepping after done
}

TEST(GridWorldEnv, ReachingGoalSucceeds) {
  GridLayout l;
  l.set(5, 5, Cell::Source);
  l.set(5, 6, Cell::Goal);
  GridWorldEnv env(l, no_slip());
  Rng rng(1);
  env.reset(rng);
  const StepResult r = env.step(2, rng);  // right into goal
  EXPECT_FLOAT_EQ(r.reward, 1.0f);
  EXPECT_TRUE(r.done);
  EXPECT_TRUE(r.success);
}

TEST(GridWorldEnv, BoundaryAbsorbsMove) {
  GridLayout l;
  l.set(0, 5, Cell::Source);
  l.set(9, 5, Cell::Goal);
  GridWorldEnv env(l, no_slip());
  Rng rng(1);
  env.reset(rng);
  const StepResult r = env.step(0, rng);  // up into the wall
  EXPECT_FALSE(r.done);
  EXPECT_FLOAT_EQ(r.reward, -0.1f);
  EXPECT_EQ(env.position(), (GridPos{0, 5}));
}

TEST(GridWorldEnv, StepCapTerminatesAsFailure) {
  GridLayout l;
  l.set(0, 0, Cell::Source);
  l.set(9, 9, Cell::Goal);
  GridWorldEnv::Options o = no_slip();
  o.max_steps = 3;
  GridWorldEnv env(l, o);
  Rng rng(1);
  env.reset(rng);
  env.step(0, rng);  // bump the wall three times
  env.step(0, rng);
  const StepResult r = env.step(0, rng);
  EXPECT_TRUE(r.done);
  EXPECT_FALSE(r.success);
}

TEST(GridWorldEnv, DeterministicWithoutSlip) {
  const auto suite = GridLayout::paper_suite();
  GridWorldEnv a(suite[0], no_slip()), b(suite[0], no_slip());
  Rng ra(5), rb(5);
  a.reset(ra);
  b.reset(rb);
  for (int t = 0; t < 20; ++t) {
    const StepResult sa = a.step(t % 4, ra);
    const StepResult sb = b.step(t % 4, rb);
    EXPECT_EQ(sa.observation.data(), sb.observation.data());
    if (sa.done) break;
  }
}

TEST(GridWorldEnv, UnsolvableLayoutRejected) {
  GridLayout l;
  l.set(0, 0, Cell::Source);
  l.set(9, 9, Cell::Goal);
  l.set(8, 9, Cell::Hell);
  l.set(8, 8, Cell::Hell);
  l.set(9, 8, Cell::Hell);
  EXPECT_THROW(GridWorldEnv(l, no_slip()), Error);
}

TEST(GridWorldEnv, InvalidActionThrows) {
  GridWorldEnv env(GridLayout{}, no_slip());
  Rng rng(1);
  env.reset(rng);
  EXPECT_THROW(env.step(4, rng), Error);
}

/// Property: the reference reactive bot succeeds in every paper-suite
/// environment under every tie-break order.
class ReactiveBotProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReactiveBotProperty, SolvesAllSuiteEnvs) {
  const int order = GetParam();
  for (const auto& env : GridLayout::paper_suite())
    EXPECT_TRUE(env.reactive_bot_solves(order));
}

INSTANTIATE_TEST_SUITE_P(TieBreakOrders, ReactiveBotProperty,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace frlfi
