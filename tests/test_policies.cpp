#include "frl/policies.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

namespace frlfi {
namespace {

TEST(GridworldPolicy, TopologyAndDeterminism) {
  Rng a(1), b(1);
  Network na = make_gridworld_policy(a);
  Network nb = make_gridworld_policy(b);
  EXPECT_EQ(na.flat_parameters(), nb.flat_parameters());
  EXPECT_EQ(na.layer_count(), 5u);
  const Tensor y = na.forward(testing::filled({10}, 0.5f));
  EXPECT_EQ(y.size(), 4u);
}

TEST(GridworldPolicy, ParameterCount) {
  Rng rng(2);
  Network net = make_gridworld_policy(rng);
  // 10*32+32 + 32*32+32 + 32*4+4
  EXPECT_EQ(net.parameter_count(), 352u + 1056u + 132u);
}

TEST(DronePolicy, TopologyMatchesPaper) {
  // 3 Conv + 2 FC, 25 action logits from the (3,18,32) camera image.
  Rng rng(3);
  Network net = make_drone_policy(rng);
  EXPECT_EQ(net.layer_count(), 10u);  // convs, relus, flatten, denses
  const Tensor y = net.forward(testing::filled({3, 18, 32}, 0.2f));
  EXPECT_EQ(y.size(), 25u);
}

TEST(DronePolicy, DifferentSeedsDifferentWeights) {
  Rng a(1), b(2);
  EXPECT_NE(make_drone_policy(a).flat_parameters(),
            make_drone_policy(b).flat_parameters());
}

TEST(DronePolicy, BackwardRunsThroughConvStack) {
  Rng rng(4);
  Network net = make_drone_policy(rng);
  net.forward(testing::filled({3, 18, 32}, 0.1f));
  const Tensor g =
      testing::backward_through_layers(net, testing::filled({25}, 1.0f));
  EXPECT_EQ(g.shape(), (std::vector<std::size_t>{3, 18, 32}));
}

}  // namespace
}  // namespace frlfi
