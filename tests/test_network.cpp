#include "nn/network.hpp"

#include <gtest/gtest.h>


#include "core/error.hpp"
#include "frl/policies.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

Network small_net(Rng& rng) {
  Network net;
  net.add(std::make_unique<Dense>(3, 4, rng, "a"))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Dense>(4, 2, rng, "b"));
  return net;
}

TEST(Network, ForwardShapesAndLayerAccess) {
  Rng rng(1);
  Network net = small_net(rng);
  EXPECT_EQ(net.layer_count(), 3u);
  const Tensor y = net.forward(testing::filled({3}, 0.5f));
  EXPECT_EQ(y.size(), 2u);
  EXPECT_THROW(net.layer(3), Error);
}

TEST(Network, EmptyNetworkRejectsUse) {
  Network net;
  EXPECT_THROW(net.forward(testing::filled({1}, 0.0f)), Error);
  Tape tape;
  EXPECT_THROW(net.forward(testing::filled({1}, 0.0f), tape), Error);
  EXPECT_THROW(net.backward(testing::filled({1}, 0.0f), tape, 0), Error);
  EXPECT_THROW(net.add(nullptr), Error);
}

TEST(Network, ParameterCountMatchesTopology) {
  Rng rng(2);
  Network net = small_net(rng);
  EXPECT_EQ(net.parameter_count(), 3u * 4 + 4 + 4 * 2 + 2);
  EXPECT_EQ(net.parameters().size(), 4u);  // two weights, two biases
}

TEST(Network, FlatParametersRoundTrip) {
  Rng rng(3);
  Network net = small_net(rng);
  std::vector<float> flat = net.flat_parameters();
  ASSERT_EQ(flat.size(), net.parameter_count());
  for (auto& v : flat) v += 1.0f;
  net.set_flat_parameters(flat);
  EXPECT_EQ(net.flat_parameters(), flat);
}

TEST(Network, SetFlatRejectsWrongSize) {
  Rng rng(4);
  Network net = small_net(rng);
  EXPECT_THROW(net.set_flat_parameters(std::vector<float>(3)), Error);
}

TEST(Network, CloneIsDeepAndIndependent) {
  Rng rng(5);
  Network net = small_net(rng);
  Network copy = net.clone();
  EXPECT_EQ(copy.flat_parameters(), net.flat_parameters());
  std::vector<float> flat = copy.flat_parameters();
  flat[0] += 9.0f;
  copy.set_flat_parameters(flat);
  EXPECT_NE(copy.flat_parameters(), net.flat_parameters());
}

TEST(Network, CloneComputesSameOutputs) {
  Rng rng(6);
  Network net = small_net(rng);
  Network copy = net.clone();
  const Tensor x = Tensor::random_uniform({3}, rng, -1, 1);
  EXPECT_EQ(net.forward(x).data(), copy.forward(x).data());
}

TEST(Network, ZeroGradClearsAccumulators) {
  Rng rng(7);
  Network net = small_net(rng);
  Tape tape;
  net.forward(testing::filled({3}, 1.0f), tape);
  net.backward(testing::filled({2}, 1.0f), tape, 0);
  bool any_nonzero = false;
  for (Parameter* p : net.parameters())
    for (float g : p->grad.data()) any_nonzero |= (g != 0.0f);
  EXPECT_TRUE(any_nonzero);
  net.zero_grad();
  for (Parameter* p : net.parameters())
    for (float g : p->grad.data()) EXPECT_EQ(g, 0.0f);
}

TEST(Network, ActivationHookSeesEveryLayer) {
  Rng rng(8);
  Network net = small_net(rng);
  std::vector<std::size_t> seen;
  net.set_activation_hook([&](std::size_t i, Tensor&) { seen.push_back(i); });
  net.forward(testing::filled({3}, 1.0f));
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Network, ActivationHookCanMutate) {
  Rng rng(9);
  Network net = small_net(rng);
  const Tensor clean = net.forward(testing::filled({3}, 1.0f));
  net.set_activation_hook([](std::size_t i, Tensor& act) {
    if (i == 2) act.fill(0.0f);  // zero the final output
  });
  const Tensor hooked = net.forward(testing::filled({3}, 1.0f));
  EXPECT_EQ(testing::sum_of(hooked), 0.0f);
  net.set_activation_hook(nullptr);
  EXPECT_EQ(net.forward(testing::filled({3}, 1.0f)).data(), clean.data());
}

TEST(Network, GridworldPolicyTopology) {
  Rng rng(12);
  Network net = make_gridworld_policy(rng);
  const Tensor y = net.forward(testing::filled({10}, 0.0f));
  EXPECT_EQ(y.size(), 4u);
}

TEST(Network, DronePolicyTopology) {
  Rng rng(13);
  Network net = make_drone_policy(rng);
  const Tensor y = net.forward(testing::filled({3, 18, 32}, 0.1f));
  EXPECT_EQ(y.size(), 25u);
}

}  // namespace
}  // namespace frlfi
