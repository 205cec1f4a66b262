/// \file test_forward_golden.cpp
/// Golden digests of single-sample inference through weight views on both
/// paper policies. The digests were recorded from the dedicated
/// single-sample view forward that the width-1 batched entry replaced, so
/// they pin the width-1 Network::forward_batch to that older code
/// bit-for-bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/overlay.hpp"
#include "frl/policies.hpp"
#include "nn/network.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

constexpr std::size_t kObservations = 8;
// Every 53rd parameter is overlaid: the stride is below every weight span
// of both policies, so each conv and dense layer reads patched values.
constexpr std::size_t kOverlayStride = 53;

std::vector<Tensor> seeded_observations(const std::vector<std::size_t>& shape,
                                        std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> obs;
  for (std::size_t i = 0; i < kObservations; ++i)
    obs.push_back(Tensor::random_uniform(shape, rng, -1.0f, 1.0f));
  return obs;
}

Tensor as_batch(const Tensor& obs) {
  std::vector<std::size_t> shape{1};
  shape.insert(shape.end(), obs.shape().begin(), obs.shape().end());
  return obs.reshaped(std::move(shape));
}

Tensor view_logits(Network& net, const Tensor& obs, const WeightView& view) {
  const WeightView* lane[] = {&view};
  return net.forward_batch(as_batch(obs), 1, nullptr, lane);
}

struct Digests {
  std::uint64_t clean_view, overlay_view;
};

Digests policy_digests(Network& net, const std::vector<Tensor>& obs) {
  const std::vector<float> flat = net.flat_parameters();
  WeightOverlay overlay;
  for (std::size_t i = 0; i < flat.size(); i += kOverlayStride)
    overlay.add(i, -3.0f * flat[i] + 0.25f);
  const WeightView clean{flat.data(), flat.size(), nullptr};
  const WeightView struck{flat.data(), flat.size(), &overlay};

  testing::Digest dv, dov;
  for (const Tensor& o : obs) {
    testing::add_tensor(dv, view_logits(net, o, clean));
    testing::add_tensor(dov, view_logits(net, o, struck));
  }
  return {dv.value(), dov.value()};
}

// The digests pin the portable build's rounding; an FMA-contracting
// native build computes different (equally valid) bits.
TEST(ForwardGolden, GridworldPolicyWidthOneForwards) {
#ifdef __FMA__
  GTEST_SKIP() << "digests are recorded for the portable (no-FMA) build";
#endif
  Rng init(2024);
  Network net = make_gridworld_policy(init);
  const Digests d = policy_digests(net, seeded_observations({10}, 7));
  EXPECT_EQ(d.clean_view, 0xB2AE66B6F5F6D0CBULL);
  EXPECT_EQ(d.overlay_view, 0x22D2F8A47666BF02ULL);
}

TEST(ForwardGolden, DronePolicyWidthOneForwards) {
#ifdef __FMA__
  GTEST_SKIP() << "digests are recorded for the portable (no-FMA) build";
#endif
  Rng init(2025);
  Network net = make_drone_policy(init);
  const Digests d = policy_digests(net, seeded_observations({3, 18, 32}, 8));
  if (!testing::narrow_reduction_is_portable())
    GTEST_SKIP() << "digests are recorded for the portable build's "
                    "narrow-GEMM reduction tree";
  EXPECT_EQ(d.clean_view, 0x83BBA96FE51C4420ULL);
  EXPECT_EQ(d.overlay_view, 0x5F04CA8C68522DC7ULL);
}

}  // namespace
}  // namespace frlfi
