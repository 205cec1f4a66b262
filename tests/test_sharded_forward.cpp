/// \file test_sharded_forward.cpp
/// Multi-core sharded Network::forward_batch: bit-identity vs the serial
/// batched path and vs single-sample forwards, across thread counts and
/// batch sizes, for clean and fault-injected policies — plus the shard
/// planner's kernel-selection invariant.
///
/// Contract under test (see Network::forward_batch): the sharded forward
/// is bit-identical to the unsharded batched forward for EVERY pool size,
/// because the batch-inner kernels are width-independent and the planner
/// (batch_shard_count) never moves a sub-batch across the layers'
/// wide-kernel threshold.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/parallel.hpp"
#include "frl/policies.hpp"
#include "nn/layer.hpp"
#include "nn/network.hpp"

namespace frlfi {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 4, 7};
const std::size_t kBatches[] = {1, 3, 16, 64};

Tensor random_batch(const std::vector<std::size_t>& sample_shape,
                    std::size_t batch, std::uint64_t seed) {
  std::vector<std::size_t> shape{batch};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  Rng rng(seed);
  return Tensor::random_uniform(shape, rng, -1.0f, 1.0f);
}

// Bit-pattern equality: NaN-carrying outputs (faulted policies) must match
// bit for bit, which float == cannot express (NaN != NaN).
std::uint32_t bits_of(float v) {
  std::uint32_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

void expect_sharded_matches_serial(Network& net,
                                   const std::vector<std::size_t>& sample_shape,
                                   const char* what) {
  for (const std::size_t batch : kBatches) {
    const Tensor x = random_batch(sample_shape, batch, 100 + batch);
    const Tensor serial = net.forward_batch(x, batch);
    for (const std::size_t threads : kThreadCounts) {
      ThreadPool pool(threads);
      const Tensor sharded = net.forward_batch(x, batch, &pool);
      ASSERT_EQ(sharded.shape(), serial.shape()) << what;
      for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(bits_of(sharded[i]), bits_of(serial[i]))
            << what << " batch " << batch << " threads " << threads
            << " elem " << i;
    }
  }
}

TEST(ShardedForward, ShardPlannerAppliesCostModel) {
  // The planner's cost model: every shard must carry at least
  // kBatchShardMinPerShard rows, so small batches stay unsharded (the
  // measured B=16 x 2-thread loss is declined outright) and mid-size
  // batches split onto fewer lanes than the pool offers.
  EXPECT_EQ(batch_shard_count(1, 8), 1u);
  EXPECT_EQ(batch_shard_count(3, 2), 1u);
  EXPECT_EQ(batch_shard_count(7, 16), 1u);
  EXPECT_EQ(batch_shard_count(8, 16), 1u);
  EXPECT_EQ(batch_shard_count(12, 7), 1u);
  // The measured net-loss anchor is declined at any lane count.
  EXPECT_EQ(batch_shard_count(kShardNetLossBatch, kShardNetLossThreads), 1u);
  EXPECT_EQ(batch_shard_count(kShardNetLossBatch, 16), 1u);
  // Just below 2 shards' worth of work stays whole; at 2x it splits.
  EXPECT_EQ(batch_shard_count(2 * kBatchShardMinPerShard - 1, 8), 1u);
  EXPECT_EQ(batch_shard_count(2 * kBatchShardMinPerShard, 8), 2u);
  EXPECT_EQ(batch_shard_count(64, 2), 2u);
  EXPECT_EQ(batch_shard_count(64, 7), 2u);   // cost cap, not lane count
  EXPECT_EQ(batch_shard_count(64, 16), 2u);
  EXPECT_EQ(batch_shard_count(128, 16), 4u);
  EXPECT_EQ(batch_shard_count(256, 4), 4u);  // lane cap binds again
  // No shard of a batch >= kBatchInnerWideKernelMin drops below it, so
  // sharding never moves a sample off the wide kernels.
  for (const std::size_t batch : {3u, 12u, 64u, 65u, 96u, 256u}) {
    for (const std::size_t lanes : {2u, 7u, 16u}) {
      const std::size_t shards = batch_shard_count(batch, lanes);
      for (std::size_t s = 0; s < shards; ++s) {
        std::size_t b, e;
        shard_range(batch, shards, s, b, e);
        if (batch >= kBatchInnerWideKernelMin) {
          EXPECT_GE(e - b, kBatchInnerWideKernelMin)
              << "batch " << batch << " lanes " << lanes << " shard " << s;
        }
        if (shards > 1) {
          EXPECT_GE(e - b, kBatchShardMinPerShard)
              << "batch " << batch << " lanes " << lanes << " shard " << s;
        }
      }
    }
  }
}

TEST(ShardedForward, DronePolicyBitIdentical) {
  Rng rng(1);
  Network net = make_drone_policy(rng);
  expect_sharded_matches_serial(net, {3, 18, 32}, "drone policy");
}

TEST(ShardedForward, GridworldPolicyBitIdentical) {
  Rng rng(2);
  Network net = make_gridworld_policy(rng);
  expect_sharded_matches_serial(net, {10}, "gridworld policy");
}

TEST(ShardedForward, FaultInjectedWeightsBitIdentical) {
  // Corrupted weights (the campaigns' steady state) — including NaN/Inf
  // outliers — must not break shard equivalence: the sharded forward
  // propagates exactly the same corrupted values through every lane.
  Rng rng(3);
  Network net = make_drone_policy(rng);
  std::vector<float> flat = net.flat_parameters();
  for (std::size_t i = 0; i < flat.size(); i += 97)
    flat[i] *= -1024.0f;  // large-magnitude "high-bit flip" outliers
  flat[11] = std::numeric_limits<float>::quiet_NaN();
  flat[201] = std::numeric_limits<float>::infinity();
  flat[401] = -std::numeric_limits<float>::infinity();
  net.set_flat_parameters(flat);
  expect_sharded_matches_serial(net, {3, 18, 32}, "faulted drone policy");
}

TEST(ShardedForward, MatchesSingleSampleForwardsPerRow) {
  // Transitive check pinned directly: sharded rows equal single-sample
  // forwards wherever the batched path itself is exact (the gridworld MLP
  // is bit-exact at every batch size).
  Rng rng(5);
  Network net = make_gridworld_policy(rng);
  const std::size_t batch = 64;
  const Tensor x = random_batch({10}, batch, 6);
  ThreadPool pool(7);
  const Tensor sharded = net.forward_batch(x, batch, &pool);
  const std::size_t out = sharded.size() / batch;
  for (std::size_t b = 0; b < batch; ++b) {
    Tensor sample({10});
    for (std::size_t i = 0; i < 10; ++i) sample[i] = x[b * 10 + i];
    const Tensor y = net.forward(sample);
    ASSERT_EQ(y.size(), out);
    for (std::size_t i = 0; i < out; ++i)
      ASSERT_EQ(sharded[b * out + i], y[i]) << "row " << b << " elem " << i;
  }
}

TEST(ShardedForward, HookSeesEveryLayerOncePerShard) {
  Rng rng(7);
  Network net = make_gridworld_policy(rng);
  const std::size_t batch = 64;
  const Tensor x = random_batch({10}, batch, 8);
  ThreadPool pool(4);
  const std::size_t shards = batch_shard_count(batch, pool.size());
  ASSERT_GT(shards, 1u);
  std::vector<std::atomic<std::size_t>> calls(net.layer_count());
  std::vector<std::atomic<std::size_t>> rows(net.layer_count());
  net.set_activation_hook([&](std::size_t layer, Tensor& act) {
    calls[layer].fetch_add(1);
    // Batch-inner: the innermost dimension is this shard's width.
    rows[layer].fetch_add(act.dim(act.rank() - 1));
  });
  net.forward_batch(x, batch, &pool);
  net.set_activation_hook({});
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    EXPECT_EQ(calls[l].load(), shards) << "layer " << l;
    EXPECT_EQ(rows[l].load(), batch) << "layer " << l;
  }
}

}  // namespace
}  // namespace frlfi
