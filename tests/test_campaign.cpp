#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace frlfi {
namespace {

// A cell function with enough arithmetic that any ordering bug would show
// up in the low bits: cell c draws from its own (seed, c) stream.
std::function<double(std::size_t)> synthetic_cell(std::uint64_t seed) {
  return [seed](std::size_t c) {
    Rng rng = Rng(seed).split(c);
    double acc = 0.0;
    for (int i = 0; i < 50; ++i)
      acc += rng.uniform() * 1e-3 + rng.uniform() * 1e-6;
    return acc;
  };
}

TEST(CellCampaign, RunsEveryCellOnce) {
  std::vector<std::atomic<int>> hits(17);
  const std::vector<double> metrics =
      run_cell_campaign(17, 4, [&](std::size_t c) {
        hits[c].fetch_add(1);
        return static_cast<double>(c);
      });
  ASSERT_EQ(metrics.size(), 17u);
  for (std::size_t c = 0; c < 17; ++c) {
    EXPECT_EQ(hits[c].load(), 1) << "cell " << c;
    EXPECT_EQ(metrics[c], static_cast<double>(c));
  }
}

TEST(CellCampaign, MetricsAreCellOrderedAndThreadCountInvariant) {
  // The heatmap-sweep outer loop: each cell's metric depends only on its
  // index, so any fan-out returns identical cell-order bits.
  const auto cell_fn = [](std::size_t c) {
    Rng rng(1000 + c);
    double acc = static_cast<double>(c);
    for (int i = 0; i < 50; ++i) acc += rng.uniform();
    return acc;
  };
  const std::vector<double> serial = run_cell_campaign(23, 1, cell_fn);
  ASSERT_EQ(serial.size(), 23u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{7},
                                    std::size_t{16}}) {
    EXPECT_EQ(run_cell_campaign(23, threads, cell_fn), serial)
        << "threads " << threads;
  }
  setenv("FRLFI_NUM_THREADS", "3", 1);
  EXPECT_EQ(run_cell_campaign(23, 0, cell_fn), serial);
  unsetenv("FRLFI_NUM_THREADS");
}

TEST(CellCampaign, ParallelBitIdenticalToSerialAcrossThreadCounts) {
  for (const std::uint64_t seed : {1ull, 42ull, 987654321ull}) {
    const auto cell_fn = synthetic_cell(seed);
    const std::vector<double> want = run_cell_campaign(257, 1, cell_fn);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{3},
                                      std::size_t{4}, std::size_t{8}}) {
      EXPECT_EQ(run_cell_campaign(257, threads, cell_fn), want)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(CellCampaign, ParallelFewerCellsThanThreads) {
  const auto cell_fn = synthetic_cell(7);
  EXPECT_EQ(run_cell_campaign(3, 16, cell_fn),
            run_cell_campaign(3, 1, cell_fn));
  EXPECT_EQ(run_cell_campaign(1, 4, cell_fn), run_cell_campaign(1, 1, cell_fn));
}

TEST(CellCampaign, AutoThreadsHonorsEnvKnob) {
  const auto cell_fn = synthetic_cell(5);
  const std::vector<double> serial = run_cell_campaign(40, 1, cell_fn);
  setenv("FRLFI_NUM_THREADS", "3", 1);
  EXPECT_EQ(run_cell_campaign(40, 0, cell_fn), serial);
  unsetenv("FRLFI_NUM_THREADS");
}

TEST(CellCampaign, RejectsInvalidArguments) {
  EXPECT_THROW(run_cell_campaign(0, 1, [](std::size_t) { return 0.0; }),
               Error);
  EXPECT_THROW(run_cell_campaign(0, 4, [](std::size_t) { return 0.0; }),
               Error);
  EXPECT_THROW(
      run_cell_campaign(1, 1, std::function<double(std::size_t)>()), Error);
}

TEST(CellCampaign, ParallelCellExceptionPropagates) {
  EXPECT_THROW(run_cell_campaign(100, 4,
                                 [](std::size_t c) -> double {
                                   Rng rng = Rng(2).split(c);
                                   if (rng.uniform() < 0.5)
                                     throw Error("cell blew up");
                                   return 0.0;
                                 }),
               Error);
}

}  // namespace
}  // namespace frlfi
