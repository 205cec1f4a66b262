#pragma once

/// \file drone_sweeps.hpp
/// Reusable DroneNav campaign sweeps shared by the Fig. 5 / Fig. 7b
/// benches: (fault episode) x (BER) safe-flight-distance heatmaps.
///
/// Scale note: the paper fine-tunes for 6000 episodes; the default here is
/// 150, a 40x scale-down for runtime. Columns are placed proportionally
/// across the fine-tuning span.

#include <cstdint>
#include <vector>

#include "core/table.hpp"
#include "fault/model.hpp"
#include "frl/drone_system.hpp"

namespace frlfi::bench {

/// Configuration of one DroneNav training-fault heatmap campaign.
struct DroneSweepConfig {
  FaultSite site = FaultSite::ServerFault;
  /// 1 => single-drone system (Fig. 5c).
  std::size_t n_drones = 4;
  /// Online fine-tuning episodes (paper: 6000).
  std::size_t episodes = 150;
  /// Fault-injection episodes. Empty => early/middle/late thirds.
  std::vector<std::size_t> columns;
  /// BER rows. Empty => {0, 1e-4, 1e-3, 1e-2, 1e-1} (paper rows).
  std::vector<double> bers;
  /// Greedy evaluation episodes per drone per cell.
  std::size_t eval_episodes = 4;
  std::size_t trials = 1;
  std::uint64_t seed = 42;
  /// Worker lanes for the (BER x episode) cell grid (run_cell_campaign:
  /// 1 serial, 0 auto, N explicit). Cells share only the thread-safe
  /// pretraining cache, so metrics are bit-identical for every value.
  std::size_t threads = 1;
  /// Worker lanes for the per-drone episodes inside each cell's train()
  /// (DroneFrlSystem::Config::threads — the federated round engine).
  /// Composes with `threads`, bit-identical for every value.
  std::size_t train_threads = 1;
  /// Enable mitigation (Fig. 7b); paper parameters p=25, k=200 (k scaled).
  bool mitigation = false;
};

/// Run the campaign and return the flight-distance heatmap (metres).
Heatmap run_drone_training_sweep(const DroneSweepConfig& cfg);

/// The shared DroneFrlSystem configuration used across all drone benches
/// (so the cached offline pretraining is reused process-wide).
DroneFrlSystem::Config bench_drone_config(std::size_t n_drones);

}  // namespace frlfi::bench
