#pragma once

/// \file sweeps.hpp
/// The paper's training-fault experiment (Fig. 3, 5, 6a and 7): a fault
/// struck at one training episode, over a (BER) x (fault episode) grid,
/// with or without the §V-A mitigation, on either FRL system. Each cell
/// trains fresh systems and reports the trial mean of the system's metric:
/// GridWorld success rate [%], DroneNav safe flight distance [m].

#include <cstdint>
#include <vector>

#include "bench_util.hpp"
#include "core/table.hpp"
#include "fault/model.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"

namespace frlfi::bench {

/// One training-fault grid. The system's own Config carries the agent
/// count and the per-cell training lanes (`threads`).
struct Sweep {
  FaultSite site = FaultSite::ServerFault;
  /// Training episodes per cell.
  std::size_t episodes = 0;
  /// Rows: GridWorld BERs in percent, DroneNav BERs as fractions. A zero
  /// row trains without a fault.
  std::vector<double> bers;
  /// Columns: fault-injection episodes.
  std::vector<std::size_t> columns;
  /// Enable server checkpointing + reward-drop detection (Fig. 7).
  bool mitigation = false;
  /// Repetitions per cell; trial t builds its systems on seed + 1000 t.
  std::size_t trials = 1;
  std::uint64_t seed = 42;
  /// Worker lanes for the cell grid (run_cell_campaign: 1 serial, 0
  /// every hardware thread, N explicit); metrics are bit-identical for
  /// every value.
  std::size_t threads = 1;
};

/// The Fig. 3 / 7a GridWorld grid (1000 episodes, the paper's ten BER
/// rows) or its --fast cut (500 episodes, 3 x 3 cells), run with the
/// trials, seed and cell threads of `args`.
Sweep gridworld_panel(const BenchArgs& args);

/// The Fig. 5 / 7b DroneNav grid (150 fine-tuning episodes, a 40x
/// scale-down of the paper's 6000; early/middle/late columns) or its
/// --fast cut (60 episodes), run like gridworld_panel.
Sweep drone_panel(const BenchArgs& args);

/// Trial means of every (BER row, column) cell, row-major. `Config` is
/// GridWorldFrlSystem::Config or DroneFrlSystem::Config.
template <typename Config>
std::vector<double> sweep_cells(const Config& cfg, const Sweep& sweep);

/// sweep_cells laid out as the paper panel's titled heatmap.
template <typename Config>
Heatmap sweep_heatmap(const Config& cfg, const Sweep& sweep);

/// A Trans-M fault at `site` with bit error rate `ber`, struck during
/// training episode `episode`.
TrainingFaultPlan training_fault(FaultSite site, double ber,
                                 std::size_t episode);

}  // namespace frlfi::bench
