/// \file bench_fig5_drone_training.cpp
/// Reproduces Fig. 5a/5b/5c: DroneNav training-time fault heatmaps —
/// safe flight distance vs (fault episode) x (BER) for agent faults,
/// server faults, and the single-drone system.
///
/// Paper shape (no-fault ~722 m): agent faults mild (>=649 even at BER
/// 1e-1), server faults worse (down to ~582), single-drone worst (~571),
/// later injection episodes worse.

#include <iostream>

#include "bench_util.hpp"
#include "sweeps.hpp"

using namespace frlfi;
using namespace frlfi::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Fig. 5a/5b/5c",
               "DroneNav training fault heatmaps (safe flight distance [m]; "
               "paper fine-tunes 6000 episodes, here 150 — 40x scale-down)",
               args);

  Sweep sweep = drone_panel(args);
  DroneFrlSystem::Config cfg;
  cfg.threads = args.train_threads;

  std::cout << "\n--- Fig. 5a: FRL, agent faults (paper: 722 -> 649 worst) ---\n";
  sweep.site = FaultSite::AgentFault;
  sweep_heatmap(cfg, sweep).print(0);

  std::cout << "\n--- Fig. 5b: FRL, server faults (paper: 722 -> 582 worst) ---\n";
  sweep.site = FaultSite::ServerFault;
  sweep_heatmap(cfg, sweep).print(0);

  std::cout << "\n--- Fig. 5c: single-drone (paper: 713 -> 571 worst) ---\n";
  cfg.n_drones = 1;
  sweep_heatmap(cfg, sweep).print(0);
  return 0;
}
