/// \file bench_fig7_training_mitigation.cpp
/// Reproduces Fig. 7a/7b: the server-checkpointing + reward-drop-detection
/// mitigation (§V-A) applied during training. With mitigation the
/// GridWorld success rate stays >96% and the drone flight distance stays
/// >712 m across the whole (fault episode) x (BER) map.

#include <iostream>

#include "bench_util.hpp"
#include "sweeps.hpp"

using namespace frlfi;
using namespace frlfi::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Fig. 7a/7b",
               "Training-time fault mitigation via server checkpointing "
               "(paper: GridWorld SR stays >96%, drone distance >712 m)",
               args);

  std::cout << "\n--- Fig. 7a: GridWorld, server faults, mitigation ON ---\n";
  Sweep grid = gridworld_panel(args);
  grid.mitigation = true;
  GridWorldFrlSystem::Config gcfg;
  gcfg.threads = args.train_threads;
  sweep_heatmap(gcfg, grid).print(0);
  std::cout << "(compare against the unmitigated Fig. 3b panel from "
               "bench_fig3_gridworld_training)\n";

  std::cout << "\n--- Fig. 7b: DroneNav, server faults, mitigation ON ---\n";
  Sweep drone = drone_panel(args);
  drone.mitigation = true;
  DroneFrlSystem::Config dcfg;
  dcfg.threads = args.train_threads;
  sweep_heatmap(dcfg, drone).print(0);
  std::cout << "(compare against the unmitigated Fig. 5b panel from "
               "bench_fig5_drone_training)\n";
  return 0;
}
