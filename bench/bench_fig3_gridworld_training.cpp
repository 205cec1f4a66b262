/// \file bench_fig3_gridworld_training.cpp
/// Reproduces Fig. 3a/3b/3c: GridWorld training-time fault heatmaps —
/// success rate vs (fault-injection episode) x (BER) for agent faults,
/// server faults, and the single-agent (no server) system.
///
/// Paper shape: agent-fault cells stay >= 92; server-fault cells degrade
/// to ~57 at late-episode high-BER; single-agent degrades to ~40.

#include <iostream>

#include "bench_util.hpp"
#include "sweeps.hpp"

using namespace frlfi;
using namespace frlfi::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Fig. 3a/3b/3c",
               "GridWorld training fault heatmaps (SR %, higher is better)",
               args);

  Sweep sweep = gridworld_panel(args);
  GridWorldFrlSystem::Config cfg;
  cfg.threads = args.train_threads;

  std::cout << "\n--- Fig. 3a: FRL, agent faults (paper: mild, SR >= 92) ---\n";
  sweep.site = FaultSite::AgentFault;
  sweep_heatmap(cfg, sweep).print(0);

  std::cout << "\n--- Fig. 3b: FRL, server faults (paper: down to ~57) ---\n";
  sweep.site = FaultSite::ServerFault;
  sweep_heatmap(cfg, sweep).print(0);

  std::cout << "\n--- Fig. 3c: single-agent, no server (paper: down to ~40) ---\n";
  cfg.n_agents = 1;  // the server fault hits the lone agent directly
  sweep_heatmap(cfg, sweep).print(0);
  return 0;
}
