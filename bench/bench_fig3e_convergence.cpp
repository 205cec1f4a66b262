/// \file bench_fig3e_convergence.cpp
/// Reproduces Fig. 3e: episodes needed to recover to >96% success rate
/// after a fault injected near the end of training (the paper injects at
/// episode 900 of 1000 and shows the system always recovers with longer
/// fine-tuning; server faults take longer than agent faults, and recovery
/// time grows with BER).

#include <iostream>

#include "bench_util.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "sweeps.hpp"

using namespace frlfi;
using namespace frlfi::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Fig. 3e",
               "Episodes to re-converge (SR > 96%) after a fault at episode "
               "900 (paper: recovers in all cases; server > agent)",
               args);

  const std::size_t fault_episode = args.fast ? 450 : 900;
  const std::size_t max_extra = args.fast ? 200 : 400;
  Table table("Fig. 3e — episodes to converge after fault",
              {"site", "BER %", "episodes to recover", "95% CI +/-"});

  for (const double ber_pct : {0.5, 1.0, 1.5, 2.0}) {
    for (const FaultSite site : {FaultSite::AgentFault, FaultSite::ServerFault}) {
      RunningStats stats;
      for (std::size_t t = 0; t < args.trials; ++t) {
        GridWorldFrlSystem sys({}, args.seed + t);
        sys.set_fault_plan(
            training_fault(site, ber_pct / 100.0, fault_episode));
        sys.train(fault_episode + 1);  // fault fires during this episode
        stats.add(static_cast<double>(
            sys.episodes_to_recover(0.96, 10, 8, max_extra, args.seed + t)));
      }
      table.row()
          .cell(to_string(site))
          .num(ber_pct, 1)
          .num(stats.mean(), 1)
          .num(ci95(stats).margin(), 1);
    }
  }
  table.print();
  std::cout << "(values are fine-tuning episodes past the injection point;\n"
               " the paper's Fig. 3e spans ~800-1600 total episodes on a\n"
               " 1000-episode x-axis — shapes to compare: recovery always\n"
               " completes, server faults and higher BER take longer)\n";
  return 0;
}
