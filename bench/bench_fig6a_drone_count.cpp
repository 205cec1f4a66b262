/// \file bench_fig6a_drone_count.cpp
/// Reproduces Fig. 6a: DroneNav resilience vs number of drones (2/4/6)
/// under agent and server faults across BERs. Paper shape: more drones =>
/// higher flight distance under both fault locations; server faults hurt
/// more than agent faults at every swarm size.

#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "core/table.hpp"
#include "sweeps.hpp"

using namespace frlfi;
using namespace frlfi::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Fig. 6a",
               "Flight distance vs BER for (drones, fault site) pairs "
               "(paper: more drones => more resilient)",
               args);

  // The Fig. 5 BER rows with one fault-episode column, late in training.
  Sweep sweep = drone_panel(args);
  sweep.columns = {sweep.episodes * 3 / 4};

  Table table("Fig. 6a — flight distance [m]",
              {"BER", "(2,agent)", "(2,server)", "(4,agent)", "(4,server)",
               "(6,agent)", "(6,server)"});

  // One table column per (n, site): its cells hold one value per BER.
  std::vector<std::vector<double>> columns;
  for (const std::size_t n : {2u, 4u, 6u}) {
    DroneFrlSystem::Config cfg;
    cfg.n_drones = n;
    cfg.threads = args.train_threads;
    for (const FaultSite site : {FaultSite::AgentFault, FaultSite::ServerFault}) {
      sweep.site = site;
      columns.push_back(sweep_cells(cfg, sweep));
    }
  }
  for (std::size_t b = 0; b < sweep.bers.size(); ++b) {
    auto& row = table.row();
    std::ostringstream os;
    os << sweep.bers[b];
    row.cell(os.str());
    for (const std::vector<double>& column : columns) row.num(column[b], 0);
  }
  table.print();
  return 0;
}
