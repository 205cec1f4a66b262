/// \file bench_fig6a_drone_count.cpp
/// Reproduces Fig. 6a: DroneNav resilience vs number of drones (2/4/6)
/// under agent and server faults across BERs. Paper shape: more drones =>
/// higher flight distance under both fault locations; server faults hurt
/// more than agent faults at every swarm size.

#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "drone_sweeps.hpp"

using namespace frlfi;
using namespace frlfi::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Fig. 6a",
               "Flight distance vs BER for (drones, fault site) pairs "
               "(paper: more drones => more resilient)",
               args);

  const std::size_t episodes = args.fast ? 60 : 150;
  const std::size_t fault_episode = episodes * 3 / 4;
  std::vector<double> bers{0.0, 1e-4, 1e-3, 1e-2, 1e-1};
  if (args.fast) bers = {0.0, 1e-2, 1e-1};
  const std::vector<std::size_t> drone_counts{2, 4, 6};

  Table table("Fig. 6a — flight distance [m]",
              {"BER", "(2,agent)", "(2,server)", "(4,agent)", "(4,server)",
               "(6,agent)", "(6,server)"});

  // Measure column by column: (n, site) for each BER.
  std::vector<std::vector<double>> cells(
      bers.size(), std::vector<double>(drone_counts.size() * 2, 0.0));
  for (std::size_t d = 0; d < drone_counts.size(); ++d) {
    for (int site_i = 0; site_i < 2; ++site_i) {
      const FaultSite site =
          site_i ? FaultSite::ServerFault : FaultSite::AgentFault;
      for (std::size_t b = 0; b < bers.size(); ++b) {
        RunningStats stats;
        for (std::size_t t = 0; t < args.trials; ++t) {
          // Episode fan-out honours --train-threads (bit-identical at any
          // lane count).
          DroneFrlSystem::Config cfg = bench_drone_config(drone_counts[d]);
          cfg.threads = args.train_threads;
          DroneFrlSystem sys(cfg, args.seed + 1000 * t);
          if (bers[b] > 0.0) {
            TrainingFaultPlan plan;
            plan.active = true;
            plan.spec.site = site;
            plan.spec.model = FaultModel::TransientPersistent;
            plan.spec.ber = bers[b];
            plan.spec.episode = fault_episode;
            sys.set_fault_plan(plan);
          }
          sys.train(episodes);
          stats.add(sys.evaluate_flight_distance(4, args.seed + 7777 + t));
        }
        cells[b][d * 2 + static_cast<std::size_t>(site_i)] = stats.mean();
      }
    }
  }
  for (std::size_t b = 0; b < bers.size(); ++b) {
    auto& row = table.row();
    std::ostringstream os;
    os << bers[b];
    row.cell(os.str());
    for (double v : cells[b]) row.num(v, 0);
  }
  table.print();
  return 0;
}
