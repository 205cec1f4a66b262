/// \file bench_fig6b_comm_interval.cpp
/// Reproduces Fig. 6b: the resilience/communication-cost trade-off when
/// the communication interval is boosted 1x/2x/3x after the exploitation
/// phase begins (paper boosts after episode 2000 of 6000).
///
/// Paper shape: longer intervals increase agent-fault damage (fewer
/// corrections from the server), decrease server-fault damage (fewer
/// opportunities to broadcast corrupted state), and cut communication
/// cost (-23.3% at 3x).

#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "sweeps.hpp"

using namespace frlfi;
using namespace frlfi::bench;

namespace {

struct Scenario {
  const char* name;
  bool fault = false;
  FaultSite site = FaultSite::AgentFault;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Fig. 6b",
               "Resilience and comm cost vs communication-interval boost "
               "(paper: 3x interval cuts comm cost 23.3%)",
               args);

  const std::size_t episodes = args.fast ? 60 : 150;
  const std::size_t boost_at = episodes / 3;  // paper: 2000 of 6000
  const std::size_t fault_episode = episodes * 2 / 3;
  const double fault_ber = 1e-2;  // the BER Fig. 6b uses

  const std::vector<Scenario> scenarios{
      {"no fault", false, FaultSite::AgentFault},
      {"agent fault (BER 1e-2)", true, FaultSite::AgentFault},
      {"server fault (BER 1e-2)", true, FaultSite::ServerFault},
  };

  Table table("Fig. 6b — flight distance [m] and comm cost",
              {"comm interval", "no fault", "agent fault", "server fault",
               "comm bytes", "cost vs 1x"});

  double base_cost = 0.0;
  for (const std::size_t boost : {1u, 2u, 3u}) {
    std::vector<double> dist(scenarios.size(), 0.0);
    double comm_bytes = 0.0;
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      RunningStats stats;
      for (std::size_t t = 0; t < args.trials; ++t) {
        DroneFrlSystem::Config cfg;
        cfg.boost_after_episode = boost_at;
        cfg.comm_interval_boost = boost;
        DroneFrlSystem sys(cfg, args.seed + 1000 * t);
        if (scenarios[s].fault)
          sys.set_fault_plan(
              training_fault(scenarios[s].site, fault_ber, fault_episode));
        sys.train(episodes);
        stats.add(sys.evaluate_flight_distance(4, args.seed + 7777 + t));
        if (s == 0) comm_bytes = static_cast<double>(sys.communication_bytes());
      }
      dist[s] = stats.mean();
    }
    if (boost == 1) base_cost = comm_bytes;
    std::ostringstream label;
    label << boost << "x after ep " << boost_at;
    table.row()
        .cell(label.str())
        .num(dist[0], 0)
        .num(dist[1], 0)
        .num(dist[2], 0)
        .num(comm_bytes, 0)
        .cell(format_fixed(100.0 * (1.0 - comm_bytes / base_cost), 1) + "%");
  }
  table.print();
  return 0;
}
