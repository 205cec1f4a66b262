/// \file bench_ablation_participation.cpp
/// The degraded-participation plane swept Fig. 6a-style on GridWorld:
/// final return (success rate) against each degradation axis —
///  * straggler dropout: crash probability x crash window,
///  * stale-update aggregation: straggler rate x delivery lag (bounded
///    staleness with decay-weighted folding),
///  * Byzantine agents: garbage-uploading fraction with screening off,
///    L2-norm screening, and coordinate-wise trimmed mean.
/// Every cell also reports what the plan actually did (dropped/stale/
/// screened round counts), so a "resilient" number can be checked against
/// the degradation it survived.

#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "federated/participation.hpp"
#include "frl/gridworld_system.hpp"

using namespace frlfi;
using namespace frlfi::bench;

namespace {

GridWorldFrlSystem::Config sweep_config() {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = 8;
  cfg.eps_span = 420;
  cfg.channel_ber = 1e-3;
  return cfg;
}

struct CellResult {
  double sr = 0.0;  // mean success rate [%]
  ParticipationStats stats;
};

CellResult run_cell(const BenchArgs& args, std::size_t episodes,
                    const ParticipationPlan& plan) {
  RunningStats sr;
  CellResult out;
  for (std::size_t t = 0; t < args.trials; ++t) {
    GridWorldFrlSystem sys(sweep_config(), args.seed + 1000 * t);
    sys.set_participation_plan(plan);
    sys.train(episodes);
    sr.add(100.0 * sys.evaluate_success_rate(6, args.seed + 7777 + t));
    if (t == 0) out.stats = sys.participation_stats();
  }
  out.sr = sr.mean();
  return out;
}

std::string frac(std::size_t part, std::size_t whole) {
  std::ostringstream os;
  os << part << "/" << whole;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Ablation: degraded participation",
               "GridWorld return vs dropout / staleness / Byzantine "
               "fraction (robust aggregation on the round engine)",
               args);
  const std::size_t episodes = args.fast ? 150 : 400;

  {
    std::vector<double> rates{0.0, 0.1, 0.3, 0.5};
    if (args.fast) rates = {0.0, 0.3, 0.5};
    Table table("Straggler dropout (crash-and-rejoin, window 2 rounds)",
                {"dropout rate", "SR %", "dropped/agent-rounds"});
    for (const double rate : rates) {
      ParticipationPlan plan;
      plan.dropout_rate = rate;
      plan.crash_rounds = 2;
      const CellResult cell = run_cell(args, episodes, plan);
      table.row()
          .num(rate, 2)
          .num(cell.sr, 1)
          .cell(frac(cell.stats.dropped,
                     cell.stats.rounds * sweep_config().n_agents));
    }
    table.print();
  }
  {
    std::vector<std::size_t> lags{1, 2, 4};
    if (args.fast) lags = {1, 4};
    Table table("Stale-update aggregation (straggler rate 0.3, decay 0.5)",
                {"lag [rounds]", "SR %", "folded", "discarded"});
    for (const std::size_t lag : lags) {
      ParticipationPlan plan;
      plan.straggler_rate = 0.3;
      plan.straggler_lag = lag;
      const CellResult cell = run_cell(args, episodes, plan);
      table.row()
          .cell(std::to_string(lag))
          .num(cell.sr, 1)
          .cell(std::to_string(cell.stats.stale_folded))
          .cell(std::to_string(cell.stats.stale_discarded));
    }
    table.print();
  }
  {
    std::vector<double> fractions{0.0, 0.25, 0.5};
    if (args.fast) fractions = {0.25};
    Table table("Byzantine agents vs screening (magnitude 10)",
                {"byz fraction", "screening", "SR %", "screened rows"});
    for (const double fraction : fractions) {
      for (int mode = 0; mode < 3; ++mode) {
        ParticipationPlan plan;
        plan.byzantine_agents = pick_byzantine_agents(
            sweep_config().n_agents, fraction, args.seed + 17);
        if (mode == 1) {
          plan.screening.l2_norm = true;
        } else if (mode == 2) {
          plan.screening.trimmed_mean = true;
        }
        const CellResult cell = run_cell(args, episodes, plan);
        table.row()
            .num(fraction, 2)
            .cell(mode == 0 ? "none" : mode == 1 ? "L2 norm" : "trimmed mean")
            .num(cell.sr, 1)
            .cell(std::to_string(cell.stats.screened_out));
        if (fraction == 0.0) break;  // screening modes indistinguishable
      }
    }
    table.print();
  }
  return 0;
}
