/// \file bench_ablation_mitigation.cpp
/// Ablations over the §V mitigation design choices:
///  * server checkpoint interval (paper fixes 5 communication rounds),
///  * reward-drop detector (p, k),
///  * range-detector margin (paper fixes 10%).
/// All on GridWorld with a late server fault at BER 2% (the harshest cell
/// of Fig. 3b).

#include <iostream>

#include "bench_util.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "sweeps.hpp"

using namespace frlfi;
using namespace frlfi::bench;

namespace {

double run_with_mitigation(const BenchArgs& args, std::size_t episodes,
                           std::size_t checkpoint_interval, double p,
                           std::size_t k) {
  RunningStats stats;
  const std::size_t trials = std::max<std::size_t>(args.trials, 2);
  for (std::size_t t = 0; t < trials; ++t) {
    GridWorldFrlSystem sys({}, args.seed + t);
    sys.set_fault_plan(
        training_fault(FaultSite::ServerFault, 0.02, episodes * 9 / 10));
    MitigationPlan mit;
    mit.enabled = true;
    mit.checkpoint_interval = checkpoint_interval;
    mit.detector.drop_percent = p;
    mit.detector.consecutive_episodes = k;
    sys.set_mitigation(mit);
    sys.train(episodes);
    stats.add(100.0 * sys.evaluate_success_rate(8, args.seed + 7777 + t));
  }
  return stats.mean();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Ablation: mitigation parameters",
               "GridWorld, server fault BER 2% at 90% of training "
               "(unmitigated reference ~55% SR; paper scheme >96%)",
               args);
  const std::size_t episodes = args.fast ? 500 : 1000;

  {
    Table table("Checkpoint interval (p=25, k=50)",
                {"interval [comm rounds]", "SR %"});
    for (std::size_t interval : {1u, 5u, 20u, 50u})
      table.row()
          .cell(std::to_string(interval))
          .num(run_with_mitigation(args, episodes, interval, 25.0, 50), 1);
    table.print();
  }
  {
    Table table("Detector drop threshold p (interval=5, k=50)",
                {"p [%]", "SR %"});
    for (double p : {10.0, 25.0, 50.0, 75.0})
      table.row().num(p, 0).num(
          run_with_mitigation(args, episodes, 5, p, 50), 1);
    table.print();
  }
  {
    Table table("Detector consecutive episodes k (interval=5, p=25)",
                {"k", "SR %"});
    for (std::size_t k : {10u, 25u, 50u, 100u})
      table.row()
          .cell(std::to_string(k))
          .num(run_with_mitigation(args, episodes, 5, 25.0, k), 1);
    table.print();
  }
  {
    // Range-detector margin sweep on static inference faults.
    GridWorldFrlSystem::Config cfg;
    GridWorldFrlSystem sys(cfg, args.seed);
    sys.train(episodes);
    Network healthy = sys.consensus_network();
    Table table("Range-detector margin (inference, BER 1%)",
                {"margin [%]", "SR %"});
    for (double margin : {0.0, 0.10, 0.30, 1.0}) {
      const RangeAnomalyDetector detector(healthy, {.margin = margin});
      RunningStats stats;
      for (std::size_t t = 0; t < std::max<std::size_t>(args.trials, 3); ++t) {
        InferenceFaultScenario scenario;
        scenario.spec.model = FaultModel::TransientPersistent;
        scenario.spec.ber = 0.01;
        scenario.detector = &detector;
        stats.add(100.0 *
                  sys.evaluate_inference_fault(scenario, 8, args.seed + 31 * t));
      }
      table.row().num(100.0 * margin, 0).num(stats.mean(), 1);
    }
    table.print();
  }
  return 0;
}
