/// \file bench_fig8_inference_mitigation.cpp
/// Reproduces Fig. 8a/8b: range-based anomaly detection (§V-B) during
/// inference. Faults are injected statically into deployed policy weights;
/// with the detector, out-of-range values are suppressed before execution.
///
/// Paper results: GridWorld SR improved up to 3.33x at BER 2%; drone
/// flight distance improved 1.38x at BER 1e-1.

#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"

using namespace frlfi;
using namespace frlfi::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Fig. 8a/8b",
               "Inference mitigation via range-based anomaly detection "
               "(paper: 3.3x SR on GridWorld, 1.38x distance on DroneNav)",
               args);
  const std::size_t trials = std::max<std::size_t>(args.trials, 3);

  {
    std::cout << "\n--- Fig. 8a: GridWorld inference (SR %) ---\n";
    GridWorldFrlSystem::Config cfg;
    GridWorldFrlSystem sys(cfg, args.seed);
    sys.train(args.fast ? 500 : 1000);
    Network healthy = sys.consensus_network();
    const RangeAnomalyDetector detector(healthy, {.margin = 0.10});

    std::vector<double> bers_pct{0.0, 0.25, 0.5, 1.0, 1.5, 2.0};
    if (args.fast) bers_pct = {0.0, 1.0, 2.0};
    Table table("Fig. 8a — SR (%) vs BER (%)",
                {"BER %", "no mitigation", "mitigation", "improvement"});
    for (double ber_pct : bers_pct) {
      RunningStats plain, mitigated;
      for (std::size_t t = 0; t < trials; ++t) {
        InferenceFaultScenario scenario;
        scenario.spec.model = FaultModel::TransientPersistent;
        scenario.spec.ber = ber_pct / 100.0;
        scenario.use_int8 = true;  // 8-bit GridWorld deployment
        plain.add(sys.evaluate_inference_fault(scenario, 8, args.seed + 31 * t));
        scenario.detector = &detector;
        mitigated.add(
            sys.evaluate_inference_fault(scenario, 8, args.seed + 31 * t));
      }
      const double ratio =
          plain.mean() > 1e-9 ? mitigated.mean() / plain.mean() : 0.0;
      table.row()
          .num(ber_pct, 2)
          .num(100.0 * plain.mean(), 1)
          .num(100.0 * mitigated.mean(), 1)
          .cell(format_fixed(ratio, 2) + "x");
    }
    table.print();
  }

  {
    std::cout << "\n--- Fig. 8b: DroneNav inference (flight distance [m]) ---\n";
    DroneFrlSystem sys(DroneFrlSystem::Config{}, args.seed);
    sys.train(args.fast ? 40 : 100);
    Network healthy = sys.consensus_network();
    const RangeAnomalyDetector detector(healthy, {.margin = 0.10});

    std::vector<double> bers{0.0, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1};
    if (args.fast) bers = {0.0, 1e-3, 1e-1};
    Table table("Fig. 8b — flight distance [m] vs BER",
                {"BER", "no mitigation", "mitigation", "improvement"});
    for (double ber : bers) {
      RunningStats plain, mitigated;
      for (std::size_t t = 0; t < trials; ++t) {
        InferenceFaultScenario scenario;
        scenario.spec.model = FaultModel::TransientPersistent;
        scenario.spec.ber = ber;
        scenario.use_int8 = true;  // 8-bit over-the-air drone deployment
        plain.add(sys.evaluate_inference_fault(scenario, 3, args.seed + 31 * t));
        scenario.detector = &detector;
        mitigated.add(
            sys.evaluate_inference_fault(scenario, 3, args.seed + 31 * t));
      }
      const double ratio =
          plain.mean() > 1e-9 ? mitigated.mean() / plain.mean() : 0.0;
      std::ostringstream os;
      os << ber;
      table.row()
          .cell(os.str())
          .num(plain.mean(), 0)
          .num(mitigated.mean(), 0)
          .cell(format_fixed(ratio, 2) + "x");
    }
    table.print();
  }
  return 0;
}
