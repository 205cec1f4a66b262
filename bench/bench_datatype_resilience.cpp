/// \file bench_datatype_resilience.cpp
/// Reproduces the §IV-B.3 data-type study: inference resilience of the
/// drone policy deployed in Q(1,4,11), Q(1,7,8) and Q(1,10,5) fixed-point
/// formats. Paper finding: Q(1,10,5) is the most vulnerable (needlessly
/// wide integer range => large deviations per flip); Q(1,4,11) fits the
/// parameter range best and is the most robust.

#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"

using namespace frlfi;
using namespace frlfi::bench;

namespace {

const std::vector<FixedPointFormat> kFormats{FixedPointFormat::q1_4_11(),
                                             FixedPointFormat::q1_7_8(),
                                             FixedPointFormat::q1_10_5()};

std::string ber_label(double ber) {
  std::ostringstream os;
  os << ber;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Data types (§IV-B.3)",
               "Inference resilience vs fixed-point format "
               "(paper: Q(1,4,11) most robust, Q(1,10,5) most vulnerable — "
               "its needlessly wide integer range makes flips deviate more)",
               args);

  {
    std::cout << "\n--- DroneNav (flight distance [m]) ---\n";
    DroneFrlSystem sys(DroneFrlSystem::Config{}, args.seed);
    sys.train(args.fast ? 40 : 100);
    const std::size_t trials = std::max<std::size_t>(args.trials, 5);
    std::vector<double> bers{0.0, 1e-5, 1e-4, 1e-3};
    if (args.fast) bers = {0.0, 1e-4};
    Table table("Flight distance [m] per deployed data type",
                {"BER", "Q(1,4,11)", "Q(1,7,8)", "Q(1,10,5)"});
    for (double ber : bers) {
      auto& row = table.row();
      row.cell(ber_label(ber));
      for (const FixedPointFormat& fmt : kFormats) {
        RunningStats stats;
        for (std::size_t t = 0; t < trials; ++t) {
          InferenceFaultScenario scenario;
          scenario.spec.model = FaultModel::TransientPersistent;
          scenario.spec.ber = ber;
          scenario.fixed_format = fmt;
          stats.add(
              sys.evaluate_inference_fault(scenario, 4, args.seed + 31 * t));
        }
        row.num(stats.mean(), 0);
      }
    }
    table.print();
  }

  {
    std::cout << "\n--- GridWorld (SR %) ---\n";
    GridWorldFrlSystem::Config cfg;
    GridWorldFrlSystem sys(cfg, args.seed);
    sys.train(args.fast ? 500 : 1000);
    const std::size_t trials = std::max<std::size_t>(args.trials, 6);
    std::vector<double> bers{0.0, 1e-4, 3e-4, 6e-4};
    if (args.fast) bers = {0.0, 3e-4};
    Table table("SR (%) per deployed data type",
                {"BER", "Q(1,4,11)", "Q(1,7,8)", "Q(1,10,5)"});
    for (double ber : bers) {
      auto& row = table.row();
      row.cell(ber_label(ber));
      for (const FixedPointFormat& fmt : kFormats) {
        RunningStats stats;
        for (std::size_t t = 0; t < trials; ++t) {
          InferenceFaultScenario scenario;
          scenario.spec.model = FaultModel::TransientPersistent;
          scenario.spec.ber = ber;
          scenario.fixed_format = fmt;
          stats.add(100.0 *
                    sys.evaluate_inference_fault(scenario, 8, args.seed + 31 * t));
        }
        row.num(stats.mean(), 1);
      }
    }
    table.print();
  }
  return 0;
}
