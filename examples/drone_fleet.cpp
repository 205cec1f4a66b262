/// \file drone_fleet.cpp
/// Example: a 4-drone federated fleet. Pretrains offline (DAgger imitation
/// of a depth-greedy pilot), fine-tunes online with REINFORCE + parameter
/// smoothing, then shows what a transient fault in the shared policy does
/// to safe flight distance — and how range-based anomaly detection (§V-B)
/// recovers most of it.

#include <iostream>
#include <sstream>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "frl/drone_system.hpp"

using namespace frlfi;

int main(int argc, char** argv) {
  std::size_t fine_tune = 100;
  parse_positional(argc, argv, "[fine-tune-episodes]", fine_tune);

  DroneFrlSystem::Config cfg;  // 4 drones
  std::cout << "Offline pretraining + building the fleet...\n";
  DroneFrlSystem fleet(cfg, 11);
  std::cout << "  pretrained flight distance: "
            << fleet.evaluate_flight_distance(4, 99) << " m\n";

  std::cout << "Online federated fine-tuning (" << fine_tune
            << " episodes)...\n";
  fleet.train(fine_tune);
  std::cout << "  fine-tuned flight distance: "
            << fleet.evaluate_flight_distance(4, 99) << " m\n";
  std::cout << "  communication cost so far:  "
            << fleet.communication_bytes() / 1024 << " KiB over "
            << fleet.communication_rounds() << " rounds\n\n";

  Network healthy = fleet.consensus_network();
  const RangeAnomalyDetector detector(healthy, {.margin = 0.10});

  Table table("Transient weight faults during flight (distance in metres)",
              {"BER", "unprotected", "with range detection"});
  for (double ber : {0.0, 1e-4, 1e-3, 1e-2}) {
    double plain = 0.0, guarded = 0.0;
    constexpr int kRepeats = 3;
    for (int r = 0; r < kRepeats; ++r) {
      InferenceFaultScenario scenario;
      scenario.spec.model = FaultModel::TransientPersistent;
      scenario.spec.ber = ber;
      plain += fleet.evaluate_inference_fault(scenario, 3, 200 + r);
      scenario.detector = &detector;
      guarded += fleet.evaluate_inference_fault(scenario, 3, 200 + r);
    }
    std::ostringstream os;
    os << ber;
    table.row().cell(os.str()).num(plain / kRepeats, 0).num(guarded / kRepeats, 0);
  }
  table.print();
  std::cout << "Out-of-range weights (bit flips into the integer bits of the\n"
               "deployed fixed-point words) are suppressed before they can\n"
               "steer the drone into an obstacle.\n";
  return 0;
}
