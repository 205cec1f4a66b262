/// \file bench_ablation_layers.cpp
/// Ablation for the paper's §IV-C takeaway that "different layers exhibit
/// various resilience, depending on layer topology, position, and
/// representation range": faults are injected into one parameterized layer
/// at a time of the GridWorld and DroneNav policies and the end-to-end
/// metric is compared.
///
/// Injection rides the layer-scoped overlay plane: one LayerDeployedWeights
/// image per layer is computed against the shared trained consensus
/// snapshot, every trial's fault plan becomes a sparse WeightOverlay, and
/// evaluation reads the corrupted weights through a WeightView — the
/// consensus network is never cloned or mutated per trial. Bit-identical
/// to the historical clone + inject_layer_weights loop (same per-tensor
/// representation and RNG stream; view-forward == mutate-and-forward).

#include <iostream>

#include "bench_util.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"
#include "fault/injector.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"

using namespace frlfi;
using namespace frlfi::bench;

namespace {

/// Indices of layers that actually hold parameters.
std::vector<std::size_t> parameterized_layers(Network& net) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < net.layer_count(); ++i)
    if (!net.layer(i).parameters().empty()) out.push_back(i);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  print_banner("Ablation: per-layer vulnerability",
               "Faults confined to a single layer (int8 domain, BER 2%)",
               args);
  const std::size_t trials = std::max<std::size_t>(args.trials, 5);
  const double ber = 0.02;

  {
    std::cout << "\n--- GridWorld policy (SR %) ---\n";
    GridWorldFrlSystem::Config cfg;
    cfg.threads = args.train_threads;
    GridWorldFrlSystem sys(cfg, args.seed);
    sys.train(args.fast ? 500 : 1000);
    Network consensus = sys.consensus_network();

    Table table("GridWorld per-layer FI", {"layer", "params", "SR %"});
    // Baseline: no fault.
    InferenceFaultScenario clean;
    clean.spec.ber = 0.0;
    table.row()
        .cell("(no fault)")
        .num(0, 0)
        .num(100.0 * sys.evaluate_inference_fault(clean, 10, args.seed), 1);

    for (std::size_t li : parameterized_layers(consensus)) {
      // One read-only layer image for all trials of this layer.
      const LayerDeployedWeights deployed(consensus, li);
      RunningStats stats;
      std::size_t param_count = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        FaultSpec spec;
        spec.ber = ber;
        Rng rng(args.seed + 97 * t);
        WeightOverlay overlay;
        const InjectionReport r = deployed.inject(spec, rng, overlay);
        param_count = r.bits_total / 8;
        const WeightView view = deployed.view(&overlay);
        // Evaluate the corrupted policy across all agents' environments.
        double sr = 0.0;
        for (std::size_t a = 0; a < sys.config().n_agents; ++a) {
          Rng ev = Rng(args.seed + t).split(a);
          std::size_t wins = 0;
          constexpr std::size_t kAttempts = 6;
          for (std::size_t k = 0; k < kAttempts; ++k)
            wins +=
                greedy_episode(consensus, sys.agent_env(a), ev, 400, &view)
                    .success;
          sr += static_cast<double>(wins) / kAttempts;
        }
        stats.add(100.0 * sr / static_cast<double>(sys.config().n_agents));
      }
      table.row()
          .cell(consensus.layer(li).name())
          .num(static_cast<double>(param_count), 0)
          .num(stats.mean(), 1);
    }
    table.print();
  }

  {
    std::cout << "\n--- DroneNav policy (flight distance [m]) ---\n";
    DroneFrlSystem::Config dcfg;
    dcfg.n_drones = 2;
    dcfg.threads = args.train_threads;
    DroneFrlSystem sys(dcfg, args.seed);
    sys.train(args.fast ? 30 : 60);
    Network consensus = sys.consensus_network();

    Table table("DroneNav per-layer FI", {"layer", "params", "distance [m]"});
    InferenceFaultScenario clean;
    clean.spec.ber = 0.0;
    table.row()
        .cell("(no fault)")
        .num(0, 0)
        .num(sys.evaluate_inference_fault(clean, 3, args.seed), 0);

    for (std::size_t li : parameterized_layers(consensus)) {
      const LayerDeployedWeights deployed(consensus, li);
      RunningStats stats;
      std::size_t param_count = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        FaultSpec spec;
        spec.ber = ber;
        Rng rng(args.seed + 97 * t);
        WeightOverlay overlay;
        const InjectionReport r = deployed.inject(spec, rng, overlay);
        param_count = r.bits_total / 8;
        const WeightView view = deployed.view(&overlay);
        double dist = 0.0;
        constexpr std::size_t kEpisodes = 2;
        for (std::size_t d = 0; d < sys.config().n_drones; ++d) {
          Rng ev = Rng(args.seed + t).split(d);
          for (std::size_t k = 0; k < kEpisodes; ++k) {
            greedy_episode(consensus, sys.drone_env(d), ev,
                           sys.config().env.max_steps, &view);
            dist += sys.drone_env(d).flight_distance();
          }
        }
        stats.add(dist /
                  static_cast<double>(sys.config().n_drones * kEpisodes));
      }
      table.row()
          .cell(consensus.layer(li).name())
          .num(static_cast<double>(param_count), 0)
          .num(stats.mean(), 0);
    }
    table.print();
  }
  return 0;
}
