/// \file swarm_resilience.cpp
/// Example: why federated swarms tolerate faults better than lone agents.
/// Trains a 12-agent GridWorld FRL system and a single-agent system, then
/// sweeps inference-time fault BER on both and prints the success-rate
/// curves side by side (the experiment behind the paper's Fig. 4).

#include <iostream>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "frl/gridworld_system.hpp"

using namespace frlfi;

int main(int argc, char** argv) {
  std::size_t episodes = 800;
  parse_positional(argc, argv, "[episodes]", episodes);

  std::cout << "Training 12-agent FRL system (" << episodes << " episodes)...\n";
  GridWorldFrlSystem::Config multi_cfg;
  GridWorldFrlSystem multi(multi_cfg, 7);
  multi.train(episodes);

  std::cout << "Training single-agent system...\n";
  GridWorldFrlSystem::Config single_cfg;
  single_cfg.n_agents = 1;
  GridWorldFrlSystem single(single_cfg, 7);
  single.train(episodes);

  std::cout << "Consensus policy action-value spread (higher = crisper "
               "decisions):\n  multi-agent "
            << multi.consensus_action_stddev() << " vs single-agent "
            << single.consensus_action_stddev() << "\n\n";

  Table table("Inference success rate (%) under memory faults",
              {"BER %", "multi-agent (n=12)", "single-agent"});
  for (double ber_pct : {0.0, 0.5, 1.0, 1.5, 2.0}) {
    InferenceFaultScenario scenario;
    scenario.spec.model = FaultModel::TransientPersistent;
    scenario.spec.ber = ber_pct / 100.0;
    // Average over a few injections: single flips are heavy-tailed.
    double sr_multi = 0.0, sr_single = 0.0;
    constexpr int kRepeats = 3;
    for (int r = 0; r < kRepeats; ++r) {
      sr_multi += multi.evaluate_inference_fault(scenario, 10, 100 + r);
      sr_single += single.evaluate_inference_fault(scenario, 10, 100 + r);
    }
    table.row()
        .num(ber_pct, 1)
        .num(100.0 * sr_multi / kRepeats, 1)
        .num(100.0 * sr_single / kRepeats, 1);
  }
  table.print();
  std::cout << "The multi-agent consensus policy generalizes across all 12\n"
               "mazes and degrades more gracefully — the paper's core\n"
               "observation about swarm resilience.\n";
  return 0;
}
