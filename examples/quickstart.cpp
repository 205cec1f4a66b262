/// \file quickstart.cpp
/// FRL-FI in five minutes: train the GridWorld FRL system, measure its
/// healthy success rate, inject a transient server fault during training,
/// watch the damage, then re-run with the paper's checkpoint mitigation.

#include <iostream>

#include "core/cli.hpp"
#include "frl/gridworld_system.hpp"

using namespace frlfi;

int main(int argc, char** argv) {
  // Scaled-down training (the paper trains 1000 episodes; pass a bigger
  // number as argv[1] to get closer to paper scale).
  std::size_t episodes = 600;
  parse_positional(argc, argv, "[episodes]", episodes);

  GridWorldFrlSystem::Config cfg;
  std::cout << "FRL-FI quickstart: " << cfg.n_agents
            << "-agent GridWorld FRL, " << episodes << " episodes\n";

  // 1. Healthy training.
  GridWorldFrlSystem healthy(cfg, /*seed=*/1);
  healthy.train(episodes);
  const double sr_clean = healthy.evaluate_success_rate(25, /*seed=*/99);
  std::cout << "  healthy success rate:          " << sr_clean * 100 << "%\n";

  // 2. Same training with a server fault at 90% of training, BER 2%.
  GridWorldFrlSystem faulty(cfg, /*seed=*/1);
  TrainingFaultPlan plan;
  plan.active = true;
  plan.spec.site = FaultSite::ServerFault;
  plan.spec.model = FaultModel::TransientPersistent;
  plan.spec.ber = 0.02;
  plan.spec.episode = episodes * 9 / 10;
  faulty.set_fault_plan(plan);
  faulty.train(episodes);
  const double sr_fault = faulty.evaluate_success_rate(25, /*seed=*/99);
  std::cout << "  with server fault (BER 2%):    " << sr_fault * 100 << "%\n";

  // 3. Same fault, mitigation enabled (server checkpointing, p=25, k=25).
  GridWorldFrlSystem protected_sys(cfg, /*seed=*/1);
  protected_sys.set_fault_plan(plan);
  MitigationPlan mit;
  mit.enabled = true;
  mit.detector.drop_percent = 25.0;
  mit.detector.consecutive_episodes = 25;
  protected_sys.set_mitigation(mit);
  protected_sys.train(episodes);
  const double sr_mit = protected_sys.evaluate_success_rate(25, /*seed=*/99);
  std::cout << "  fault + checkpoint mitigation: " << sr_mit * 100 << "%\n";
  std::cout << "  (recoveries: "
            << protected_sys.mitigation_stats().server_recoveries
            << " server, " << protected_sys.mitigation_stats().agent_recoveries
            << " agent)\n";
  return 0;
}
