/// \file fault_injection_tool.cpp
/// Example: using the FI primitives directly — the workflow a reliability
/// engineer would script with this library. Builds a trained policy,
/// inspects its quantized bit census, injects faults of every model at a
/// chosen BER, and reports per-layer sensitivity and the effect of flip
/// direction (the paper's Fig. 3d observation that 0->1 flips dominate).

#include <iostream>
#include <span>

#include "core/cli.hpp"
#include "core/table.hpp"
#include "fault/injector.hpp"
#include "frl/gridworld_system.hpp"
#include "numeric/bitutil.hpp"
#include "numeric/quantize.hpp"

using namespace frlfi;

namespace {

double success_rate(GridWorldFrlSystem& sys, Network& policy,
                    std::uint64_t seed) {
  double sr = 0.0;
  const std::size_t n = sys.config().n_agents;
  for (std::size_t a = 0; a < n; ++a) {
    Rng ev = Rng(seed).split(a);
    std::size_t wins = 0;
    constexpr std::size_t kAttempts = 8;
    for (std::size_t k = 0; k < kAttempts; ++k)
      wins += greedy_episode(policy, sys.agent_env(a), ev, 400).success;
    sr += static_cast<double>(wins) / kAttempts;
  }
  return 100.0 * sr / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  double ber = 0.01;
  parse_positional(argc, argv, "[ber in 0..1]", ber, 0.0, 1.0);

  std::cout << "Training the target policy (GridWorld FRL, 12 agents)...\n";
  GridWorldFrlSystem::Config cfg;
  GridWorldFrlSystem sys(cfg, 3);
  sys.train(800);
  Network policy = sys.consensus_network();
  std::cout << "  healthy SR: " << success_rate(sys, policy, 99) << "%\n\n";

  // 1. Bit census of the deployed representation.
  const std::vector<float> weights = policy.flat_parameters();
  const Int8Quantizer quant = Int8Quantizer::calibrate(weights);
  const auto qs = quant.quantize(weights);
  const auto bytes = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(qs.data()), qs.size());
  std::cout << "Deployed int8 image: " << qs.size() << " bytes, "
            << 100.0 * ones_fraction(bytes) << "% 1-bits\n\n";

  // 2. Fault-model comparison at the chosen BER.
  Table models("Fault-model comparison (BER " + format_fixed(100 * ber, 2) + "%)",
               {"model", "SR %"});
  for (FaultModel model :
       {FaultModel::TransientPersistent, FaultModel::StuckAt0,
        FaultModel::StuckAt1}) {
    Network victim = policy.clone();
    std::vector<float> w = victim.flat_parameters();
    FaultSpec spec;
    spec.model = model;
    spec.ber = ber;
    Rng rng(42);
    inject_int8(w, spec, rng);
    victim.set_flat_parameters(w);
    models.row().cell(to_string(model)).num(success_rate(sys, victim, 99), 1);
  }
  models.print();

  // 3. Flip-direction study (Fig. 3d): 0->1 vs 1->0.
  Table direction("Flip-direction study", {"direction", "SR %"});
  for (auto [dir, name] :
       {std::pair{FlipDirection::ZeroToOne, "0 -> 1"},
        std::pair{FlipDirection::OneToZero, "1 -> 0"}}) {
    Network victim = policy.clone();
    std::vector<float> w = victim.flat_parameters();
    FaultSpec spec;
    spec.ber = ber;
    spec.direction = dir;
    Rng rng(43);
    inject_int8(w, spec, rng);
    victim.set_flat_parameters(w);
    direction.row().cell(name).num(success_rate(sys, victim, 99), 1);
  }
  direction.print();

  // 4. Per-layer sensitivity.
  Table layers("Per-layer sensitivity", {"layer", "SR %"});
  for (std::size_t li = 0; li < policy.layer_count(); ++li) {
    if (policy.layer(li).parameters().empty()) continue;
    Network victim = policy.clone();
    FaultSpec spec;
    spec.ber = ber;
    Rng rng(44);
    inject_layer_weights(victim, li, spec, rng);
    layers.row().cell(victim.layer(li).name()).num(success_rate(sys, victim, 99), 1);
  }
  layers.print();
  return 0;
}
