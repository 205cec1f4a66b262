#pragma once

/// \file heuristic.hpp
/// A depth-greedy reference pilot. Two uses:
///  * teacher for the offline imitation phase of DroneNav policy
///    pretraining (the substitution for PEDRA's long offline REINFORCE
///    run — see DroneFrlSystem in frl/drone_system.hpp), and
///  * a model-based baseline to sanity-check the learned policy against.

#include <cstddef>
#include <vector>

#include "dronesim/drone_env.hpp"

namespace frlfi {

/// Depth-greedy pilot: steer toward the camera sector with the most
/// clearance; fly fast when the path ahead is clear, slow when tight.
class HeuristicPilot {
 public:
  /// \param env the environment whose camera/action geometry to use.
  explicit HeuristicPilot(const DroneNavEnv& env);

  /// Action for the current true state of `env`, from the depth scan of
  /// its latest frame (not the rendered image). Throws before the env's
  /// first reset().
  std::size_t act(const DroneNavEnv& env) const;

  /// Action from a raw per-column depth scan (exposed for tests).
  std::size_t act_from_depths(const std::vector<double>& depths) const;

 private:
  double max_range_;
  std::size_t width_;
};

}  // namespace frlfi
