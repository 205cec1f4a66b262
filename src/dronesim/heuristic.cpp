#include "dronesim/heuristic.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace frlfi {

HeuristicPilot::HeuristicPilot(const DroneNavEnv& env)
    : max_range_(env.camera().options().max_range),
      width_(env.camera().options().width) {}

std::size_t HeuristicPilot::act(const DroneNavEnv& env) const {
  const std::vector<double> depths = env.camera().depth_scan(
      env.neighbourhood(), env.state().position, env.state().heading);
  return act_from_depths(depths);
}

std::size_t HeuristicPilot::act_from_depths(
    const std::vector<double>& depths) const {
  FRLFI_CHECK_MSG(depths.size() == width_, "depth scan width mismatch");
  // Partition the scan into 5 sectors matching the 5 yaw commands
  // (columns sweep left->right; yaw index 0 is the strongest left turn).
  const std::size_t sector = width_ / 5;
  double best_min = -1.0;
  std::size_t best_yaw = 2;
  for (std::size_t s = 0; s < 5; ++s) {
    const std::size_t lo = s * sector;
    const std::size_t hi = (s == 4) ? width_ : (s + 1) * sector;
    double sector_min = max_range_;
    for (std::size_t c = lo; c < hi; ++c)
      sector_min = std::min(sector_min, depths[c]);
    // Prefer straight ahead on ties (small centre bias).
    const double bias = (s == 2) ? 1.05 : 1.0;
    if (sector_min * bias > best_min) {
      best_min = sector_min * bias;
      best_yaw = s;
    }
  }

  // Speed from the clearance directly ahead (centre third of the scan).
  double ahead = max_range_;
  for (std::size_t c = width_ / 3; c < 2 * width_ / 3; ++c)
    ahead = std::min(ahead, depths[c]);
  std::size_t speed_idx = 0;
  if (ahead > 0.60 * max_range_)
    speed_idx = 4;
  else if (ahead > 0.40 * max_range_)
    speed_idx = 3;
  else if (ahead > 0.25 * max_range_)
    speed_idx = 2;
  else if (ahead > 0.12 * max_range_)
    speed_idx = 1;

  // Sector 0 is leftmost (positive angle offset); the matching yaw command
  // is the strongest *left* turn, which decode_action places at yaw index
  // 4 (positive yaw step). Hence the reversal.
  const std::size_t yaw_idx = 4 - best_yaw;
  return yaw_idx * 5 + speed_idx;
}

}  // namespace frlfi
