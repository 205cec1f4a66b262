#pragma once

/// \file drone_env.hpp
/// The DroneNav task (§IV-B): the drone starts at a spawn point and must
/// fly as far as it can without hitting an obstacle. No goal position; a
/// depth-based reward keeps it away from obstacles; the task metric is the
/// safe flight distance (metres travelled before collision, capped by the
/// episode's distance budget).

#include <cstdint>
#include <vector>

#include "dronesim/camera.hpp"
#include "dronesim/world.hpp"
#include "rl/env.hpp"

namespace frlfi {

/// Kinematic state of the drone.
struct DroneState {
  Vec2 position;
  /// Heading [rad], 0 = +x.
  double heading = 0.0;
  /// Metres travelled this episode.
  double distance = 0.0;
};

/// DroneNav as an episodic MDP with the paper's 25-action probabilistic
/// action space: 5 yaw-rate commands x 5 forward-speed commands.
class DroneNavEnv final : public Environment {
 public:
  /// The 5 yaw commands span [-kMaxYawStep, kMaxYawStep] [rad per step].
  static constexpr double kMaxYawStep = 0.70;
  /// Drone body radius for collision tests [m].
  static constexpr double kBodyRadius = 0.5;
  /// Stall detection: a navigation mission fails when the drone's net
  /// displacement over kStallWindowSteps steps stays below
  /// kStallMinDisplacement metres. This terminates degenerate behaviours
  /// (a faulted policy spinning in place would otherwise accrue unbounded
  /// "safe" distance without ever meeting an obstacle).
  static constexpr std::size_t kStallWindowSteps = 40;
  static constexpr double kStallMinDisplacement = 6.0;

  /// Task parameters. Every reset() flies a fresh world variant drawn
  /// from the reset RNG.
  struct Options {
    /// Simulation step [s].
    double dt = 0.5;
    /// The 5 speed commands span [min_speed, max_speed] [m/s].
    double min_speed = 1.0;
    double max_speed = 5.0;
    /// Episode distance budget [m]; reaching it ends the episode as a
    /// success (paper's no-fault flights plateau near 722 m).
    double max_distance = 750.0;
    /// Step cap (backstop; a healthy flight needs ~200 steps).
    std::size_t max_steps = 400;
    /// Collision penalty in the reward.
    float crash_penalty = -4.0f;
    /// Obstacle-field statistics.
    ObstacleWorld::Options world;
  };

  /// Environment over worlds derived from `world_seed`, default task
  /// parameters.
  explicit DroneNavEnv(std::uint64_t world_seed)
      : DroneNavEnv(world_seed, Options{}, DroneCamera::Options{}) {}

  /// Environment with explicit task and camera parameters.
  DroneNavEnv(std::uint64_t world_seed, Options opts,
              DroneCamera::Options camera_opts);

  Tensor reset(Rng& rng) override;
  StepResult step(std::size_t action, Rng& rng) override;

  /// 5 yaw x 5 speed = 25 actions, as in the paper.
  std::size_t action_count() const override { return 25; }

  std::vector<std::size_t> observation_shape() const override;

  /// Metres travelled in the current episode.
  double flight_distance() const { return state_.distance; }

  /// Current kinematic state (diagnostics/tests).
  const DroneState& state() const { return state_; }

  /// The world currently being flown.
  const ObstacleWorld& world() const { return world_; }

  /// The camera's per-column depths of the latest frame (the observation
  /// reset() or step() last returned); empty before the first reset().
  const std::vector<double>& frame_depths() const { return depths_; }

  /// The camera (shared by the heuristic pilot).
  const DroneCamera& camera() const { return camera_; }

  /// Decode an action index into (yaw step [rad], speed [m/s]).
  std::pair<double, double> decode_action(std::size_t action) const;

  /// The options in force.
  const Options& options() const { return opts_; }

 private:
  /// Scan the frame at the drone's heading through `fan` (cast from the
  /// drone's pose) into depths_ and render it.
  Tensor frame(const ObstacleNeighbourhood::Fan& fan);

  std::uint64_t base_seed_;
  Options opts_;
  DroneCamera camera_;
  ObstacleWorld world_;
  DroneState state_;
  /// The obstacles around the drone's lattice cell, sized for the
  /// camera's range; every env query reads from it. Rebuilt only when the
  /// world is re-drawn or the drone changes cell.
  ObstacleNeighbourhood near_;
  /// The latest frame's depth scan, reused frame after frame.
  std::vector<double> depths_;
  std::size_t steps_ = 0;
  bool done_ = true;
  Vec2 stall_anchor_;
  std::size_t stall_anchor_step_ = 0;
};

}  // namespace frlfi
