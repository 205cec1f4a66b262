#include "dronesim/drone_env.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace frlfi {

DroneNavEnv::DroneNavEnv(std::uint64_t world_seed, Options opts,
                         DroneCamera::Options camera_opts)
    : base_seed_(world_seed),
      opts_(opts),
      camera_(camera_opts),
      world_(world_seed, opts.world),
      near_(world_, state_.position, camera_.options().max_range) {
  FRLFI_CHECK(opts_.dt > 0.0);
  FRLFI_CHECK(opts_.min_speed > 0.0 && opts_.max_speed >= opts_.min_speed);
  FRLFI_CHECK(opts_.max_distance > 0.0);
  FRLFI_CHECK(opts_.max_steps >= 1);
}

std::vector<std::size_t> DroneNavEnv::observation_shape() const {
  return {3, camera_.options().height, camera_.options().width};
}

std::pair<double, double> DroneNavEnv::decode_action(std::size_t action) const {
  FRLFI_CHECK_MSG(action < 25, "action " << action);
  const std::size_t yaw_idx = action / 5;    // 0..4
  const std::size_t speed_idx = action % 5;  // 0..4
  const double yaw =
      opts_.max_yaw_step * (static_cast<double>(yaw_idx) - 2.0) / 2.0;
  const double speed =
      opts_.min_speed + (opts_.max_speed - opts_.min_speed) *
                            static_cast<double>(speed_idx) / 4.0;
  return {yaw, speed};
}

Tensor DroneNavEnv::reset(Rng& rng) {
  if (opts_.randomize_world) {
    // New world variant each episode, derived purely from the caller's
    // RNG stream so a replayed stream reproduces the same worlds.
    const std::uint64_t variant = base_seed_ ^ rng.next_u64();
    world_ = ObstacleWorld(variant, world_.options());
  }
  state_ = DroneState{};
  if (opts_.randomize_world || !near_.centred_on(state_.position))
    near_ = ObstacleNeighbourhood(world_, state_.position,
                                  camera_.options().max_range);
  // Launch toward open space: scan 16 candidate headings and take the
  // clearest (with a small random jitter). A blind random heading next to
  // the tight spawn clearance would make even perfect pilots start boxed
  // in against an obstacle.
  constexpr double kTau = 2.0 * 3.14159265358979323846;
  double best_heading = 0.0, best_depth = -1.0;
  const double phase = rng.uniform(0.0, kTau);
  for (int k = 0; k < 16; ++k) {
    const double h = phase + kTau * k / 16.0;
    const double d =
        near_.cast_ray(state_.position, h, camera_.options().max_range);
    if (d > best_depth) {
      best_depth = d;
      best_heading = h;
    }
  }
  state_.heading = best_heading + rng.uniform(-0.1, 0.1);
  steps_ = 0;
  done_ = false;
  stall_anchor_ = state_.position;
  stall_anchor_step_ = 0;
  return camera_.render(near_, state_.position, state_.heading);
}

StepResult DroneNavEnv::step(std::size_t action, Rng& rng) {
  FRLFI_CHECK_MSG(!done_, "step() on finished episode");
  (void)rng;  // kinematics are deterministic; stochasticity is in reset()
  const auto [yaw, speed] = decode_action(action);

  state_.heading += yaw;
  const Vec2 dir{std::cos(state_.heading), std::sin(state_.heading)};
  const double travel = speed * opts_.dt;

  // Sweep the path for collisions at body-radius resolution.
  StepResult result;
  bool crashed = false;
  const int sub_steps =
      std::max(1, static_cast<int>(std::ceil(travel / opts_.body_radius)));
  for (int s = 1; s <= sub_steps && !crashed; ++s) {
    const double t = travel * static_cast<double>(s) /
                     static_cast<double>(sub_steps);
    const Vec2 p{state_.position.x + dir.x * t, state_.position.y + dir.y * t};
    if (near_.clearance(p, 10.0) < opts_.body_radius) {
      crashed = true;
      state_.position = p;
      state_.distance += t;
    }
  }
  if (!crashed) {
    state_.position.x += dir.x * travel;
    state_.position.y += dir.y * travel;
    state_.distance += travel;
  }
  ++steps_;
  if (!near_.centred_on(state_.position))
    near_ = ObstacleNeighbourhood(world_, state_.position,
                                  camera_.options().max_range);

  if (crashed) {
    result.reward = opts_.crash_penalty;
    result.done = true;
    result.success = false;
  } else {
    // Depth-based reward: forward progress weighted by clearance ahead,
    // encouraging the drone to stay away from obstacles (§IV-B.1).
    const double ahead = near_.cast_ray(state_.position, state_.heading,
                                        camera_.options().max_range);
    const double clearance_norm = ahead / camera_.options().max_range;
    const double speed_norm = speed / opts_.max_speed;
    result.reward = static_cast<float>(
        0.25 * speed_norm + 0.75 * speed_norm * clearance_norm);
    if (state_.distance >= opts_.max_distance) {
      result.done = true;
      result.success = true;
    } else if (steps_ >= opts_.max_steps) {
      result.done = true;
      result.success = false;
    } else if (steps_ - stall_anchor_step_ >= opts_.stall_window_steps) {
      const double dx = state_.position.x - stall_anchor_.x;
      const double dy = state_.position.y - stall_anchor_.y;
      if (std::sqrt(dx * dx + dy * dy) < opts_.stall_min_displacement) {
        // Spinning/stalled: the navigation mission has failed even though
        // nothing was hit.
        result.done = true;
        result.success = false;
      } else {
        stall_anchor_ = state_.position;
        stall_anchor_step_ = steps_;
      }
    }
  }
  done_ = result.done;
  result.observation =
      camera_.render(near_, state_.position, state_.heading);
  return result;
}

}  // namespace frlfi
