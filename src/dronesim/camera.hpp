#pragma once

/// \file camera.hpp
/// Ray-cast RGB-D front camera: renders the drone's forward view into a
/// (3, H, W) tensor — the scaled-down analogue of the paper's 320x180x3
/// RGB state. Channel 0 carries obstacle intensity, channel 1 a
/// sky/ground shading cue, channel 2 the normalized depth map the
/// depth-based reward also consumes.

#include <vector>

#include "dronesim/world.hpp"
#include "tensor/tensor.hpp"

namespace frlfi {

/// Pinhole-ish ray-cast camera.
class DroneCamera {
 public:
  /// Camera geometry.
  struct Options {
    std::size_t width = 32;
    std::size_t height = 18;
    /// Horizontal field of view [rad].
    double fov = 1.5708;
    /// Maximum sensed depth [m].
    double max_range = 60.0;
  };

  /// Apparent-size constant: an obstacle at depth d spans ~kSizeK/d rows.
  static constexpr double kSizeK = 36.0;

  /// Camera with default geometry.
  DroneCamera() : DroneCamera(Options{}) {}

  /// Camera with explicit geometry.
  explicit DroneCamera(Options opts);

  /// Per-column depths (width entries, left to right) seen from the fan's
  /// pose looking along `heading`, written into `depths` (resized to
  /// width). The fan must be cast to the camera's max_range, e.g.
  /// ObstacleNeighbourhood(world, pose, options().max_range).fan(pose,
  /// options().max_range).
  void depth_scan(const ObstacleNeighbourhood::Fan& fan, double heading,
                  std::vector<double>& depths) const;

  /// Full (3, H, W) render of a depth scan.
  Tensor render(const std::vector<double>& depths) const;

  /// Geometry in force.
  const Options& options() const { return opts_; }

 private:
  Options opts_;
};

}  // namespace frlfi
