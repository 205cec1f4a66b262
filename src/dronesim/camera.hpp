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
    /// Apparent-size constant: an obstacle at depth d spans ~size_k/d rows.
    double size_k = 36.0;
  };

  /// Camera with default geometry.
  DroneCamera() : DroneCamera(Options{}) {}

  /// Camera with explicit geometry.
  explicit DroneCamera(Options opts);

  /// Per-column depths (width entries, left to right) from `pose` looking
  /// along `heading`.
  std::vector<double> depth_scan(const ObstacleWorld& world, Vec2 pose,
                                 double heading) const;

  /// depth_scan over a prebuilt neighbourhood (ideally centred on the
  /// cell of `pose`); bit-identical to the ObstacleWorld overload.
  std::vector<double> depth_scan(const ObstacleNeighbourhood& near, Vec2 pose,
                                 double heading) const;

  /// Full (3, H, W) render.
  Tensor render(const ObstacleWorld& world, Vec2 pose, double heading) const;

  /// render over a prebuilt neighbourhood; bit-identical to the
  /// ObstacleWorld overload.
  Tensor render(const ObstacleNeighbourhood& near, Vec2 pose,
                double heading) const;

  /// Geometry in force.
  const Options& options() const { return opts_; }

 private:
  Options opts_;
};

}  // namespace frlfi
