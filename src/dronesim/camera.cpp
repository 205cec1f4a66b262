#include "dronesim/camera.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace frlfi {

DroneCamera::DroneCamera(Options opts) : opts_(opts) {
  FRLFI_CHECK(opts_.width >= 4 && opts_.height >= 4);
  FRLFI_CHECK(opts_.fov > 0.1 && opts_.fov < 3.1);
  FRLFI_CHECK(opts_.max_range > 1.0);
}

std::vector<double> DroneCamera::depth_scan(const ObstacleNeighbourhood& near,
                                            Vec2 pose, double heading) const {
  std::vector<double> depths(opts_.width);
  for (std::size_t c = 0; c < opts_.width; ++c) {
    // Columns sweep left (+fov/2) to right (-fov/2).
    const double frac =
        (static_cast<double>(c) + 0.5) / static_cast<double>(opts_.width);
    const double angle = heading + opts_.fov * (0.5 - frac);
    depths[c] = near.cast_ray(pose, angle, opts_.max_range);
  }
  return depths;
}

Tensor DroneCamera::render(const ObstacleNeighbourhood& near, Vec2 pose,
                           double heading) const {
  const std::vector<double> depths = depth_scan(near, pose, heading);
  const std::size_t h = opts_.height, w = opts_.width;
  Tensor img({3, h, w});
  // Channel planes of the (3, H, W) image; pixel (r, c) is at r * w + c.
  float* const obstacle_plane = img.data().data();
  float* const shade_plane = obstacle_plane + h * w;
  float* const depth_plane = shade_plane + h * w;
  const double horizon = static_cast<double>(h) / 2.0;

  for (std::size_t c = 0; c < w; ++c) {
    const double d = depths[c];
    const double depth_norm = d / opts_.max_range;  // 1 = free to max range
    // Apparent vertical half-extent of the obstacle in rows.
    const double half_rows =
        d >= opts_.max_range ? 0.0
                             : std::min(horizon, opts_.size_k / std::max(d, 1.0));
    for (std::size_t r = 0; r < h; ++r) {
      const double row_off = std::abs(static_cast<double>(r) + 0.5 - horizon);
      const bool obstacle_px = half_rows > 0.0 && row_off < half_rows;
      const bool ground_px = static_cast<double>(r) + 0.5 > horizon;
      const std::size_t px = r * w + c;

      // Channel 0: obstacle intensity (closer = brighter).
      obstacle_plane[px] =
          obstacle_px ? static_cast<float>(1.0 - depth_norm) : 0.0f;
      // Channel 1: scene shading — sky gradient above the horizon, ground
      // gradient below, dimmed where an obstacle occludes.
      double shade = ground_px
                         ? (static_cast<double>(r) + 0.5 - horizon) / horizon
                         : 0.3 * (1.0 - (static_cast<double>(r) + 0.5) / horizon);
      if (obstacle_px) shade *= 0.2;
      shade_plane[px] = static_cast<float>(shade);
      // Channel 2: depth map (1 = far/free).
      depth_plane[px] = obstacle_px ? static_cast<float>(depth_norm) : 1.0f;
    }
  }
  return img;
}

}  // namespace frlfi
