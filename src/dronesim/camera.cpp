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

void DroneCamera::depth_scan(const ObstacleNeighbourhood::Fan& fan,
                             double heading,
                             std::vector<double>& depths) const {
  FRLFI_CHECK_MSG(fan.max_range() == opts_.max_range,
                  "fan range " << fan.max_range() << " vs camera range "
                               << opts_.max_range);
  depths.resize(opts_.width);
  for (std::size_t c = 0; c < opts_.width; ++c) {
    // Columns sweep left (+fov/2) to right (-fov/2).
    const double frac =
        (static_cast<double>(c) + 0.5) / static_cast<double>(opts_.width);
    depths[c] = fan.cast(heading + opts_.fov * (0.5 - frac));
  }
}

Tensor DroneCamera::render(const std::vector<double>& depths) const {
  const std::size_t h = opts_.height, w = opts_.width;
  FRLFI_CHECK_MSG(depths.size() == w, "depth scan width mismatch");
  // Per column: the obstacle's intensity (closer = brighter), its
  // normalized depth (1 = free to max range) and its apparent vertical
  // half-extent in rows (0 when the column sees nothing).
  struct Column {
    float intensity, depth;
    double half_rows;
  };
  const double horizon = static_cast<double>(h) / 2.0;
  std::vector<Column> cols(w);
  for (std::size_t c = 0; c < w; ++c) {
    const double d = depths[c];
    const double depth_norm = d / opts_.max_range;
    cols[c] = {static_cast<float>(1.0 - depth_norm),
               static_cast<float>(depth_norm),
               d >= opts_.max_range
                   ? 0.0
                   : std::min(horizon, kSizeK / std::max(d, 1.0))};
  }

  Tensor img({3, h, w});
  // Channel planes of the (3, H, W) image, filled row by row.
  float* obstacle_row = img.data().data();
  float* shade_row = obstacle_row + h * w;
  float* depth_row = shade_row + h * w;
  for (std::size_t r = 0; r < h; ++r, obstacle_row += w, shade_row += w,
                   depth_row += w) {
    const double y = static_cast<double>(r) + 0.5;
    // |y - horizon| >= 0, so a column with no obstacle (half_rows 0)
    // never counts as an obstacle pixel.
    const double row_off = std::abs(y - horizon);
    // Scene shading: sky gradient above the horizon, ground gradient
    // below, dimmed where an obstacle occludes.
    const double shade =
        y > horizon ? (y - horizon) / horizon : 0.3 * (1.0 - y / horizon);
    const auto open = static_cast<float>(shade);
    const auto occluded = static_cast<float>(shade * 0.2);
    for (std::size_t c = 0; c < w; ++c) {
      const bool obstacle_px = row_off < cols[c].half_rows;
      // Channel 0: obstacle intensity; 1: shading; 2: depth map (1 =
      // far/free).
      obstacle_row[c] = obstacle_px ? cols[c].intensity : 0.0f;
      shade_row[c] = obstacle_px ? occluded : open;
      depth_row[c] = obstacle_px ? cols[c].depth : 1.0f;
    }
  }
  return img;
}

}  // namespace frlfi
