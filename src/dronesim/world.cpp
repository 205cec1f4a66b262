#include "dronesim/world.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace frlfi {
namespace {

double sq(double v) { return v * v; }

double dist(Vec2 a, Vec2 b) { return std::sqrt(sq(a.x - b.x) + sq(a.y - b.y)); }

// Largest half-width of an ObstacleNeighbourhood window, in cells.
constexpr std::int64_t kMaxReach = 16;

}  // namespace

ObstacleWorld::ObstacleWorld(std::uint64_t seed, Options opts)
    : seed_(seed), opts_(opts) {
  FRLFI_CHECK(opts_.cell_size > 0.0);
  FRLFI_CHECK(opts_.density >= 0.0 && opts_.density <= 1.0);
  FRLFI_CHECK(opts_.min_radius > 0.0 && opts_.max_radius >= opts_.min_radius);
  FRLFI_CHECK_MSG(opts_.max_radius * 2.0 < opts_.cell_size,
                  "obstacles must fit inside a cell");
}

std::uint64_t ObstacleWorld::cell_hash(std::int64_t cx, std::int64_t cy) const {
  // SplitMix64 over a mix of seed and coordinates: decorrelated per cell.
  std::uint64_t h = seed_;
  h ^= static_cast<std::uint64_t>(cx) * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<std::uint64_t>(cy) * 0xC2B2AE3D27D4EB4FULL;
  return SplitMix64(h).next();
}

std::optional<Obstacle> ObstacleWorld::obstacle_in_cell(std::int64_t cx,
                                                        std::int64_t cy) const {
  SplitMix64 sm(cell_hash(cx, cy));
  const double u_exist =
      static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  if (u_exist >= opts_.density) return std::nullopt;

  const double u_r = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  const double radius =
      opts_.min_radius + u_r * (opts_.max_radius - opts_.min_radius);

  // Jitter the centre, keeping the full disk inside the cell: a point
  // inside a disk then lies in the disk's own cell, so the 5x5 scan in
  // clearance() sees every obstacle within one cell of the point and
  // collides() (a negative clearance) misses no hit.
  const double margin = radius;
  const double span = opts_.cell_size - 2.0 * margin;
  const double u_x = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  const double u_y = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;

  Obstacle ob;
  ob.center.x =
      static_cast<double>(cx) * opts_.cell_size + margin + u_x * span;
  ob.center.y =
      static_cast<double>(cy) * opts_.cell_size + margin + u_y * span;
  ob.radius = radius;

  // Spawn clearance: cells near the origin stay free.
  if (std::sqrt(sq(ob.center.x) + sq(ob.center.y)) <
      opts_.spawn_clearance + radius)
    return std::nullopt;
  return ob;
}

std::int64_t ObstacleWorld::cell_of(double v) const {
  return static_cast<std::int64_t>(std::floor(v / opts_.cell_size));
}

double ObstacleWorld::clearance(Vec2 p, double cap) const {
  const std::int64_t cx = cell_of(p.x);
  const std::int64_t cy = cell_of(p.y);
  double best = cap;
  for (std::int64_t dx = -2; dx <= 2; ++dx) {
    for (std::int64_t dy = -2; dy <= 2; ++dy) {
      const auto ob = obstacle_in_cell(cx + dx, cy + dy);
      if (ob) best = std::min(best, dist(p, ob->center) - ob->radius);
    }
  }
  return best;
}

ObstacleNeighbourhood::ObstacleNeighbourhood(const ObstacleWorld& world,
                                             Vec2 centre, double max_range)
    : world_(world), cx_(world.cell_of(centre.x)), cy_(world.cell_of(centre.y)) {
  FRLFI_CHECK(max_range > 0.0);
  const double cells = std::ceil(max_range / world_.options().cell_size);
  reach_ = 2 + static_cast<std::int64_t>(
                   std::min(cells, static_cast<double>(kMaxReach - 2)));
  side_ = 2 * reach_ + 1;
  slots_.reserve(static_cast<std::size_t>(side_ * side_));
  for (std::int64_t i = 0; i < side_; ++i)
    for (std::int64_t j = 0; j < side_; ++j)
      slots_.push_back(
          world_.obstacle_in_cell(cx_ - reach_ + i, cy_ - reach_ + j));
}

bool ObstacleNeighbourhood::centred_on(Vec2 p) const {
  return world_.cell_of(p.x) == cx_ && world_.cell_of(p.y) == cy_;
}

double ObstacleNeighbourhood::clearance(Vec2 p, double cap) const {
  // Offsets of p's cell from the window's lowest cell.
  const std::int64_t ox = world_.cell_of(p.x) - (cx_ - reach_);
  const std::int64_t oy = world_.cell_of(p.y) - (cy_ - reach_);
  if (ox < 2 || oy < 2 || ox > side_ - 3 || oy > side_ - 3)
    return world_.clearance(p, cap);
  // Same cells, same dx-outer/dy-inner order and same arithmetic as
  // ObstacleWorld::clearance. A cell is skipped without the sqrt when its
  // Chebyshev bound already loses: the rounded sqrt(dx^2 + dy^2) is never
  // below max(|dx|, |dy|), and rounding is monotone, so such a cell could
  // not have lowered `best`.
  double best = cap;
  for (std::int64_t i = ox - 2; i <= ox + 2; ++i) {
    const auto* row = &slots_[static_cast<std::size_t>(i * side_ + oy - 2)];
    for (std::int64_t j = 0; j < 5; ++j) {
      const auto& ob = row[j];
      if (!ob) continue;
      const double bound =
          std::max(std::abs(p.x - ob->center.x), std::abs(p.y - ob->center.y));
      if (bound - ob->radius >= best) continue;
      best = std::min(best, dist(p, ob->center) - ob->radius);
    }
  }
  return best;
}

double ObstacleNeighbourhood::cast_ray(Vec2 origin, double heading,
                                       double max_range) const {
  FRLFI_CHECK(max_range > 0.0);
  const Vec2 dir{std::cos(heading), std::sin(heading)};
  // Coarse march with sphere-tracing acceleration: step by the clearance
  // (never less than a fine floor), which is exact for circular obstacles.
  double t = 0.0;
  constexpr double kFloor = 0.25;
  while (t < max_range) {
    const Vec2 p{origin.x + dir.x * t, origin.y + dir.y * t};
    const double c = clearance(p, max_range);
    if (c <= 0.0) return t;
    t += std::max(c, kFloor);
  }
  return max_range;
}

}  // namespace frlfi
