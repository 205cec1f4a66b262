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

bool ObstacleNeighbourhood::block_in_window(Vec2 p, std::int64_t& ox,
                                            std::int64_t& oy) const {
  ox = world_.cell_of(p.x) - (cx_ - reach_);
  oy = world_.cell_of(p.y) - (cy_ - reach_);
  return ox >= 2 && oy >= 2 && ox <= side_ - 3 && oy <= side_ - 3;
}

double ObstacleNeighbourhood::clearance(Vec2 p, double cap) const {
  std::int64_t ox = 0, oy = 0;
  if (!block_in_window(p, ox, oy)) return world_.clearance(p, cap);
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

ObstacleNeighbourhood::Fan::Fan(const ObstacleNeighbourhood& near, Vec2 pose,
                                double max_range)
    : near_(&near), pose_(pose), max_range_(max_range) {
  FRLFI_CHECK(max_range > 0.0);
  // Pruning margin. Let u = 2^-53 and let B be `bound`: it is at least
  // every coordinate of a window disk's centre or of a march point
  // (|pose| + t with t < max_range), so it bounds every distance (their L1
  // norm), radius, ray parameter t and running best (<= max_range) in
  // play. Errors, each a few roundings of at most u times a quantity
  // below 3B:
  //  * a computed dist() is within (1 +- u)^3 of the exact distance of
  //    the points it is given (difference, square, sum, and a root that
  //    halves its argument's error): off by at most 4uB;
  //  * so d0 = dist(pose, c) - r is at most |pose - c| - r + 6uB;
  //  * a march point p = pose + dir * t lies within t + 8uB of the pose
  //    (|dir| <= 1 + 3u, as cos and sin are within an ulp; 3uB of
  //    rounding per coordinate);
  //  * by the triangle inequality the disk's value at p, dist(p, c) - r,
  //    is at least |pose - c| - t - r - 14uB >= d0 - t - 20uB;
  //  * the computed test d0 - t - margin_ exceeds the exact one by at
  //    most 5uB.
  // So when the test reaches `best`, the disk's value is at least
  // best + margin_ - 25uB >= best: std::min would keep `best`. The margin
  // is 2^-40 B, over 300 times the 25uB needed (B itself is computed to
  // within a few u). Disks later in the list have larger d0, so their
  // test reaches `best` too and the scan stops. A disk with
  // d0 >= 2 max_range + margin_ is left out: as t < max_range, its value
  // stays above max_range >= best on every step.
  const double cell = near.world_.options().cell_size;
  const double bound =
      std::abs(pose.x) + std::abs(pose.y) + 2.0 * max_range +
      cell * static_cast<double>(std::abs(near.cx_) + near.reach_ + 1) +
      cell * static_cast<double>(std::abs(near.cy_) + near.reach_ + 1);
  margin_ = 0x1.0p-40 * bound;
  const double reach = 2.0 * max_range + margin_;
  disks_.reserve(near.slots_.size());
  for (std::int64_t i = 0; i < near.side_; ++i)
    for (std::int64_t j = 0; j < near.side_; ++j) {
      const auto& ob = near.slots_[static_cast<std::size_t>(i * near.side_ + j)];
      if (!ob) continue;
      const double d0 = dist(pose, ob->center) - ob->radius;
      if (d0 < reach) disks_.push_back({d0, i, j, *ob});
    }
  // Ties may land in either order: a march step's result is std::min over
  // finite values, none of them -0 (a difference of two positive
  // doubles rounds an exact zero to +0), so it is the same whatever order
  // the disks are visited in.
  std::sort(disks_.begin(), disks_.end(),
            [](const Disk& a, const Disk& b) { return a.d0 < b.d0; });
  first_ = clearance_at(pose, 0.0);
}

double ObstacleNeighbourhood::Fan::clearance_at(Vec2 p, double t) const {
  std::int64_t ox = 0, oy = 0;
  if (!near_->block_in_window(p, ox, oy))
    return near_->world_.clearance(p, max_range_);
  // The disks of p's 5x5 block, with the arithmetic of
  // ObstacleWorld::clearance, until the lower bound d0 - t proves (see the
  // margin in the constructor) that no further disk can lower `best`.
  double best = max_range_;
  for (const Disk& d : disks_) {
    if (d.d0 - t - margin_ >= best) break;
    if (std::abs(d.i - ox) > 2 || std::abs(d.j - oy) > 2) continue;
    best = std::min(best, dist(p, d.ob.center) - d.ob.radius);
  }
  return best;
}

double ObstacleNeighbourhood::Fan::cast(double heading) const {
  const Vec2 dir{std::cos(heading), std::sin(heading)};
  // Coarse march with sphere-tracing acceleration: step by the clearance
  // (never less than a fine floor), which is exact for circular obstacles.
  // The step at t = 0 is the fan's shared one.
  constexpr double kFloor = 0.25;
  double t = 0.0;
  for (double c = first_; c > 0.0;
       c = clearance_at({pose_.x + dir.x * t, pose_.y + dir.y * t}, t)) {
    t += std::max(c, kFloor);
    if (t >= max_range_) return max_range_;
  }
  return t;
}

}  // namespace frlfi
