#pragma once

/// \file world.hpp
/// The drone's flight world: an unbounded 2.5-D plane scattered with
/// cylindrical obstacles (tree trunks / poles / building corners), the
/// substitution for PEDRA's Unreal environments documented in DESIGN.md.
/// Obstacles are generated procedurally and *deterministically* from the
/// world seed via coordinate hashing, so the world is infinite, needs no
/// storage, and every (seed, position) query is reproducible.

#include <cstdint>
#include <optional>
#include <vector>

namespace frlfi {

/// A 2-D point / vector in metres.
struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

/// A cylindrical obstacle's footprint.
struct Obstacle {
  Vec2 center;
  double radius = 1.0;
};

/// Procedural infinite obstacle field.
class ObstacleWorld {
 public:
  /// Tuning parameters of the obstacle field.
  struct Options {
    /// Edge length of the hashing lattice [m]; at most one obstacle per cell.
    double cell_size = 28.0;
    /// Probability that a cell contains an obstacle.
    double density = 0.45;
    /// Obstacle radius range [m].
    double min_radius = 2.0;
    double max_radius = 5.0;
    /// Radius around the spawn point kept obstacle-free [m]. Kept tight:
    /// a large clear zone lets a faulted, circling policy rack up "safe"
    /// distance forever without meeting an obstacle.
    double spawn_clearance = 10.0;
  };

  /// Construct a world with the default obstacle statistics.
  explicit ObstacleWorld(std::uint64_t seed) : ObstacleWorld(seed, Options{}) {}

  /// Construct a world with explicit statistics.
  ObstacleWorld(std::uint64_t seed, Options opts);

  /// The obstacle owned by lattice cell (cx, cy), if any.
  std::optional<Obstacle> obstacle_in_cell(std::int64_t cx, std::int64_t cy) const;

  /// Lattice cell index of coordinate `v` (floor(v / cell_size)).
  std::int64_t cell_of(double v) const;

  /// True when point p lies inside any obstacle.
  bool collides(Vec2 p) const { return clearance(p) < 0.0; }

  /// Signed clearance from p to the nearest obstacle surface within the
  /// 5x5 cell neighbourhood (negative = inside an obstacle); returns
  /// `cap` when nothing is nearby. Hashes all 25 cells per call: the
  /// reference that ObstacleNeighbourhood is held bit-identical to.
  double clearance(Vec2 p, double cap = 100.0) const;

  /// March a ray from `origin` along `heading` (radians) and return the
  /// distance to the first obstacle surface, or `max_range` if free.
  /// Marches through an ObstacleNeighbourhood built around `origin`.
  double cast_ray(Vec2 origin, double heading, double max_range) const;

  /// World seed (diagnostics).
  std::uint64_t seed() const { return seed_; }

  /// Options in force.
  const Options& options() const { return opts_; }

 private:
  std::uint64_t cell_hash(std::int64_t cx, std::int64_t cy) const;

  std::uint64_t seed_;
  Options opts_;
};

/// The obstacles of a square window of lattice cells around a centre
/// cell, each hashed once and stored by value. Queries give the same bits
/// as the ObstacleWorld ones; a query whose 5x5 scan leaves the window
/// falls back to hashing. The window covers every sphere-tracing step of
/// a ray of length `max_range` cast from inside the centre cell, so a
/// camera frame, a look-ahead ray or a collision sweep near the centre
/// costs no hashing at all. Holds a copy of the world (seed and options),
/// never a pointer, so it stays valid when its owner is copied or moved.
class ObstacleNeighbourhood {
 public:
  /// Window around the cell containing `centre`, sized for rays of
  /// length `max_range`: centre cell +- (2 + ceil(max_range / cell_size)),
  /// at most +- 16 cells.
  ObstacleNeighbourhood(const ObstacleWorld& world, Vec2 centre,
                        double max_range);

  /// Bit-identical to ObstacleWorld::clearance.
  double clearance(Vec2 p, double cap = 100.0) const;

  /// Bit-identical to ObstacleWorld::cast_ray.
  double cast_ray(Vec2 origin, double heading, double max_range) const;

  /// True when `p` lies in the window's centre cell.
  bool centred_on(Vec2 p) const;

 private:
  ObstacleWorld world_;
  std::int64_t cx_ = 0, cy_ = 0;  // centre cell
  std::int64_t reach_ = 0;        // half-width in cells
  std::int64_t side_ = 1;         // 2 * reach_ + 1
  /// One slot per window cell, x-major: cell (cx_ - reach_ + i,
  /// cy_ - reach_ + j) at i * side_ + j; empty for an obstacle-free cell.
  std::vector<std::optional<Obstacle>> slots_;
};

}  // namespace frlfi
