#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "dronesim/camera.hpp"
#include "dronesim/drone_env.hpp"
#include "dronesim/heuristic.hpp"
#include "dronesim/world.hpp"

namespace frlfi {
namespace {

// Exact bit equality, so +0.0 vs -0.0 or a last-ulp drift fails.
template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

// A frame's depth scan and render from `pose` over the window `near`.
std::vector<double> scan(const DroneCamera& cam,
                         const ObstacleNeighbourhood& near, Vec2 pose,
                         double heading) {
  std::vector<double> depths;
  cam.depth_scan(near.fan(pose, cam.options().max_range), heading, depths);
  return depths;
}

Tensor render(const DroneCamera& cam, const ObstacleNeighbourhood& near,
              Vec2 pose, double heading) {
  return cam.render(scan(cam, near, pose, heading));
}

// A frame centred on its own pose, as the env renders it.
Tensor render(const DroneCamera& cam, const ObstacleWorld& w, Vec2 pose,
              double heading) {
  return render(cam, ObstacleNeighbourhood(w, pose, cam.options().max_range),
                pose, heading);
}

TEST(ObstacleWorld, DeterministicPerSeed) {
  ObstacleWorld a(42), b(42), c(43);
  int same = 0, diff = 0;
  for (int x = -5; x <= 5; ++x) {
    for (int y = -5; y <= 5; ++y) {
      const auto oa = a.obstacle_in_cell(x, y);
      const auto ob = b.obstacle_in_cell(x, y);
      const auto oc = c.obstacle_in_cell(x, y);
      EXPECT_EQ(oa.has_value(), ob.has_value());
      if (oa && ob) {
        EXPECT_EQ(oa->center.x, ob->center.x);
        EXPECT_EQ(oa->radius, ob->radius);
      }
      (oa.has_value() == oc.has_value() ? same : diff) += 1;
    }
  }
  EXPECT_GT(diff, 0);  // different seeds differ somewhere
}

TEST(ObstacleWorld, ObstacleStaysInsideItsCell) {
  ObstacleWorld w(7);
  const double cell = w.options().cell_size;
  for (int x = -20; x <= 20; ++x) {
    for (int y = -20; y <= 20; ++y) {
      const auto ob = w.obstacle_in_cell(x, y);
      if (!ob) continue;
      EXPECT_GE(ob->center.x - ob->radius, x * cell - 1e-9);
      EXPECT_LE(ob->center.x + ob->radius, (x + 1) * cell + 1e-9);
      EXPECT_GE(ob->center.y - ob->radius, y * cell - 1e-9);
      EXPECT_LE(ob->center.y + ob->radius, (y + 1) * cell + 1e-9);
      EXPECT_GE(ob->radius, w.options().min_radius);
      EXPECT_LE(ob->radius, w.options().max_radius);
    }
  }
}

TEST(ObstacleWorld, SpawnZoneIsClear) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 99ull}) {
    ObstacleWorld w(seed);
    EXPECT_FALSE(w.collides({0.0, 0.0}));
    EXPECT_GE(w.clearance({0.0, 0.0}), 0.0);
  }
}

TEST(ObstacleWorld, DensityRoughlyMatches) {
  ObstacleWorld::Options opts;
  opts.density = 0.4;
  opts.spawn_clearance = 0.0;
  ObstacleWorld w(5, opts);
  int present = 0, total = 0;
  for (int x = 10; x < 40; ++x)
    for (int y = 10; y < 40; ++y) {
      present += w.obstacle_in_cell(x, y).has_value();
      ++total;
    }
  EXPECT_NEAR(static_cast<double>(present) / total, 0.4, 0.07);
}

TEST(ObstacleWorld, CollidesAndClearanceAgree) {
  ObstacleWorld w(11);
  // Find one obstacle and probe points around it.
  for (int x = 1; x < 50; ++x) {
    const auto ob = w.obstacle_in_cell(x, x);
    if (!ob) continue;
    EXPECT_TRUE(w.collides(ob->center));
    EXPECT_LT(w.clearance(ob->center), 0.0);
    const Vec2 outside{ob->center.x + ob->radius + 2.0, ob->center.y};
    EXPECT_FALSE(w.collides(outside));
    EXPECT_NEAR(w.clearance(outside), 2.0, 0.5);  // maybe closer to another
    return;
  }
  FAIL() << "no obstacle found on the diagonal";
}

TEST(ObstacleWorld, RayHitsKnownObstacle) {
  ObstacleWorld w(13);
  for (int x = 2; x < 60; ++x) {
    const auto ob = w.obstacle_in_cell(x, 0);
    if (!ob) continue;
    // Cast from just left of the obstacle straight at its centre.
    const Vec2 origin{ob->center.x - 20.0, ob->center.y};
    const double d =
        ObstacleNeighbourhood(w, origin, 100.0).fan(origin, 100.0).cast(0.0);
    EXPECT_NEAR(d, 20.0 - ob->radius, 0.5);
    return;
  }
  FAIL() << "no obstacle found on row 0";
}

TEST(ObstacleWorld, RayReturnsMaxRangeInFreeSpace) {
  ObstacleWorld::Options opts;
  opts.density = 0.0;
  ObstacleWorld w(1, opts);
  const ObstacleNeighbourhood near(w, {0, 0}, 60.0);
  EXPECT_DOUBLE_EQ(near.fan({0, 0}, 60.0).cast(1.0), 60.0);
}

TEST(ObstacleWorld, RejectsBadOptions) {
  ObstacleWorld::Options opts;
  opts.max_radius = opts.cell_size;  // obstacle cannot fit
  EXPECT_THROW(ObstacleWorld(1, opts), Error);
}

TEST(DroneCamera, RenderShapeAndChannels) {
  DroneCamera cam;
  ObstacleWorld w(3);
  const Tensor img = render(cam, w, {0, 0}, 0.0);
  ASSERT_EQ(img.shape(),
            (std::vector<std::size_t>{3, cam.options().height,
                                      cam.options().width}));
  // All channel values bounded in [0, 1].
  EXPECT_GE(*std::min_element(img.data().begin(), img.data().end()), 0.0f);
  EXPECT_LE(img.max(), 1.0f);
}

TEST(DroneCamera, RejectsMismatchedFanAndScan) {
  const DroneCamera cam;
  const ObstacleWorld w(3);
  const ObstacleNeighbourhood near(w, {0, 0}, 90.0);
  std::vector<double> depths;
  EXPECT_THROW(cam.depth_scan(near.fan({0, 0}, 90.0), 0.0, depths), Error);
  EXPECT_THROW(cam.render(std::vector<double>(cam.options().width - 1, 1.0)),
               Error);
}

TEST(DroneCamera, DepthScanMatchesRayCast) {
  DroneCamera cam;
  ObstacleWorld w(5);
  const auto depths = scan(
      cam, ObstacleNeighbourhood(w, {0, 0}, cam.options().max_range), {0, 0},
      0.5);
  ASSERT_EQ(depths.size(), cam.options().width);
  for (double d : depths) {
    EXPECT_GT(d, 0.0);
    EXPECT_LE(d, cam.options().max_range);
  }
}

TEST(DroneCamera, FreeWorldRendersNoObstaclePixels) {
  ObstacleWorld::Options wopts;
  wopts.density = 0.0;
  ObstacleWorld w(1, wopts);
  DroneCamera cam;
  const Tensor img = render(cam, w, {0, 0}, 0.0);
  // Channel 0 (obstacle intensity) must be all zero.
  for (std::size_t r = 0; r < cam.options().height; ++r)
    for (std::size_t c = 0; c < cam.options().width; ++c)
      EXPECT_EQ(img.at3(0, r, c), 0.0f);
}

TEST(DroneCamera, CloserObstacleLooksBigger) {
  // A clear world with one synthetic obstacle row is hard to build through
  // hashing; instead compare obstacle pixel counts at two distances from a
  // real obstacle.
  ObstacleWorld w(13);
  for (int x = 2; x < 60; ++x) {
    const auto ob = w.obstacle_in_cell(x, 0);
    if (!ob) continue;
    DroneCamera cam;
    const auto count_px = [&](double dist) {
      const Vec2 pose{ob->center.x - dist, ob->center.y};
      const Tensor img = render(cam, w, pose, 0.0);
      int n = 0;
      for (std::size_t i = 0; i < img.size() / 3; ++i)
        n += img[i] > 0.0f;
      return n;
    };
    EXPECT_GT(count_px(10.0), count_px(40.0));
    return;
  }
  FAIL() << "no obstacle found";
}

TEST(DroneNavEnv, ActionDecoding) {
  DroneNavEnv env(1);
  // Action 12 = yaw index 2 (straight), speed index 2 (middle).
  const auto [yaw, speed] = env.decode_action(12);
  EXPECT_DOUBLE_EQ(yaw, 0.0);
  EXPECT_NEAR(speed, (env.options().min_speed + env.options().max_speed) / 2,
              1e-9);
  const auto [yaw_l, speed_max] = env.decode_action(24);
  EXPECT_GT(yaw_l, 0.0);
  EXPECT_DOUBLE_EQ(speed_max, env.options().max_speed);
  EXPECT_THROW(env.decode_action(25), Error);
}

TEST(DroneNavEnv, ResetGivesImageAndZeroDistance) {
  DroneNavEnv env(2);
  Rng rng(1);
  const Tensor obs = env.reset(rng);
  EXPECT_EQ(obs.shape(), env.observation_shape());
  EXPECT_EQ(env.flight_distance(), 0.0);
}

TEST(DroneNavEnv, StepAccumulatesDistance) {
  DroneNavEnv::Options opts;
  opts.world.density = 0.0;  // free space
  DroneNavEnv env(3, opts, DroneCamera::Options{});
  Rng rng(1);
  env.reset(rng);
  const auto [yaw, speed] = env.decode_action(14);  // straight, fastest
  env.step(14, rng);
  EXPECT_NEAR(env.flight_distance(), speed * opts.dt, 1e-9);
  (void)yaw;
}

TEST(DroneNavEnv, ReachingDistanceBudgetSucceeds) {
  DroneNavEnv::Options opts;
  opts.world.density = 0.0;
  opts.max_distance = 20.0;
  DroneNavEnv env(4, opts, DroneCamera::Options{});
  Rng rng(1);
  env.reset(rng);
  StepResult r;
  for (int t = 0; t < 100; ++t) {
    r = env.step(14, rng);
    if (r.done) break;
  }
  EXPECT_TRUE(r.done);
  EXPECT_TRUE(r.success);
  EXPECT_GE(env.flight_distance(), 20.0);
}

TEST(DroneNavEnv, StepCapFails) {
  DroneNavEnv::Options opts;
  opts.world.density = 0.0;
  opts.max_steps = 5;
  DroneNavEnv env(5, opts, DroneCamera::Options{});
  Rng rng(1);
  env.reset(rng);
  StepResult r;
  for (int t = 0; t < 5; ++t) r = env.step(10, rng);  // slow straight
  EXPECT_TRUE(r.done);
  EXPECT_FALSE(r.success);
  EXPECT_THROW(env.step(0, rng), Error);
}

// A drone that spins in place fails the mission once a whole stall window
// passes with too little net displacement; a straight flight does not.
TEST(DroneNavEnv, SpinningInPlaceStallsAtTheWindow) {
  DroneNavEnv::Options opts;
  opts.world.density = 0.0;  // nothing to crash into
  constexpr std::size_t kSpin = 4 * 5 + 0;      // full left yaw, slowest
  constexpr std::size_t kStraight = 2 * 5 + 0;  // no yaw, slowest
  ASSERT_EQ(DroneNavEnv::kStallWindowSteps, 40u);

  DroneNavEnv spin(15, opts, DroneCamera::Options{});
  Rng rng(1);
  spin.reset(rng);
  for (std::size_t t = 1; t < 40; ++t)
    ASSERT_FALSE(spin.step(kSpin, rng).done) << "step " << t;
  const StepResult stalled = spin.step(kSpin, rng);
  EXPECT_TRUE(stalled.done);
  EXPECT_FALSE(stalled.success);
  // Spinning still racks up path length; the stall rule is what ends it.
  EXPECT_GT(spin.flight_distance(), DroneNavEnv::kStallMinDisplacement);

  DroneNavEnv straight(15, opts, DroneCamera::Options{});
  Rng rng2(1);
  straight.reset(rng2);
  StepResult r;
  for (std::size_t t = 1; t <= 40; ++t) r = straight.step(kStraight, rng2);
  EXPECT_FALSE(r.done);
}

TEST(DroneNavEnv, FlyingIntoObstacleCrashes) {
  DroneNavEnv env(6);
  Rng rng(2);
  env.reset(rng);
  // Fly straight at max speed until something ends the episode; in a
  // default-density world with a fixed heading that must be a crash or the
  // distance budget.
  StepResult r;
  int steps = 0;
  do {
    r = env.step(14, rng);
    ++steps;
  } while (!r.done && steps < 1000);
  EXPECT_TRUE(r.done);
}

TEST(DroneNavEnv, RewardPositiveInOpenSpace) {
  DroneNavEnv::Options opts;
  opts.world.density = 0.0;
  DroneNavEnv env(7, opts, DroneCamera::Options{});
  Rng rng(1);
  env.reset(rng);
  EXPECT_GT(env.step(14, rng).reward, 0.0f);
}

TEST(HeuristicPilot, SteersTowardOpenSector) {
  DroneNavEnv env(8);
  HeuristicPilot pilot(env);
  // Depth scan with the left blocked: pilot must not turn left.
  std::vector<double> depths(env.camera().options().width, 60.0);
  for (std::size_t c = 0; c < depths.size() / 2; ++c) depths[c] = 3.0;
  const std::size_t action = pilot.act_from_depths(depths);
  const auto [yaw, speed] = env.decode_action(action);
  EXPECT_LT(yaw, 0.0);  // right turn
  (void)speed;
}

TEST(HeuristicPilot, SlowsWhenBoxedIn) {
  DroneNavEnv env(9);
  HeuristicPilot pilot(env);
  std::vector<double> near(env.camera().options().width, 2.0);
  const auto [yaw, speed] = env.decode_action(pilot.act_from_depths(near));
  EXPECT_DOUBLE_EQ(speed, env.options().min_speed);
  (void)yaw;
}

TEST(HeuristicPilot, ActBeforeResetThrows) {
  const DroneNavEnv env(8);
  const HeuristicPilot pilot(env);
  EXPECT_THROW(pilot.act(env), Error);
}

// act() reads the depths the env scanned for its latest frame; they must be
// the ones a fresh scan of the drone's pose and heading gives, after
// resets, crashes and cell changes alike.
TEST(HeuristicPilot, FrameDepthsMatchFreshScan) {
  DroneNavEnv::Options opts;
  opts.max_steps = 90;
  DroneNavEnv env(14, opts, DroneCamera::Options{});
  const HeuristicPilot pilot(env);
  const DroneCamera& cam = env.camera();
  Rng rng(6);
  SplitMix64 script(12);
  const auto fresh_scan = [&] {
    const DroneState& s = env.state();
    return scan(cam, ObstacleNeighbourhood(env.world(), s.position,
                                           cam.options().max_range),
                s.position, s.heading);
  };
  env.reset(rng);
  int resets = 0, crashes = 0;
  for (int t = 0; t < 400; ++t) {
    const std::vector<double> fresh = fresh_scan();
    ASSERT_EQ(env.frame_depths().size(), fresh.size());
    for (std::size_t c = 0; c < fresh.size(); ++c)
      ASSERT_TRUE(same_bits(env.frame_depths()[c], fresh[c])) << "step " << t;
    const std::size_t action = pilot.act(env);
    ASSERT_EQ(action, pilot.act_from_depths(fresh));
    // Three steps in four fly a scripted random action, so episodes end
    // in crashes as well as at the step cap.
    const std::size_t drive = script.next() % 4 == 0
                                  ? action
                                  : static_cast<std::size_t>(script.next() % 25);
    const StepResult r = env.step(drive, rng);
    if (r.done) {
      crashes += r.reward == opts.crash_penalty;
      env.reset(rng);
      ++resets;
    }
  }
  EXPECT_GE(resets, 4);
  EXPECT_GE(crashes, 1);
}

TEST(HeuristicPilot, FliesFarInDefaultWorld) {
  DroneNavEnv env(10);
  HeuristicPilot pilot(env);
  Rng rng(3);
  double total = 0.0;
  constexpr int kEpisodes = 3;
  for (int e = 0; e < kEpisodes; ++e) {
    env.reset(rng);
    for (std::size_t t = 0; t < env.options().max_steps; ++t)
      if (env.step(pilot.act(env), rng).done) break;
    total += env.flight_distance();
  }
  EXPECT_GT(total / kEpisodes, 400.0);
}

// The ray march as it stood before the neighbourhood cache, driven by the
// per-query ObstacleWorld::clearance: the oracle for every fan cast.
double reference_cast_ray(const ObstacleWorld& w, Vec2 origin, double heading,
                          double max_range) {
  const Vec2 dir{std::cos(heading), std::sin(heading)};
  double t = 0.0;
  while (t < max_range) {
    const Vec2 p{origin.x + dir.x * t, origin.y + dir.y * t};
    const double c = w.clearance(p, max_range);
    if (c <= 0.0) return t;
    t += std::max(c, 0.25);
  }
  return max_range;
}

// collides() as it stood: a 3x3 scan for a point strictly inside a disk.
bool reference_collides(const ObstacleWorld& w, Vec2 p) {
  const double cell = w.options().cell_size;
  const auto cx = static_cast<std::int64_t>(std::floor(p.x / cell));
  const auto cy = static_cast<std::int64_t>(std::floor(p.y / cell));
  for (std::int64_t dx = -1; dx <= 1; ++dx)
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      const auto ob = w.obstacle_in_cell(cx + dx, cy + dy);
      if (!ob) continue;
      const double ex = p.x - ob->center.x, ey = p.y - ob->center.y;
      if (std::sqrt(ex * ex + ey * ey) < ob->radius) return true;
    }
  return false;
}

// The worlds the equivalence tests sweep: default statistics, a
// non-default lattice, a dense field without the spawn clearing, and a
// sparse one where the nearest obstacle is often two cells away (so the
// outer ring of the 5x5 scan decides the result).
std::vector<ObstacleWorld> equivalence_worlds() {
  ObstacleWorld::Options small;
  small.cell_size = 19.0;
  small.max_radius = 4.0;
  small.density = 0.7;
  ObstacleWorld::Options dense;
  dense.density = 0.9;
  dense.spawn_clearance = 0.0;
  ObstacleWorld::Options sparse;
  sparse.density = 0.08;
  return {ObstacleWorld(42), ObstacleWorld(9001, small),
          ObstacleWorld(3, dense), ObstacleWorld(5, sparse)};
}

// A random point within `span` of `centre`; three in eight are snapped
// onto a cell edge or corner, where floor() decides the cell.
Vec2 probe_point(Rng& rng, Vec2 centre, double span, double cell) {
  Vec2 p{centre.x + rng.uniform(-span, span), centre.y + rng.uniform(-span, span)};
  switch (rng.uniform_index(8)) {
    case 0: p.x = std::round(p.x / cell) * cell; break;
    case 1: p.y = std::round(p.y / cell) * cell; break;
    case 2:
      p.x = std::round(p.x / cell) * cell;
      p.y = std::round(p.y / cell) * cell;
      break;
    default: break;
  }
  return p;
}

TEST(ObstacleNeighbourhood, ClearanceBitIdenticalToWorld) {
  Rng rng(17);
  int fallbacks = 0, checked = 0;
  for (const ObstacleWorld& w : equivalence_worlds()) {
    const double cell = w.options().cell_size;
    for (const double range : {60.0, 20.0, 130.0}) {
      for (int k = 0; k < 12; ++k) {
        // Centres on both sides of the origin, some exactly on a corner.
        Vec2 centre{rng.uniform(-400.0, 400.0), rng.uniform(-400.0, 400.0)};
        if (k % 3 == 0) centre = {std::floor(centre.x / cell) * cell, -cell * k};
        const ObstacleNeighbourhood near(w, centre, range);
        // Probe past the window so the hashing fallback runs too.
        const double span = range + 4.0 * cell;
        for (int q = 0; q < 300; ++q) {
          const Vec2 p = probe_point(rng, centre, span, cell);
          for (const double cap : {100.0, 10.0, range}) {
            ASSERT_TRUE(same_bits(near.clearance(p, cap), w.clearance(p, cap)))
                << "p=(" << p.x << ", " << p.y << ") cap=" << cap;
            ++checked;
          }
          const double window = (2.0 + std::ceil(range / cell)) * cell;
          fallbacks += std::abs(p.x - centre.x) > window + cell;
        }
      }
    }
  }
  EXPECT_GT(fallbacks, 100);
  EXPECT_GT(checked, 10000);
}

TEST(ObstacleNeighbourhood, FanCastBitIdenticalToReferenceMarch) {
  Rng rng(23);
  for (const ObstacleWorld& w : equivalence_worlds()) {
    const double cell = w.options().cell_size;
    for (const double range : {20.0, 60.0, 130.0}) {
      for (int k = 0; k < 10; ++k) {
        const Vec2 centre{rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0)};
        const ObstacleNeighbourhood near(w, centre, range);
        for (int q = 0; q < 10; ++q) {
          // Poses mostly in the centre cell (the env's case), some a few
          // cells away so rays leave the window.
          const double spread = q % 4 == 0 ? 3.0 * cell : 0.5 * cell;
          const Vec2 o = probe_point(rng, centre, spread, cell);
          const auto fan = near.fan(o, range);
          for (int r = 0; r < 6; ++r) {
            const double h = rng.uniform(-7.0, 7.0);
            ASSERT_TRUE(same_bits(fan.cast(h), reference_cast_ray(w, o, h, range)))
                << "o=(" << o.x << ", " << o.y << ") h=" << h;
          }
        }
      }
    }
  }
}

// Rays that skim a disk: the heading to each nearby centre turned by
// +-asin(r / d), the exact tangent, and nudged an ulp either way. Poses sit
// on cell edges and corners (where floor() decides the cell) as well as
// inside cells, and each is cast through a window centred on it and
// through one two cells off, whose edge makes late steps fall back to
// hashing.
TEST(ObstacleNeighbourhood, FanGrazingRaysBitIdenticalToReferenceMarch) {
  Rng rng(41);
  int grazing = 0;
  for (const ObstacleWorld& w : equivalence_worlds()) {
    const double cell = w.options().cell_size;
    for (const double range : {20.0, 60.0, 130.0}) {
      for (int k = 0; k < 12; ++k) {
        Vec2 pose{rng.uniform(-250.0, 250.0), rng.uniform(-250.0, 250.0)};
        if (k % 3 == 1) pose.x = std::round(pose.x / cell) * cell;
        if (k % 3 == 2)
          pose = {std::round(pose.x / cell) * cell,
                  std::round(pose.y / cell) * cell};
        const ObstacleNeighbourhood centred(w, pose, range);
        const ObstacleNeighbourhood off(
            w, Vec2{pose.x + 2.0 * cell, pose.y - 2.0 * cell}, range);
        const auto fan = centred.fan(pose, range);
        const auto off_fan = off.fan(pose, range);
        const std::int64_t pcx = w.cell_of(pose.x), pcy = w.cell_of(pose.y);
        for (std::int64_t dx = -3; dx <= 3; ++dx)
          for (std::int64_t dy = -3; dy <= 3; ++dy) {
            const auto ob = w.obstacle_in_cell(pcx + dx, pcy + dy);
            if (!ob) continue;
            const double ex = ob->center.x - pose.x, ey = ob->center.y - pose.y;
            const double d = std::sqrt(ex * ex + ey * ey);
            if (d <= ob->radius || d - ob->radius >= range) continue;
            const double bearing = std::atan2(ey, ex);
            const double half = std::asin(ob->radius / d);
            for (const double edge : {bearing + half, bearing - half}) {
              for (const double h :
                   {std::nextafter(edge, -10.0), edge, std::nextafter(edge, 10.0)}) {
                const double ref = reference_cast_ray(w, pose, h, range);
                ASSERT_TRUE(same_bits(fan.cast(h), ref))
                    << "pose=(" << pose.x << ", " << pose.y << ") h=" << h;
                ASSERT_TRUE(same_bits(off_fan.cast(h), ref));
                ++grazing;
              }
            }
          }
      }
    }
  }
  EXPECT_GT(grazing, 500);
}

TEST(ObstacleNeighbourhood, CappedWindowFallsBackForLongRays) {
  // 400 m rays over an 11 m lattice would need a +-39-cell window; the
  // window stops at +-16 and the rest of each ray hashes as it goes.
  ObstacleWorld::Options opts;
  opts.cell_size = 11.0;
  opts.density = 0.03;
  const ObstacleWorld w(61, opts);
  Rng rng(37);
  for (int k = 0; k < 40; ++k) {
    const Vec2 o{rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)};
    const double h = rng.uniform(-4.0, 4.0);
    const ObstacleNeighbourhood near(w, o, 400.0);
    const double ref = reference_cast_ray(w, o, h, 400.0);
    ASSERT_TRUE(same_bits(near.fan(o, 400.0).cast(h), ref));
  }
}

TEST(ObstacleNeighbourhood, CollidesMatchesThreeByThreeScan) {
  Rng rng(29);
  int hits = 0;
  for (const ObstacleWorld& w : equivalence_worlds()) {
    for (int q = 0; q < 4000; ++q) {
      const Vec2 p =
          probe_point(rng, {0.0, 0.0}, 200.0, w.options().cell_size);
      const bool ref = reference_collides(w, p);
      ASSERT_EQ(w.collides(p), ref);
      hits += ref;
    }
  }
  EXPECT_GT(hits, 100);
}

TEST(DroneCamera, NeighbourhoodScanAndRenderBitIdentical) {
  Rng rng(31);
  std::vector<DroneCamera::Options> cams(2);
  cams[1].width = 20;
  cams[1].height = 12;
  cams[1].max_range = 75.0;
  for (const ObstacleWorld& w : equivalence_worlds()) {
    const double cell = w.options().cell_size;
    for (const DroneCamera::Options& copts : cams) {
      const DroneCamera cam(copts);
      for (int k = 0; k < 15; ++k) {
        const Vec2 pose = probe_point(rng, {0.0, 0.0}, 250.0, cell);
        const double heading = rng.uniform(-4.0, 4.0);
        // Reference depths column by column from the golden march.
        const ObstacleNeighbourhood centred(w, pose, copts.max_range);
        const auto depths = scan(cam, centred, pose, heading);
        ASSERT_EQ(depths.size(), copts.width);
        for (std::size_t c = 0; c < copts.width; ++c) {
          const double frac = (static_cast<double>(c) + 0.5) /
                              static_cast<double>(copts.width);
          const double angle = heading + copts.fov * (0.5 - frac);
          ASSERT_TRUE(same_bits(
              depths[c], reference_cast_ray(w, pose, angle, copts.max_range)));
        }
        // A window two cells off (partial fallback) must reproduce the
        // centred one.
        const ObstacleNeighbourhood near(
            w, Vec2{pose.x + 2 * cell, pose.y - cell}, copts.max_range);
        const auto nd = scan(cam, near, pose, heading);
        for (std::size_t c = 0; c < copts.width; ++c)
          ASSERT_TRUE(same_bits(nd[c], depths[c]));
        ASSERT_TRUE(same_bits(render(cam, near, pose, heading),
                              render(cam, centred, pose, heading)));
      }
    }
  }
}

TEST(DroneNavEnv, CopiedEnvKeepsProducingIdenticalFrames) {
  DroneNavEnv env(12);
  Rng rng(4);
  env.reset(rng);
  SplitMix64 script(99);
  for (int t = 0; t < 30; ++t)
    if (env.step(static_cast<std::size_t>(script.next() % 25), rng).done)
      env.reset(rng);

  // A copy, a copy-assigned env and a move-constructed one (whose source
  // is gone) must fly on identically to the original.
  DroneNavEnv copy = env;
  DroneNavEnv assigned(1);
  assigned = env;
  auto source = std::make_unique<DroneNavEnv>(env);
  DroneNavEnv moved(std::move(*source));
  source.reset();
  std::vector<std::pair<DroneNavEnv*, Rng>> twins{
      {&copy, rng}, {&assigned, rng}, {&moved, rng}};
  for (int t = 0; t < 150; ++t) {
    const auto action = static_cast<std::size_t>(script.next() % 25);
    const StepResult a = env.step(action, rng);
    const Tensor next = a.done ? env.reset(rng) : Tensor();
    for (auto& [twin, twin_rng] : twins) {
      const StepResult b = twin->step(action, twin_rng);
      ASSERT_TRUE(same_bits(a.observation, b.observation)) << "step " << t;
      ASSERT_TRUE(same_bits(a.reward, b.reward));
      ASSERT_EQ(a.done, b.done);
      if (a.done) {
        ASSERT_TRUE(same_bits(next, twin->reset(twin_rng)));
      }
    }
  }
  for (const auto& twin : twins)
    EXPECT_TRUE(same_bits(env.flight_distance(), twin.first->flight_distance()));
}

// FNV-1a over the raw bytes of a value: a digest of exact bit patterns.
class BitDigest {
 public:
  void add_bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  template <typename T>
  void add(T v) {
    add_bytes(&v, sizeof v);
  }
  void add(const Tensor& t) { add_bytes(t.data().data(), t.size() * sizeof(float)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// Fly a fixed-seed env through a scripted 300-step action sequence,
// resetting whenever an episode ends, and digest every observation, every
// reward and each episode's final distance and pose.
std::uint64_t scripted_flight_digest(DroneNavEnv& env, std::uint64_t seed) {
  Rng rng(seed);
  SplitMix64 script(seed * 31 + 7);
  BitDigest digest;
  digest.add(env.reset(rng));
  int resets = 0;
  for (int t = 0; t < 300; ++t) {
    const std::size_t action = static_cast<std::size_t>(script.next() % 25);
    const StepResult r = env.step(action, rng);
    digest.add(r.observation);
    digest.add(r.reward);
    digest.add(r.done);
    if (r.done) {
      digest.add(env.flight_distance());
      digest.add(env.state().position.x);
      digest.add(env.state().position.y);
      digest.add(env.state().heading);
      digest.add(env.reset(rng));
      ++resets;
    }
  }
  digest.add(env.flight_distance());
  EXPECT_GE(resets, 2);  // the script must cross several episodes
  return digest.value();
}

// Digests recorded on the simulator before the obstacle neighbourhood
// cache existed: the cached simulator must fly bit-identical episodes.
// They pin the portable build's rounding; an FMA-contracting native build
// flies different (equally valid) bits.
TEST(DroneNavEnv, GoldenScriptedFlightDigest) {
#ifdef __FMA__
  GTEST_SKIP() << "digests are recorded for the portable (no-FMA) build";
#endif
  DroneNavEnv env(2024);
  EXPECT_EQ(scripted_flight_digest(env, 5), 0x94981E1D916F2689ULL);

  DroneNavEnv::Options opts;
  opts.world.cell_size = 19.0;
  opts.world.max_radius = 4.0;
  DroneCamera::Options cam;
  cam.width = 20;
  cam.height = 12;
  cam.max_range = 75.0;
  DroneNavEnv odd(77, opts, cam);
  EXPECT_EQ(scripted_flight_digest(odd, 9), 0xDE38793A44936C5DULL);
}

}  // namespace
}  // namespace frlfi
