#pragma once

/// \file gridworld.hpp
/// The paper's GridWorld navigation task (§IV-A): 10x10 mazes whose cells
/// are {hell, goal, source, free}; the agent starts at source and must
/// reach goal avoiding hells. Rewards: -1 crash, +1 goal, +0.1 moving
/// closer to the goal (Manhattan), -0.1 moving away.
///
/// Faithfulness note: the paper describes the
/// observation as only the four neighbouring cells (|S| = 3^4 = 81). That
/// observation is not sufficient to navigate toward an unseen goal, so — to
/// reach the paper's ~98% baseline success rate — the observation here is
/// the four neighbour cells *plus* the sign of the goal offset (dx, dy in
/// {-1,0,1}), i.e. the minimal goal-direction information the shaped reward
/// already presumes. A small action-slip probability models actuation
/// noise. Fault-injection conclusions are insensitive to this choice: the
/// policy remains a small quantized MLP and the failure mode under faults
/// (crashing into hells / timing out) is identical.

#include <array>
#include <cstdint>
#include <vector>

#include "rl/env.hpp"

namespace frlfi {

/// Cell types of the grid.
enum class Cell : std::uint8_t { Free = 0, Hell = 1, Goal = 2, Source = 3 };

/// A (row, col) grid coordinate.
struct GridPos {
  int row = 0;
  int col = 0;
  bool operator==(const GridPos&) const = default;
};

/// A 10x10 maze layout: obstacle set plus source and goal positions.
class GridLayout {
 public:
  /// Grid edge length (the paper's mazes are 10x10).
  static constexpr int kSize = 10;

  /// All-free layout with source at (0,0) and goal at (kSize-1,kSize-1).
  GridLayout();

  /// Cell type at (row, col); out-of-range queries return Hell, modelling
  /// the enclosing boundary.
  Cell at(int row, int col) const;

  /// Set a cell type (must be in range). Setting Source/Goal relocates the
  /// respective marker.
  void set(int row, int col, Cell c);

  /// Agent start position.
  GridPos source() const { return source_; }

  /// Goal position.
  GridPos goal() const { return goal_; }

  /// True when a hell-free path from source to goal exists (BFS).
  bool is_solvable() const;

  /// Random solvable layout with the requested obstacle count. Retries
  /// internally; throws Error if it cannot produce a solvable maze (only
  /// possible for absurd obstacle counts).
  ///
  /// Layouts are additionally filtered to be *reactively solvable*: a
  /// memoryless greedy bot using only the local observation (avoid hells,
  /// prefer goal-approaching moves) must reach the goal under every
  /// tie-break order. The paper's policies are exactly such reactive
  /// policies and its mazes reach ~98% success, so mazes with concave
  /// obstacle traps (unsolvable for *any* reactive policy) are out of
  /// scope by construction.
  static GridLayout random(Rng& rng, int n_hells);

  /// True when the deterministic reactive reference bot reaches the goal
  /// from the source under tie-break order `order` (0..3) within
  /// `max_steps`. Exposed for tests and the layout filter.
  bool reactive_bot_solves(int order, int max_steps = 200) const;

  /// reactive_bot_solves for all 4 tie-break orders.
  bool reactively_solvable(int max_steps = 200) const;

  /// The 12-environment suite of the paper's Fig. 2: 4 obstacle mazes,
  /// each instantiated with 3 different source/goal placements
  /// ("we combine 12 environments into 4 grids"). Deterministic.
  static std::vector<GridLayout> paper_suite();

 private:
  std::array<Cell, kSize * kSize> cells_{};
  GridPos source_{0, 0};
  GridPos goal_{kSize - 1, kSize - 1};
};

/// GridWorld as an episodic MDP.
class GridWorldEnv final : public Environment {
 public:
  /// Behavioural options.
  struct Options {
    /// Probability that an action is replaced by a uniformly random one
    /// (actuation noise; keeps greedy policies from deadlocking in loops).
    double slip_probability = 0.005;
    /// Hard step cap; exceeding it terminates the episode as a failure.
    std::size_t max_steps = 400;
  };

  /// Wrap a layout with default options.
  explicit GridWorldEnv(GridLayout layout)
      : GridWorldEnv(std::move(layout), Options{}) {}

  /// Wrap a layout.
  GridWorldEnv(GridLayout layout, Options opts);

  Tensor reset(Rng& rng) override;
  StepResult step(std::size_t action, Rng& rng) override;

  /// Actions: 0=up, 1=down, 2=right, 3=left (paper's action set).
  std::size_t action_count() const override { return 4; }

  /// Observation layout (10 features):
  ///  [0..3]  cardinal neighbour-cell codes (-1 hell / +1 goal / 0 free)
  ///          in action order (up, down, right, left);
  ///  [4..7]  diagonal neighbour codes (up-right, down-right, down-left,
  ///          up-left) — needed so a dodge-in-progress can still see the
  ///          obstacle it is skirting (otherwise the goal-direction
  ///          shaping pulls the agent straight back into a 2-cycle);
  ///  [8..9]  sign(goal_row - row), sign(goal_col - col).
  std::vector<std::size_t> observation_shape() const override { return {10}; }

  /// Number of observation features.
  static constexpr std::size_t kObservationSize = 10;

  /// The layout being navigated.
  const GridLayout& layout() const { return layout_; }

  /// Current agent position (diagnostics/tests).
  GridPos position() const { return pos_; }

 private:
  Tensor observe() const;
  int manhattan_to_goal(GridPos p) const;

  GridLayout layout_;
  Options opts_;
  GridPos pos_{0, 0};
  std::size_t steps_ = 0;
  bool done_ = true;
};

}  // namespace frlfi
