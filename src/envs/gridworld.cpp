#include "envs/gridworld.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "core/error.hpp"

namespace frlfi {
namespace {

constexpr int kN = GridLayout::kSize;

/// Displacements for actions 0=up, 1=down, 2=right, 3=left.
constexpr std::array<std::array<int, 2>, 4> kMoves{{{-1, 0}, {1, 0}, {0, 1}, {0, -1}}};

int index_of(int row, int col) { return row * kN + col; }

bool in_range(int row, int col) {
  return row >= 0 && row < kN && col >= 0 && col < kN;
}

}  // namespace

GridLayout::GridLayout() { cells_.fill(Cell::Free); }

Cell GridLayout::at(int row, int col) const {
  if (!in_range(row, col)) return Cell::Hell;  // enclosing boundary
  const GridPos p{row, col};
  if (p == source_) return Cell::Source;
  if (p == goal_) return Cell::Goal;
  return cells_[static_cast<std::size_t>(index_of(row, col))];
}

void GridLayout::set(int row, int col, Cell c) {
  FRLFI_CHECK_MSG(in_range(row, col), "cell (" << row << "," << col << ")");
  switch (c) {
    case Cell::Source:
      cells_[static_cast<std::size_t>(index_of(row, col))] = Cell::Free;
      source_ = {row, col};
      break;
    case Cell::Goal:
      cells_[static_cast<std::size_t>(index_of(row, col))] = Cell::Free;
      goal_ = {row, col};
      break;
    default:
      cells_[static_cast<std::size_t>(index_of(row, col))] = c;
      break;
  }
}

bool GridLayout::is_solvable() const {
  if (at(source_.row, source_.col) == Cell::Hell) return false;
  std::array<bool, kN * kN> seen{};
  std::queue<GridPos> frontier;
  frontier.push(source_);
  seen[static_cast<std::size_t>(index_of(source_.row, source_.col))] = true;
  while (!frontier.empty()) {
    const GridPos p = frontier.front();
    frontier.pop();
    if (p == goal_) return true;
    for (const auto& m : kMoves) {
      const int r = p.row + m[0], c = p.col + m[1];
      if (!in_range(r, c)) continue;
      if (at(r, c) == Cell::Hell) continue;
      const auto idx = static_cast<std::size_t>(index_of(r, c));
      if (seen[idx]) continue;
      seen[idx] = true;
      frontier.push({r, c});
    }
  }
  return false;
}

bool GridLayout::reactive_bot_solves(int order, int max_steps) const {
  FRLFI_CHECK(order >= 0 && order < 4);
  GridPos pos = source_;
  for (int step = 0; step < max_steps; ++step) {
    int best_action = -1;
    int best_score = -1000;
    for (int k = 0; k < 4; ++k) {
      // Tie-break order: rotate the action preference by `order`.
      const int a = (k + order) % 4;
      const int r = pos.row + kMoves[a][0];
      const int c = pos.col + kMoves[a][1];
      const Cell cell = at(r, c);
      if (cell == Cell::Hell) continue;
      int score = 0;
      if (cell == Cell::Goal) {
        score = 100;
      } else {
        const int d_now = std::abs(pos.row - goal_.row) +
                          std::abs(pos.col - goal_.col);
        const int d_next =
            std::abs(r - goal_.row) + std::abs(c - goal_.col);
        score = d_next < d_now ? 1 : 0;
      }
      if (score > best_score) {
        best_score = score;
        best_action = a;
      }
    }
    if (best_action < 0) return false;  // boxed in by hells
    pos = {pos.row + kMoves[best_action][0], pos.col + kMoves[best_action][1]};
    if (pos == goal_) return true;
  }
  return false;
}

bool GridLayout::reactively_solvable(int max_steps) const {
  for (int order = 0; order < 4; ++order)
    if (!reactive_bot_solves(order, max_steps)) return false;
  return true;
}

GridLayout GridLayout::random(Rng& rng, int n_hells) {
  FRLFI_CHECK_MSG(n_hells >= 0 && n_hells <= kN * kN - 2,
                  "obstacle count " << n_hells);
  constexpr int kMaxAttempts = 1000;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    GridLayout layout;
    const auto rand_pos = [&rng] {
      return GridPos{static_cast<int>(rng.uniform_index(kN)),
                     static_cast<int>(rng.uniform_index(kN))};
    };
    GridPos src = rand_pos();
    GridPos goal = rand_pos();
    if (src == goal) continue;
    layout.set(src.row, src.col, Cell::Source);
    layout.set(goal.row, goal.col, Cell::Goal);
    int placed = 0;
    for (int tries = 0; placed < n_hells && tries < 500; ++tries) {
      const GridPos p = rand_pos();
      if (p == src || p == goal) continue;
      if (layout.at(p.row, p.col) == Cell::Hell) continue;
      // Obstacles are kept isolated (no hell within the 8-neighbourhood):
      // the paper's mazes scatter individual cells (Fig. 2), and isolated
      // obstacles keep the go-around decision purely local — the regime a
      // reactive policy (and hence the shared FRL policy) can master.
      bool crowded = false;
      for (int dr = -1; dr <= 1 && !crowded; ++dr)
        for (int dc = -1; dc <= 1 && !crowded; ++dc)
          if ((dr || dc) && layout.at(p.row + dr, p.col + dc) == Cell::Hell &&
              in_range(p.row + dr, p.col + dc))
            crowded = true;
      if (crowded) continue;
      layout.set(p.row, p.col, Cell::Hell);
      ++placed;
    }
    if (placed == n_hells && layout.is_solvable() &&
        layout.reactively_solvable())
      return layout;
  }
  throw Error("GridLayout::random: could not generate a solvable maze");
}

std::vector<GridLayout> GridLayout::paper_suite() {
  // 4 obstacle mazes x 3 source/goal placements = 12 environments,
  // mirroring Fig. 2's "12 environments combined into 4 grids".
  std::vector<GridLayout> suite;
  suite.reserve(12);
  for (std::uint64_t maze = 0; maze < 4; ++maze) {
    Rng maze_rng(0xF16'2000ULL + maze);
    const int n_hells = 6 + static_cast<int>(maze);  // 6, 7, 8, 9
    const GridLayout base = GridLayout::random(maze_rng, n_hells);
    for (std::uint64_t variant = 0; variant < 3; ++variant) {
      Rng var_rng = maze_rng.split(100 + variant);
      constexpr int kMaxTries = 1000;
      for (int t = 0; t < kMaxTries; ++t) {
        GridLayout env = base;
        const auto rand_pos = [&var_rng] {
          return GridPos{static_cast<int>(var_rng.uniform_index(kN)),
                         static_cast<int>(var_rng.uniform_index(kN))};
        };
        const GridPos src = rand_pos();
        const GridPos goal = rand_pos();
        if (src == goal) continue;
        if (base.at(src.row, src.col) == Cell::Hell) continue;
        if (base.at(goal.row, goal.col) == Cell::Hell) continue;
        env.set(src.row, src.col, Cell::Source);
        env.set(goal.row, goal.col, Cell::Goal);
        if (!env.is_solvable() || !env.reactively_solvable()) continue;
        suite.push_back(env);
        break;
      }
      FRLFI_CHECK_MSG(suite.size() == maze * 3 + variant + 1,
                      "paper_suite: failed to place variant " << variant
                                                              << " of maze "
                                                              << maze);
    }
  }
  return suite;
}

GridWorldEnv::GridWorldEnv(GridLayout layout, Options opts)
    : layout_(std::move(layout)), opts_(opts) {
  FRLFI_CHECK(opts_.slip_probability >= 0.0 && opts_.slip_probability < 1.0);
  FRLFI_CHECK(opts_.max_steps >= 1);
  FRLFI_CHECK_MSG(layout_.is_solvable(), "GridWorldEnv: unsolvable layout");
}

int GridWorldEnv::manhattan_to_goal(GridPos p) const {
  const GridPos g = layout_.goal();
  return std::abs(p.row - g.row) + std::abs(p.col - g.col);
}

Tensor GridWorldEnv::observe() const {
  Tensor obs({kObservationSize});
  const auto code = [this](int dr, int dc) -> float {
    const Cell c = layout_.at(pos_.row + dr, pos_.col + dc);
    if (c == Cell::Hell) return -1.0f;
    if (c == Cell::Goal) return 1.0f;
    return 0.0f;
  };
  for (std::size_t a = 0; a < 4; ++a)
    obs[a] = code(kMoves[a][0], kMoves[a][1]);
  // Diagonals: up-right, down-right, down-left, up-left.
  constexpr std::array<std::array<int, 2>, 4> kDiag{
      {{-1, 1}, {1, 1}, {1, -1}, {-1, -1}}};
  for (std::size_t d = 0; d < 4; ++d)
    obs[4 + d] = code(kDiag[d][0], kDiag[d][1]);
  const GridPos g = layout_.goal();
  obs[8] = static_cast<float>((g.row > pos_.row) - (g.row < pos_.row));
  obs[9] = static_cast<float>((g.col > pos_.col) - (g.col < pos_.col));
  return obs;
}

Tensor GridWorldEnv::reset(Rng& /*rng*/) {
  pos_ = layout_.source();
  steps_ = 0;
  done_ = false;
  return observe();
}

StepResult GridWorldEnv::step(std::size_t action, Rng& rng) {
  FRLFI_CHECK_MSG(!done_, "step() on finished episode");
  FRLFI_CHECK_MSG(action < 4, "action " << action);

  if (rng.bernoulli(opts_.slip_probability))
    action = static_cast<std::size_t>(rng.uniform_index(4));

  const int prev_dist = manhattan_to_goal(pos_);
  GridPos next{pos_.row + kMoves[action][0], pos_.col + kMoves[action][1]};

  StepResult result;
  const Cell target = layout_.at(next.row, next.col);
  const bool off_grid = !in_range(next.row, next.col);

  if (off_grid) {
    // The boundary is a wall: the move is absorbed, counted as moving away.
    result.reward = -0.1f;
  } else if (target == Cell::Hell) {
    pos_ = next;
    result.reward = -1.0f;
    result.done = true;
    result.success = false;
  } else if (target == Cell::Goal) {
    pos_ = next;
    result.reward = 1.0f;
    result.done = true;
    result.success = true;
  } else {
    pos_ = next;
    result.reward = manhattan_to_goal(pos_) < prev_dist ? 0.1f : -0.1f;
  }

  ++steps_;
  if (!result.done && steps_ >= opts_.max_steps) {
    result.done = true;
    result.success = false;
  }
  done_ = result.done;
  result.observation = observe();
  return result;
}

}  // namespace frlfi
