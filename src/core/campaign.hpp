#pragma once

/// \file campaign.hpp
/// Campaign runner: the outer loop of every fault-injection sweep. Each
/// cell depends only on its index, and the metrics come back in cell
/// order, so a pool-parallel campaign produces bit-identical results to a
/// serial one regardless of thread count or scheduling.

#include <cstddef>
#include <functional>
#include <vector>

namespace frlfi {

/// Parallel map over an indexed grid of independent cells — the outer
/// loop of the training-phase heatmap sweeps, where each cell builds and
/// trains whole FRL systems. `cell_fn(c)` must depend only on its index
/// (plus thread-safe shared state: the drone pretraining cache is), so
/// the returned cell-order metrics are bit-identical for every thread
/// policy. `threads` follows the campaign rule (dispatch_lanes): 1 =
/// strictly serial on the calling thread, 0 = a pool of every hardware
/// thread, N = a pool of N lanes (never more lanes than cells).
/// With more than one lane `cell_fn` runs concurrently. Nested use —
/// `cell_fn` itself dispatching on a pool — never deadlocks (see
/// parallel.hpp).
std::vector<double> run_cell_campaign(
    std::size_t cells, std::size_t threads,
    const std::function<double(std::size_t)>& cell_fn);

}  // namespace frlfi
