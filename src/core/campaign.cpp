#include "core/campaign.hpp"

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace frlfi {

std::vector<double> run_cell_campaign(
    std::size_t cells, std::size_t threads,
    const std::function<double(std::size_t)>& cell_fn) {
  FRLFI_CHECK(cells >= 1);
  FRLFI_CHECK(static_cast<bool>(cell_fn));
  std::vector<double> metrics(cells);
  dispatch_lanes(threads, cells, [&](std::size_t begin, std::size_t end) {
    for (std::size_t c = begin; c < end; ++c) metrics[c] = cell_fn(c);
  });
  return metrics;
}

}  // namespace frlfi
