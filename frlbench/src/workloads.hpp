#pragma once

/// \file workloads.hpp
/// The benchmark's three workloads, each in two builds:
///
///  * **plain** — the workload as a user runs it, through the paper
///    systems' public API (DroneFrlSystem / GridWorldFrlSystem). The
///    end-to-end metrics come from this build.
///  * **traced** — the same workload assembled from the library's public
///    entry points (FederatedRoundEngine with benchmark-owned hooks,
///    decorated environments and networks, the Trans-1 strike calls), so
///    spans can sit at every layer boundary. Its results must equal the
///    plain build's bit for bit; main.cpp checks that.
///
/// Every op of a workload does the same kind of work; ops round-robin over
/// `systems` independent systems built in set-up.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace frlbench {

/// Named outcome of a correctness check.
struct Check {
  std::string name;
  bool passed = false;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Independent systems a run builds in set-up (`setup_s` is their median).
inline constexpr std::size_t kSystems = 3;

/// Fixed description of a workload (recorded in every run's manifest).
struct WorkloadInfo {
  const char* name;
  /// Ops per second of run time: a run of S seconds times a fixed
  /// ceil(S * ops_per_second) ops, so wall_s compares like with like.
  double ops_per_second;
  /// Paper-level knobs of the workload, for the manifest.
  const char* params;
  /// Whether the timed phase must show channel flips (else none at all).
  bool channel_noise;
};

/// Look up a workload by name (null when unknown).
const WorkloadInfo* find_workload(const std::string& name);

/// All workloads, in a fixed order.
const std::vector<WorkloadInfo>& all_workloads();

/// Counters visible only to the traced build, deltas over the timed phase.
struct LayerCounters {
  double rounds = 0;
  double channel_bytes = 0;
  double channel_messages = 0;
  double channel_bits_corrupted = 0;
  double checkpoints = 0;
  double recoveries = 0;
};

/// One workload instance over `systems` systems.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Build system k (the timed set-up).
  virtual void setup(std::size_t k) = 0;
  /// Called once between set-up and the first op.
  virtual void begin_timed() {}
  /// Run op i on system k; false when the op's output check fails.
  virtual bool op(std::size_t k, std::size_t i) = 0;
  /// task_score of system k in %, evaluated after the timed phase.
  virtual double score(std::size_t k) = 0;
  /// Bit-exact results of system k (parameters or op outputs), compared
  /// between the plain and the traced build.
  virtual std::vector<double> fingerprint(std::size_t k) = 0;
  /// Checks after scoring: task_score in its physical range, plus
  /// workload-specific ones (plain build).
  virtual void check(std::vector<Check>& /*out*/) {}
  /// Traced build only: counters over the timed phase.
  virtual LayerCounters counters() { return {}; }
};

/// What a run asks of a workload: the benchmark seed and the run's shape.
struct RunInput {
  std::uint64_t seed = 0;
  std::size_t systems = 1;
  std::size_t ops = 1;
  /// Ops that land on system k (ops go round-robin over the systems).
  std::size_t ops_of(std::size_t k) const {
    return ops / systems + (k < ops % systems ? 1 : 0);
  }
};

/// The plain build of a workload.
std::unique_ptr<Workload> make_plain(const WorkloadInfo& info,
                                     const RunInput& in);

/// The traced build; `plain` is the plain build of the same run (the
/// inference workload evaluates the plain build's trained systems).
std::unique_ptr<Workload> make_traced(const WorkloadInfo& info,
                                      const RunInput& in, Tracer& tracer,
                                      Workload& plain);

}  // namespace frlbench
