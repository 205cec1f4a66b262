#pragma once

/// \file bench_util.hpp
/// Shared command-line handling for the benchmark harness. Every bench
/// binary accepts:
///   --trials=N   repetitions per campaign cell, >= 1 (default 1; the
///                paper uses 1000 for GridWorld and 100 for DroneNav)
///   --seed=N     base seed (default 42)
///   --fast       cut sweep resolution for smoke runs
///   --threads=N  worker lanes for pool-parallel heatmap cells
///                (default 1 = serial; 0 = every hardware thread).
///                Only the training-heatmap benches read it: fig3, fig5
///                and fig7. Every other bench runs its cells serially.
///   --train-threads=N  worker lanes for the per-agent local episodes
///                inside each system's train() (the federated round
///                engine; default 1 = serial, 0 = every hardware thread).
///                Read by fig3, fig5, fig6a, fig7 and ablation_layers.
///                Composes with --threads: cells fan across the pool AND
///                each cell's training rounds fan their agents. Results
///                are bit-identical for every combination.
/// A bench that does not read a flag still validates it. Every bench
/// prints the table/figure it reproduces with paper-vs-measured notes.

#include <cstdint>
#include <string>

namespace frlfi::bench {

/// Parsed command-line arguments.
struct BenchArgs {
  std::size_t trials = 1;
  std::uint64_t seed = 42;
  bool fast = false;
  /// Campaign-cell fan-out (heatmap sweeps): 1 serial, 0 every hardware
  /// thread, N explicit.
  /// Results are bit-identical for every value.
  std::size_t threads = 1;
  /// Per-agent episode fan-out inside train() (round engine): 1 serial,
  /// 0 every hardware thread, N explicit. Also bit-identical for every
  /// value.
  std::size_t train_threads = 1;

  /// Parse argv; an unknown flag or a malformed number (empty, signed,
  /// non-digit, trailing characters, out of range, or --trials=0) prints
  /// the usage line and exits 2.
  static BenchArgs parse(int argc, char** argv);
};

/// Print the standard bench banner: which figure/table of the paper this
/// binary regenerates and at what scale.
void print_banner(const std::string& figure, const std::string& description,
                  const BenchArgs& args);

}  // namespace frlfi::bench
