#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "core/cli.hpp"

namespace frlfi::bench {
namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--trials=N] [--seed=N] [--fast] [--threads=N] "
               "[--train-threads=N]\n",
               argv0);
}

}  // namespace

BenchArgs BenchArgs::parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value_of = [&](std::string_view flag, auto& out) {
      if (!arg.starts_with(flag)) return false;
      if (!parse_number(arg.substr(flag.size()), out)) {
        std::fprintf(stderr, "bad value in %s\n", argv[i]);
        print_usage(stderr, argv[0]);
        std::exit(2);
      }
      return true;
    };
    if (value_of("--trials=", args.trials) || value_of("--seed=", args.seed) ||
        value_of("--threads=", args.threads) ||
        value_of("--train-threads=", args.train_threads)) {
      continue;
    }
    if (arg == "--fast") {
      args.fast = true;
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      print_usage(stderr, argv[0]);
      std::exit(2);
    }
  }
  if (args.trials == 0) args.trials = 1;
  return args;
}

void print_banner(const std::string& figure, const std::string& description,
                  const BenchArgs& args) {
  std::cout << "================================================================\n"
            << "FRL-FI reproduction — " << figure << "\n"
            << description << "\n"
            << "trials/cell=" << args.trials << " seed=" << args.seed
            << (args.fast ? " (fast mode)" : "") << "\n"
            << "================================================================\n";
}

}  // namespace frlfi::bench
