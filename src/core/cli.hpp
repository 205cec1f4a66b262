#pragma once

/// \file cli.hpp
/// Strict command-line number parsing shared by the bench harness
/// (BenchArgs) and the examples' positional arguments.

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

namespace frlfi {

/// Parse `text` as a plain non-negative decimal number into `out`: empty,
/// signed, non-digit, trailing-character and out-of-range text all fail,
/// and so do non-finite floating-point spellings ("inf", "nan"). `out` is
/// written only on success.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  if (text.empty() || text.front() == '-') return false;
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::floating_point<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

/// An example's optional positional argument: argv[1] parsed with
/// parse_number into `value`, which keeps its default when argv[1] is
/// absent. More than one argument, a malformed number or one outside
/// [lo, hi] prints "usage: <argv0> <usage>" to stderr and exits 2.
template <typename T>
void parse_positional(int argc, char** argv, const char* usage, T& value,
                      T lo = T{0}, T hi = std::numeric_limits<T>::max()) {
  if (argc < 2) return;
  T parsed{};
  if (argc > 2 || !parse_number(argv[1], parsed) || parsed < lo ||
      parsed > hi) {
    std::fprintf(stderr, "usage: %s %s\n", argv[0], usage);
    std::exit(2);
  }
  value = parsed;
}

}  // namespace frlfi
