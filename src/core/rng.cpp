#include "core/rng.hpp"

#include <cmath>

#include "core/error.hpp"

namespace frlfi {
namespace {

/// One SplitMix64 absorption step: fold `tag` into `h`. The single seed
/// mix behind split(), derive_stream() and mix_tags() — their documented
/// "same absorption" invariant holds because they all call this.
inline std::uint64_t absorb_tag(std::uint64_t h, std::uint64_t tag) {
  SplitMix64 sm(h ^ (0x9E3779B97F4A7C15ULL * (tag + 1)));
  return sm.next();
}

}  // namespace

BernoulliThreshold::BernoulliThreshold(double p) {
  FRLFI_CHECK_MSG(p >= 0.0 && p <= 1.0, "Bernoulli p " << p);
  if (p == 0.0) return;
  if (p == 1.0) {
    certain_ = true;
    return;
  }
  draws_ = true;
  threshold_ = static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

Rng::Rng(std::uint64_t seed) : seed_origin_(seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
  // A zero state would lock xoshiro at zero; SplitMix64 cannot emit four
  // zero words for any seed, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x1ULL;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  FRLFI_CHECK_MSG(lo <= hi, "uniform(lo,hi) with lo=" << lo << " hi=" << hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  FRLFI_CHECK(n > 0);
  // Lemire's multiply-shift rejection method: unbiased.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  FRLFI_CHECK_MSG(lo <= hi, "uniform_int with lo=" << lo << " hi=" << hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  FRLFI_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    FRLFI_CHECK_MSG(w >= 0.0, "categorical weight " << w << " < 0");
    total += w;
  }
  if (total <= 1e-300) return static_cast<std::size_t>(uniform_index(weights.size()));
  double u = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;  // floating-point edge
}

Rng Rng::split(std::uint64_t tag) const {
  // Mix the original seed with the tag; independent of how much of the
  // parent stream has been consumed, so split() is stable regardless of
  // call ordering elsewhere.
  return Rng(absorb_tag(seed_origin_, tag));
}

Rng Rng::derive_stream(std::initializer_list<std::uint64_t> components) const {
  Rng child = *this;
  for (const std::uint64_t c : components) child = child.split(c);
  return child;
}

std::uint64_t Rng::mix_tags(std::uint64_t seed,
                            std::initializer_list<std::uint64_t> components) {
  // The exact absorption derive_stream's seed chain performs, exposed as a
  // plain tag for map keys and similar non-stream uses.
  std::uint64_t h = seed;
  for (const std::uint64_t c : components) h = absorb_tag(h, c);
  return h;
}

}  // namespace frlfi
