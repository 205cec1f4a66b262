#pragma once

/// \file rng.hpp
/// Deterministic, stream-splittable random number generation.
///
/// All stochasticity in FRL-FI (environment resets, exploration, bit-flip
/// sites, communication noise) flows from seeded Xoshiro256** streams so a
/// campaign is reproducible bit-for-bit given (seed, scale). SplitMix64 is
/// used to expand a single user seed into independent sub-streams, the
/// scheme recommended by the xoshiro authors.

#include <array>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace frlfi {

/// SplitMix64: tiny, high-quality seed expander (Steele et al.).
/// Used both as a standalone generator for seeding and to derive
/// independent sub-streams from a parent seed.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64-bit value.
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// A Bernoulli(p) trial resolved once into an integer threshold, for
/// loops that draw many trials at one p (per-bit faults, channel noise).
/// Rng::bernoulli(const BernoulliThreshold&) returns exactly what
/// Rng::bernoulli(p) returns and consumes exactly the same draws:
///  * p <= 0 never hits and p >= 1 always hits, both without drawing
///    (bernoulli(p)'s early returns);
///  * otherwise a draw hits iff (next_u64() >> 11) < T, T = ceil(p·2^53).
///    bernoulli(p) hits iff k·2^-53 < p for the 53-bit integer
///    k = next_u64() >> 11, and k·2^-53 < p <=> k < p·2^53 <=> k < T
///    (ldexp is exact, so p·2^53 is exact; k is an integer).
/// One integer compare per draw instead of an int->double convert, a
/// multiply and a double compare behind an out-of-line call. The
/// constructor checks p ∈ [0, 1] (NaN included), so every loop built on
/// it validates its rate.
class BernoulliThreshold {
 public:
  explicit BernoulliThreshold(double p);

  /// False for p <= 0 and p >= 1: the result is constant, nothing drawn.
  bool draws() const { return draws_; }
  /// The constant result when !draws() (true iff p >= 1).
  bool certain() const { return certain_; }
  /// T: a draw hits iff (next_u64() >> 11) < T. In [1, 2^53) when draws().
  std::uint64_t threshold() const { return threshold_; }

 private:
  std::uint64_t threshold_ = 0;
  bool draws_ = false;
  bool certain_ = false;
};

/// Xoshiro256**: the main generator. Fast, 256-bit state, passes BigCrush.
/// Satisfies UniformRandomBitGenerator so it can be used with <random>
/// distributions, but the convenience members below avoid libstdc++
/// distribution-implementation dependence for reproducibility.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed (expanded through SplitMix64).
  explicit Rng(std::uint64_t seed = 0x5EEDBA5EBA11ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value.
  result_type operator()() { return next_u64(); }

  /// Next raw 64-bit value. Inline so the xoshiro step folds into the
  /// per-bit loops of other translation units.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) using Lemire's unbiased method. n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// The same trial as bernoulli(p) for the p `thr` was built from: same
  /// result, same draws (none when p <= 0 or p >= 1).
  bool bernoulli(const BernoulliThreshold& thr) {
    if (!thr.draws()) return thr.certain();
    return (next_u64() >> 11) < thr.threshold();
  }

  /// `nbits` (0..32) trials of bernoulli(thr) in order; bit b of the
  /// result is set iff trial b hits.
  std::uint32_t bernoulli_mask(const BernoulliThreshold& thr, int nbits) {
    if (!thr.draws())
      return thr.certain()
                 ? static_cast<std::uint32_t>((std::uint64_t{1} << nbits) - 1)
                 : 0u;
    std::uint32_t mask = 0;
    for (int b = 0; b < nbits; ++b)
      mask |= static_cast<std::uint32_t>((next_u64() >> 11) <
                                         thr.threshold())
              << b;
    return mask;
  }

  /// Sample an index from an (unnormalized, non-negative) weight vector.
  /// Falls back to uniform choice when the total weight is ~0.
  std::size_t categorical(const std::vector<double>& weights);

  /// Derive an independent child stream. Children with distinct tags are
  /// statistically independent of the parent and of each other.
  Rng split(std::uint64_t tag) const;

  /// Derive the child stream identified by an ordered component list —
  /// exactly split(c0).split(c1)..., so existing chained-split streams
  /// (e.g. the per-(salt+agent, trial) evaluation streams) keep their
  /// bits. One call for hierarchical keys instead of ad-hoc chains.
  Rng derive_stream(std::initializer_list<std::uint64_t> components) const;

  /// Mix an ordered component list into one well-distributed 64-bit tag
  /// (iterated SplitMix64 absorption, the same mix split() uses). The
  /// shared replacement for hand-rolled shift/XOR packings — e.g. the
  /// pretraining cache key's old `a << 32 ^ b << 44`, whose wide
  /// components overflow into each other's bit ranges and collide.
  /// Order-sensitive: mix_tags(s, {a, b}) != mix_tags(s, {b, a}).
  static std::uint64_t mix_tags(std::uint64_t seed,
                                std::initializer_list<std::uint64_t> components);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_origin_ = 0;  // remembered for split()
};

}  // namespace frlfi
