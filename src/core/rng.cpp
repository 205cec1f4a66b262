#include "core/rng.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "core/codegen.hpp"
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

// --- bernoulli_hits' lane walk ----------------------------------------
//
// xoshiro256**'s state map A (XORs, a shift and a rotate of the four
// words) is linear over GF(2)^256, so A^S(x ^ y) = A^S x ^ A^S y and
// A^S x is the XOR of A^S e_i over the set bits i of x (e_i: the state
// with only bit i set). JumpTable holds those columns for S = kLaneSegment
// pre-XORed in 4-bit windows, so one jump is 64 table XORs and returns
// exactly the state kLaneSegment serial steps would reach (the generator's
// own jump() rests on the same linearity). Lane l of a group starts at
// A^{lS} s, so its step j is draw lS + j of the serial stream; after the
// walk, the last lane's state is the stream's state after the whole group.

constexpr std::size_t kLanes = Rng::kLaneCount;
constexpr std::size_t kSegment = Rng::kLaneSegment;
constexpr std::size_t kSegmentWords = kSegment / 64;
static_assert(kLanes == 8 && kSegment % 64 == 0);

using State = std::array<std::uint64_t, 4>;
// window[w][v] = A^S of the state holding nibble v at bits 4w..4w+3.
using JumpTable = std::array<std::array<State, 16>, 64>;
// Lane l's state word q at [q][l]; hit bit j of segment word b at [b][l].
using LaneStates = std::uint64_t[4][kLanes];
using LaneHits = std::uint64_t[kSegmentWords][kLanes];

State jump_segment(const JumpTable& table, const State& s) {
  using Quad = std::uint64_t __attribute__((vector_size(32)));
  Quad acc[4] = {};  // four chains hide the XOR latency
  for (std::size_t q = 0; q < 4; ++q) {
    std::uint64_t word = s[q];
    for (std::size_t k = 0; k < 16; ++k, word >>= 4) {
      Quad column;
      std::memcpy(&column, table[16 * q + k][word & 15].data(), 32);
      acc[k & 3] ^= column;
    }
  }
  const Quad sum = acc[0] ^ acc[1] ^ acc[2] ^ acc[3];
  State out;
  std::memcpy(out.data(), &sum, 32);
  return out;
}

// Walk every lane kSegment steps, marking draws whose output is below
// `bound`. The output rotl(s1·5, 7)·9 is spelled with shifts and adds
// (exact mod 2^64), and for the 53-bit threshold T, bound = T·2^11 does
// not overflow and out < T·2^11 <=> (out >> 11) < T: integer ops only,
// so every clone computes the same bits (core/codegen.hpp).
FRLFI_TARGET_CLONES
void walk_lanes(LaneStates& state, std::uint64_t bound, LaneHits& hits) {
  using Lanes = std::uint64_t __attribute__((vector_size(8 * kLanes)));
  Lanes s0, s1, s2, s3;
  std::memcpy(&s0, state[0], sizeof s0);
  std::memcpy(&s1, state[1], sizeof s1);
  std::memcpy(&s2, state[2], sizeof s2);
  std::memcpy(&s3, state[3], sizeof s3);
  const Lanes below = Lanes{} + bound;
  for (std::size_t b = 0; b < kSegmentWords; ++b) {
    Lanes word{};
    Lanes bit = Lanes{} + 1;
    for (int j = 0; j < 64; ++j) {
      const Lanes x = s1 + (s1 << 2);
      const Lanes r = (x << 7) | (x >> 57);
      const Lanes out = r + (r << 3);
      word |= reinterpret_cast<Lanes>(out < below) & bit;
      bit += bit;
      const Lanes t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
    }
    std::memcpy(hits[b], &word, sizeof word);
  }
  std::memcpy(state[0], &s0, sizeof s0);
  std::memcpy(state[1], &s1, sizeof s1);
  std::memcpy(state[2], &s2, sizeof s2);
  std::memcpy(state[3], &s3, sizeof s3);
}

// A walk costs the same however few of its lanes are used. On an AVX-512
// host it takes ~0.5 ns per lane draw against ~2.4 ns per serial draw, so
// two used lanes roughly break even there and lose on AVX2 (half the
// width); from three segments on, a partial group is cheaper.
constexpr std::size_t kMinLanes = 3;

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

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

void Rng::bernoulli_hits(const BernoulliThreshold& thr, std::size_t n,
                         std::vector<std::uint32_t>& hits) {
  FRLFI_CHECK_MSG(n <= std::numeric_limits<std::uint32_t>::max(),
                  "bernoulli_hits n " << n << " overflows a 32-bit index");
  if (!thr.draws()) {
    if (thr.certain()) {
      const std::size_t first = hits.size();
      hits.resize(first + n);
      std::iota(hits.begin() + static_cast<std::ptrdiff_t>(first), hits.end(),
                std::uint32_t{0});
    }
    return;
  }
  const std::uint64_t threshold = thr.threshold();
  // A local copy stays in registers across the push_back calls.
  State s = s_;
  std::size_t i = 0;
  while (true) {
    const std::size_t lanes = std::min(kLanes, (n - i) / kSegment);
    if (lanes < kMinLanes) break;
    static const JumpTable table = [] {
      std::array<State, 256> column;
      for (std::size_t bit = 0; bit < 256; ++bit) {
        State e{};
        e[bit / 64] = std::uint64_t{1} << (bit % 64);
        for (std::size_t k = 0; k < kSegment; ++k) step(e);
        column[bit] = e;
      }
      JumpTable t{};
      for (std::size_t w = 0; w < 64; ++w)
        for (std::size_t v = 0; v < 16; ++v)
          for (std::size_t b = 0; b < 4; ++b)
            if ((v >> b) & 1)
              for (std::size_t q = 0; q < 4; ++q)
                t[w][v][q] ^= column[4 * w + b][q];
      return t;
    }();
    // Lanes past `lanes` walk a copy of the last used lane and are ignored.
    LaneStates state;
    State lane_start = s;
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (l > 0 && l < lanes) lane_start = jump_segment(table, lane_start);
      for (std::size_t q = 0; q < 4; ++q) state[q][l] = lane_start[q];
    }
    LaneHits words;
    walk_lanes(state, threshold << 11, words);
    for (std::size_t q = 0; q < 4; ++q) s[q] = state[q][lanes - 1];
    for (std::size_t l = 0; l < lanes; ++l)
      for (std::size_t b = 0; b < kSegmentWords; ++b)
        for (std::uint64_t w = words[b][l]; w != 0; w &= w - 1)
          hits.push_back(static_cast<std::uint32_t>(
              i + l * kSegment + 64 * b +
              static_cast<std::size_t>(std::countr_zero(w))));
    i += lanes * kSegment;
  }
  for (; i < n; ++i)
    if ((step(s) >> 11) < threshold)
      hits.push_back(static_cast<std::uint32_t>(i));
  s_ = s;
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
