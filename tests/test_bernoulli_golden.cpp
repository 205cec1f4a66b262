/// \file test_bernoulli_golden.cpp
/// Golden digests of the per-bit Bernoulli loops that have no in-tree
/// oracle: the fleet (derived-stream) channel rows, the bursty channel
/// rows, stick_bits_ber, and the multi-bit burst corruptors. Each digest
/// folds the corrupted output, every counter and the caller stream's next
/// draw. They were recorded from the per-call Rng::bernoulli(double)
/// loops that the integer-threshold BernoulliThreshold draws replaced, so
/// they pin the new loops to the old ones draw for draw, including the
/// BER 0 and BER 1 no-draw cases.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/parallel.hpp"
#include "core/rng.hpp"
#include "fault/injector.hpp"
#include "federated/channel.hpp"

namespace frlfi {
namespace {

// FNV-1a over raw bytes.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void floats(const std::vector<float>& v) {
    bytes(v.data(), v.size() * sizeof(float));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

// Payloads in [-2, 2) built from integer draws by exact scaling, so the
// inputs carry no float rounding of their own (FMA contraction included).
std::vector<float> seeded_rows(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    const auto k = static_cast<std::int32_t>(rng.next_u64() >> 40);
    x = std::ldexp(static_cast<float>(k - (1 << 23)), -22);
  }
  return v;
}

std::vector<std::uint8_t> seeded_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

void add_counters(Digest& d, const CommChannel& ch) {
  d.u64(ch.messages_sent());
  d.u64(ch.bytes_sent());
  d.u64(ch.bits_corrupted());
  d.u64(ch.retransmit_bytes());
  d.u64(ch.chunks_erased());
  d.u64(ch.messages_reordered());
}

constexpr std::size_t kRows = 5;
constexpr std::size_t kDim = 37;

TEST(BernoulliGolden, FleetRows) {
  // Pool-fanned i.i.d. rows (per-(seq, attempt) derived noise streams),
  // plain and under the retry protocol.
  Digest d;
  ThreadPool pool(2);
  for (const double ber : {0.0, 1e-4, 0.02, 0.5, 1.0}) {
    CommChannel ch(ber);
    Rng rng(31);
    std::vector<float> rows = seeded_rows(kRows * kDim, 32);
    std::vector<float*> uploads;
    for (std::size_t r = 0; r < kRows; ++r)
      uploads.push_back(rows.data() + r * kDim);
    ch.transmit_uploads(uploads.data(), kRows, kDim, rng, &pool);
    d.floats(rows);
    add_counters(d, ch);
    d.u64(rng.next_u64());
  }
  UploadProtocolConfig proto;
  proto.enabled = true;
  proto.max_retries = 3;
  proto.deadline = 100.0;
  CommChannel ch(0.004);
  Rng rng(33);
  std::vector<float> rows = seeded_rows(kRows * kDim, 34);
  std::vector<float*> uploads;
  for (std::size_t r = 0; r < kRows; ++r) uploads.push_back(rows.data() + r * kDim);
  std::vector<CommChannel::UploadOutcome> outcomes(kRows);
  ch.transmit_uploads(uploads.data(), kRows, kDim, rng, &pool, &proto, nullptr,
                      outcomes.data());
  d.floats(rows);
  add_counters(d, ch);
  for (const auto& o : outcomes) {
    d.u64(o.attempts);
    d.u64(o.delivered ? 1 : 0);
  }
  d.u64(rng.next_u64());
  EXPECT_EQ(d.value(), 0x3CD42C4E522F6AFAULL);
}

TEST(BernoulliGolden, BurstyRows) {
  // The Gilbert–Elliott plane: good/bad state BERs, erasures, reordering,
  // and the BER 0 (good) / BER 1 (bad) no-draw thresholds.
  Digest d;
  BurstyChannelConfig noisy;
  noisy.active = true;
  noisy.ber_good = 0.001;
  noisy.ber_bad = 0.2;
  noisy.p_good_to_bad = 0.2;
  noisy.p_bad_to_good = 0.4;
  noisy.erasure_rate = 0.05;
  noisy.reorder_rate = 0.3;
  noisy.chunk_elems = 8;
  BurstyChannelConfig extremes = noisy;
  extremes.ber_good = 0.0;
  extremes.ber_bad = 1.0;
  extremes.erasure_rate = 0.0;
  for (const BurstyChannelConfig& cfg : {noisy, extremes}) {
    CommChannel ch(0.0);
    ch.set_bursty(cfg);
    Rng rng(41);
    std::vector<float> rows = seeded_rows(kRows * kDim, 42);
    ch.transmit_rows(rows.data(), kRows, kDim, rng);
    d.floats(rows);
    add_counters(d, ch);
    d.u64(rng.next_u64());
  }
  EXPECT_EQ(d.value(), 0x50B0256E8B2EE0B1ULL);
}

TEST(BernoulliGolden, StickBitsBer) {
  Digest d;
  for (const bool value : {false, true}) {
    for (const double ber : {0.0, 1e-3, 0.05, 0.5, 1.0}) {
      std::vector<std::uint8_t> bytes = seeded_bytes(600, 51);
      Rng rng(52);
      d.u64(stick_bits_ber(bytes, ber, value, rng));
      d.bytes(bytes.data(), bytes.size());
      d.u64(rng.next_u64());
    }
  }
  EXPECT_EQ(d.value(), 0x919A329E40BDE656ULL);
}

TEST(BernoulliGolden, MultiBitBurstCorruptors) {
  Digest d;
  struct Case {
    FaultModel model;
    FlipDirection direction;
  };
  const Case cases[] = {
      {FaultModel::TransientPersistent, FlipDirection::Any},
      {FaultModel::TransientSingleStep, FlipDirection::ZeroToOne},
      {FaultModel::TransientPersistent, FlipDirection::OneToZero},
      {FaultModel::StuckAt0, FlipDirection::Any},
      {FaultModel::StuckAt1, FlipDirection::Any},
  };
  for (const Case& c : cases) {
    for (const BurstAxis axis : {BurstAxis::Row, BurstAxis::Column}) {
      for (const double ber : {0.0, 0.01, 1.0}) {
        FaultSpec spec;
        spec.model = c.model;
        spec.direction = c.direction;
        spec.ber = ber;
        spec.burst.length = 3;
        spec.burst.axis = axis;

        std::vector<std::uint8_t> bytes = seeded_bytes(300, 61);
        Rng rng(62);
        d.u64(corrupt_bits_burst(bytes, spec, rng));
        d.bytes(bytes.data(), bytes.size());
        d.u64(rng.next_u64());

        std::vector<std::uint32_t> words(120);
        Rng word_rng(63);
        for (auto& w : words)
          w = static_cast<std::uint32_t>(word_rng.next_u64()) & 0xFFFFu;
        Rng fixed_rng(64);
        d.u64(corrupt_fixed_words_burst(words, 16, spec, fixed_rng));
        d.bytes(words.data(), words.size() * sizeof(std::uint32_t));
        d.u64(fixed_rng.next_u64());
      }
    }
  }
  EXPECT_EQ(d.value(), 0x878632167AD85BADULL);
}

}  // namespace
}  // namespace frlfi
