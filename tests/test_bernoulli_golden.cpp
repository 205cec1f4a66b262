/// \file test_bernoulli_golden.cpp
/// Golden digests of the per-bit Bernoulli loops that have no in-tree
/// oracle: the bursty channel rows, the stuck-at corruptor, and every
/// weight-fault injector entry point. Each digest folds the corrupted output, every counter and the
/// caller stream's next draw, including the BER 0 and BER 1 no-draw
/// cases. The channel and stuck-at digests were recorded from the
/// per-call Rng::bernoulli(double) loops that the integer-threshold
/// BernoulliThreshold draws replaced; the stuck-at and injector digests
/// were recorded from the per-bit byte loops and per-format injectors that
/// corrupt_words and the DeployedWeights route replaced. They pin the new
/// code to the old draw for draw.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "fault/injector.hpp"
#include "federated/channel.hpp"
#include "frl/policies.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

using testing::Digest;

void add_report(Digest& d, const InjectionReport& r) {
  d.u64(r.bits_flipped);
  d.u64(r.bits_total);
}

void add_overlay(Digest& d, const WeightOverlay& o) {
  for (const std::size_t i : o.indices) d.u64(i);
  d.floats(o.values);
}

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
}

constexpr std::size_t kRows = 5;
constexpr std::size_t kDim = 37;

TEST(BernoulliGolden, BurstyRows) {
  // The Gilbert–Elliott plane: good/bad state BERs, erasures, and the
  // BER 0 (good) / BER 1 (bad) no-draw thresholds. Recorded on the last
  // code with chunk reordering, with reordering off.
  Digest d;
  BurstyChannelConfig noisy;
  noisy.active = true;
  noisy.ber_good = 0.001;
  noisy.ber_bad = 0.2;
  noisy.p_good_to_bad = 0.2;
  noisy.p_bad_to_good = 0.4;
  noisy.erasure_rate = 0.05;
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
  EXPECT_EQ(d.value(), 0xE93A1EAE4D5C42BAULL);
}

TEST(BernoulliGolden, StickBitsBer) {
  Digest d;
  for (const FaultModel model : {FaultModel::StuckAt0, FaultModel::StuckAt1}) {
    for (const double ber : {0.0, 1e-3, 0.05, 0.5, 1.0}) {
      std::vector<std::uint8_t> bytes = seeded_bytes(600, 51);
      Rng rng(52);
      FaultSpec spec;
      spec.model = model;
      spec.ber = ber;
      d.u64(corrupt_words(bytes, 8, spec, rng));
      d.bytes(bytes.data(), bytes.size());
      d.u64(rng.next_u64());
    }
  }
  EXPECT_EQ(d.value(), 0x919A329E40BDE656ULL);
}

TEST(BernoulliGolden, WeightInjectors) {
  // Every weight-fault entry point over the fault-model x direction x BER
  // grid, one digest per entry: in-place int8 (headroom 1 and 2), in-place
  // fixed point (Q(1,7,8) and Q(1,2,9)), the DeployedWeights overlay,
  // the layer-scoped image and its in-place twin, and the
  // whole-network injector. Each fold takes the output, the report and
  // the stream's next draw.
  const FaultModel models[] = {FaultModel::TransientPersistent,
                               FaultModel::StuckAt0, FaultModel::StuckAt1};
  const FlipDirection dirs[] = {FlipDirection::Any, FlipDirection::ZeroToOne,
                                FlipDirection::OneToZero};
  const std::vector<float> clean = seeded_rows(257, 71);
  const DeployedWeights image = DeployedWeights::int8_image(clean, 2.0f);
  Rng init(72);
  Network net = make_gridworld_policy(init);
  net.set_flat_parameters(seeded_rows(net.parameter_count(), 73));
  Digest int8, fixed, overlay, layer, network;
  for (const FaultModel model : models) {
    for (const FlipDirection dir : dirs) {
      for (const double ber : {0.0, 1e-3, 0.05, 1.0}) {
        FaultSpec spec;
        spec.model = model;
        spec.direction = dir;
        spec.ber = ber;
        for (const float headroom : {1.0f, 2.0f}) {
          std::vector<float> w = clean;
          Rng rng(74);
          add_report(int8, inject_int8(w, spec, rng, headroom));
          int8.floats(w);
          int8.u64(rng.next_u64());
        }
        for (const FixedPointFormat fmt :
             {FixedPointFormat::q1_7_8(), FixedPointFormat{2, 9}}) {
          std::vector<float> w = clean;
          Rng rng(75);
          add_report(fixed, inject_fixed_point(w, fmt, spec, rng));
          fixed.floats(w);
          fixed.u64(rng.next_u64());
        }
        {
          WeightOverlay out;
          Rng rng(76);
          add_report(overlay, image.inject(spec, rng, out));
          add_overlay(overlay, out);
          overlay.u64(rng.next_u64());
        }
        for (std::size_t li = 0; li < net.layer_count(); ++li) {
          if (net.layer(li).parameters().empty()) continue;
          const LayerDeployedWeights deployed(net, li);
          WeightOverlay out;
          Rng rng(78);
          add_report(layer, deployed.inject(spec, rng, out));
          add_overlay(layer, out);
          layer.u64(rng.next_u64());
          Network victim = net.clone();
          Rng in_place(78);
          add_report(layer, inject_layer_weights(victim, li, spec, in_place));
          layer.floats(victim.flat_parameters());
          layer.u64(in_place.next_u64());
        }
        {
          Network victim = net.clone();
          Rng rng(79);
          add_report(network, inject_network_weights(victim, spec, rng));
          network.floats(victim.flat_parameters());
          network.u64(rng.next_u64());
        }
      }
    }
  }
  EXPECT_EQ(int8.value(), 0x3E12682599F3AFA7ULL);
  EXPECT_EQ(fixed.value(), 0x6A7AF86CD976F23AULL);
  EXPECT_EQ(overlay.value(), 0x7D4A8064B47ACD85ULL);
  EXPECT_EQ(layer.value(), 0xC4D2B2171996B478ULL);
  EXPECT_EQ(network.value(), 0x3C87C4D76AD673DBULL);
}

}  // namespace
}  // namespace frlfi
