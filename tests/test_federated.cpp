#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "federated/aggregation.hpp"
#include "federated/channel.hpp"
#include "federated/server.hpp"

namespace frlfi {
namespace {

TEST(AlphaSchedule, StartsAtAlpha0AndApproachesLimit) {
  AlphaSchedule s(4, 0.6, 50.0);
  EXPECT_NEAR(s.at(0), 0.6, 1e-12);
  EXPECT_NEAR(s.limit(), 0.25, 1e-12);
  EXPECT_NEAR(s.at(100000), 0.25, 1e-9);
  EXPECT_GT(s.at(10), s.at(100));  // monotone decay
}

TEST(AlphaSchedule, RejectsBadParameters) {
  EXPECT_THROW(AlphaSchedule(1, 0.5), Error);
  EXPECT_THROW(AlphaSchedule(4, 0.2), Error);   // below 1/n
  EXPECT_THROW(AlphaSchedule(4, 1.0), Error);
  EXPECT_THROW(AlphaSchedule(4, 0.5, 0.0), Error);
}

TEST(SmoothingAverage, MatchesHandComputed) {
  // n=3, alpha=0.5 => beta=0.25.
  const std::vector<std::vector<float>> up{{1.0f}, {2.0f}, {3.0f}};
  const auto out = smoothing_average(up, 0.5);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_FLOAT_EQ(out[0][0], 0.5f * 1 + 0.25f * (2 + 3));
  EXPECT_FLOAT_EQ(out[1][0], 0.5f * 2 + 0.25f * (1 + 3));
  EXPECT_FLOAT_EQ(out[2][0], 0.5f * 3 + 0.25f * (1 + 2));
}

TEST(SmoothingAverage, ConsensusInputIsFixedPoint) {
  const std::vector<std::vector<float>> up{{2.0f, -1.0f}, {2.0f, -1.0f}};
  const auto out = smoothing_average(up, 0.7);
  EXPECT_FLOAT_EQ(out[0][0], 2.0f);
  EXPECT_FLOAT_EQ(out[1][1], -1.0f);
}

TEST(SmoothingAverage, AlphaOfOneOverNIsPlainMean) {
  const std::vector<std::vector<float>> up{{0.0f}, {3.0f}, {6.0f}};
  const auto out = smoothing_average(up, 1.0 / 3.0);
  for (const auto& o : out) EXPECT_NEAR(o[0], 3.0f, 1e-6);
}

TEST(SmoothingAverage, PreservesMeanForAnyAlpha) {
  // The smoothing average is doubly stochastic: the swarm mean is
  // invariant, which is why consensus converges.
  const std::vector<std::vector<float>> up{{1.0f}, {5.0f}, {9.0f}, {1.0f}};
  for (double alpha : {0.3, 0.5, 0.9}) {
    const auto out = smoothing_average(up, alpha);
    float mean = 0.0f;
    for (const auto& o : out) mean += o[0];
    EXPECT_NEAR(mean / 4.0f, 4.0f, 1e-5) << alpha;
  }
}

TEST(SmoothingAverage, RepeatedRoundsConverge) {
  std::vector<std::vector<float>> params{{0.0f}, {8.0f}};
  for (int k = 0; k < 50; ++k) params = smoothing_average(params, 0.6);
  EXPECT_NEAR(params[0][0], 4.0f, 1e-3);
  EXPECT_NEAR(params[1][0], 4.0f, 1e-3);
}

TEST(SmoothingAverage, Validation) {
  EXPECT_THROW(smoothing_average({{1.0f}}, 0.5), Error);
  EXPECT_THROW(smoothing_average({{1.0f}, {1.0f, 2.0f}}, 0.5), Error);
  EXPECT_THROW(smoothing_average({{1.0f}, {2.0f}}, 1.0), Error);
}

TEST(MeanParameters, ComputesElementwiseMean) {
  const auto mean = mean_parameters({{1.0f, 2.0f}, {3.0f, 6.0f}});
  EXPECT_FLOAT_EQ(mean[0], 2.0f);
  EXPECT_FLOAT_EQ(mean[1], 4.0f);
  EXPECT_THROW(mean_parameters({}), Error);
}

TEST(CommChannel, CleanChannelIsLossless) {
  CommChannel ch(0.0);
  Rng rng(1);
  const std::vector<float> payload{0.1f, -0.733f, 2.5f};
  EXPECT_EQ(ch.transmit(payload, rng), payload);
  EXPECT_EQ(ch.messages_sent(), 1u);
  EXPECT_EQ(ch.bits_corrupted(), 0u);
  EXPECT_EQ(ch.bytes_sent(), payload.size() + sizeof(float));
}

TEST(CommChannel, NoisyChannelCorrupts) {
  CommChannel ch(0.05);
  Rng rng(2);
  std::vector<float> payload(500, 1.0f);
  const auto received = ch.transmit(payload, rng);
  EXPECT_GT(ch.bits_corrupted(), 0u);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < payload.size(); ++i)
    changed += received[i] != payload[i];
  EXPECT_GT(changed, 0u);
}

TEST(CommChannel, CorruptionRateTracksBer) {
  CommChannel ch(0.01);
  Rng rng(3);
  std::vector<float> payload(2000, 0.5f);
  ch.transmit(payload, rng);
  const double expected = 2000 * 8 * 0.01;
  EXPECT_NEAR(static_cast<double>(ch.bits_corrupted()), expected,
              expected * 0.5);
}

TEST(CommChannel, BerValidation) {
  CommChannel ch(0.0);
  EXPECT_THROW(ch.set_bit_error_rate(1.5), Error);
  EXPECT_THROW(CommChannel(-0.1), Error);
}

TEST(CommChannel, TransmitRowsMatchesScalarOnEdgeShapes) {
  // The batched path is locked to the scalar golden reference on the
  // shapes most likely to break a vectorized implementation: a single
  // row (n_agents=1) and dims not divisible by any SIMD width — bits,
  // counters and RNG stream position all identical. The BERs cover the
  // no-draw thresholds (0 and 1), a tiny p and two ordinary ones.
  for (const double ber : {0.0, 1e-4, 0.02, 0.5, 1.0}) {
    for (const std::size_t dim :
         {std::size_t{1}, std::size_t{3}, std::size_t{17}, std::size_t{37},
          std::size_t{63}}) {
      for (const std::size_t n_rows : {std::size_t{1}, std::size_t{3}}) {
        std::vector<std::vector<float>> payloads;
        Rng data_rng(9000 + dim * 10 + n_rows);
        for (std::size_t i = 0; i < n_rows; ++i) {
          std::vector<float> row(dim);
          for (auto& x : row) x = static_cast<float>(data_rng.uniform(-2, 2));
          payloads.push_back(row);
        }

        CommChannel scalar_ch(ber);
        Rng scalar_rng(17);
        std::vector<float> expected;
        for (const auto& p : payloads) {
          const auto got = scalar_ch.transmit(p, scalar_rng);
          expected.insert(expected.end(), got.begin(), got.end());
        }

        CommChannel rows_ch(ber);
        Rng rows_rng(17);
        std::vector<float> rows;
        for (const auto& p : payloads) rows.insert(rows.end(), p.begin(), p.end());
        rows_ch.transmit_rows(rows.data(), n_rows, dim, rows_rng);

        EXPECT_EQ(rows, expected) << "ber " << ber << " dim " << dim
                                  << " rows " << n_rows;
        EXPECT_EQ(rows_ch.messages_sent(), scalar_ch.messages_sent());
        EXPECT_EQ(rows_ch.bytes_sent(), scalar_ch.bytes_sent());
        EXPECT_EQ(rows_ch.bits_corrupted(), scalar_ch.bits_corrupted());
        EXPECT_EQ(rows_rng.next_u64(), scalar_rng.next_u64())
            << "RNG stream position diverged at ber " << ber << " dim "
            << dim;
      }
    }
  }
}

TEST(CommChannel, CleanTransmitRowsIsLosslessAndDrawsNothing) {
  // BER=0 fast path: quantize/dequantize only, no Bernoulli draws — the
  // RNG must come back at the same position an untouched twin holds.
  CommChannel ch(0.0);
  Rng rng(23);
  Rng untouched(23);
  std::vector<float> rows{0.5f, -1.25f, 2.0f, 0.125f, -0.5f, 1.0f};
  const std::vector<float> before = rows;
  ch.transmit_rows(rows.data(), 2, 3, rng);
  EXPECT_EQ(rows, before);  // clean links deliver the payload exactly
  EXPECT_EQ(ch.bits_corrupted(), 0u);
  EXPECT_EQ(ch.messages_sent(), 2u);
  EXPECT_EQ(ch.bytes_sent(), 2 * (3 + sizeof(float)));
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(ParameterServer, RoundTripAggregates) {
  ParameterServer server(3, 2, AlphaSchedule(3, 0.5));
  Rng rng(5);
  std::vector<float> rows{1.0f, 0.0f, 2.0f, 0.0f, 3.0f, 0.0f};
  server.communicate_rows(rows, rng, nullptr);
  EXPECT_FLOAT_EQ(rows[0], 0.5f * 1 + 0.25f * (2 + 3));
  EXPECT_EQ(server.round(), 1u);
  EXPECT_EQ(server.channel().messages_sent(), 6u);  // 3 up + 3 down
  // Consensus is the post-aggregation mean, which equals the upload mean.
  EXPECT_FLOAT_EQ(server.consensus()[0], 2.0f);
}

TEST(ParameterServer, HookCanMutateAggregates) {
  ParameterServer server(2, 1, AlphaSchedule(2, 0.6));
  server.set_post_aggregate_rows_hook(
      [](std::size_t, std::span<float> agg, std::size_t) {
        for (float& a : agg) a = 42.0f;
      });
  Rng rng(6);
  std::vector<float> rows{1.0f, 2.0f};
  server.communicate_rows(rows, rng, nullptr);
  EXPECT_FLOAT_EQ(rows[0], 42.0f);
  EXPECT_FLOAT_EQ(rows[1], 42.0f);
}

TEST(ParameterServer, ValidatesUploads) {
  ParameterServer server(2, 2, AlphaSchedule(2, 0.6));
  Rng rng(7);
  std::vector<float> one_agent{1.0f, 2.0f};        // 1 upload for 2 agents
  std::vector<float> short_rows{1.0f, 1.0f, 1.0f};  // a row cut short
  EXPECT_THROW(server.communicate_rows(one_agent, rng, nullptr), Error);
  EXPECT_THROW(server.communicate_rows(short_rows, rng, nullptr), Error);
}

TEST(ParameterServer, SetRoundAffectsSchedule) {
  ParameterServer server(2, 1, AlphaSchedule(2, 0.9, 5.0));
  server.set_round(1000);
  Rng rng(8);
  // At round 1000 alpha ~= 0.5 (the consensus limit for n=2): outputs are
  // near the plain mean.
  std::vector<float> rows{0.0f, 10.0f};
  server.communicate_rows(rows, rng, nullptr);
  EXPECT_NEAR(rows[0], 5.0f, 0.1f);
}

}  // namespace
}  // namespace frlfi
