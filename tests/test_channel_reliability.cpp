/// \file test_channel_reliability.cpp
/// The correlated-fault & unreliable-transport plane:
///  * a *degenerate* Gilbert–Elliott config (equal-state BERs, no
///    erasure) is locked bit-identical to the i.i.d. channel —
///    delivered bits, cost counters and RNG stream position — at the
///    channel level and through full engine training on both paper
///    systems across thread counts {1, 2, 7};
///  * the non-degenerate burst plane never advances the caller's RNG,
///    replays deterministically from (stream, seq), erases chunks as
///    configured, matches the Gilbert–Elliott chain's
///    stationary bad fraction and geometric run lengths, and degraded
///    training under it is thread-count invariant;
///  * transmit_reliable: a disabled or zero-retry protocol is
///    byte-for-byte the plain transmit; retry/backoff/deadline
///    accounting matches the closed-form schedule; failed uploads
///    restore the clean payload;
///  * an upload that exhausts its budget is absorbed by the
///    participation plane: reported dropped/stale, excluded from
///    aggregate and downlink, the aggregate stays finite;
///  * snapshot/restore mid-campaign under a bursty plan + retry
///    protocol replays the uninterrupted run bit-for-bit, in the same or
///    a freshly built system (the snapshotted transmit_seq is what keys
///    the channel weather).

#include "federated/channel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "federated/participation.hpp"
#include "federated/round_engine.hpp"
#include "federated/server.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"
#include "frl/policies.hpp"

namespace frlfi {
namespace {

std::vector<float> random_row(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

BurstyChannelConfig degenerate_ge(double ber) {
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.ber_good = ber;
  cfg.ber_bad = ber;  // equal states, no erasure: degenerate
  return cfg;
}

TEST(BurstyChannel, ValidatesConfig) {
  CommChannel ch;
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.ber_bad = 1.5;
  EXPECT_THROW(ch.set_bursty(cfg), Error);
  cfg.ber_bad = 0.1;
  cfg.erasure_rate = -0.1;
  EXPECT_THROW(ch.set_bursty(cfg), Error);
  cfg.erasure_rate = 0.1;
  cfg.chunk_elems = 0;
  EXPECT_THROW(ch.set_bursty(cfg), Error);
  cfg.chunk_elems = 16;
  ch.set_bursty(cfg);  // sane config arms
  EXPECT_TRUE(ch.bursty().active);
  // Inactive configs are stored without validation side effects.
  ch.set_bursty(BurstyChannelConfig{});
  EXPECT_FALSE(ch.bursty().active);
}

TEST(BurstyChannel, DegenerateConfigIsBitIdenticalToIid) {
  // The acceptance lock: equal-state GE with no erasure must
  // not change a single delivered bit, counter, or RNG draw vs the
  // i.i.d. channel at the same BER — the delegation is structural.
  const double kBer = 0.01;
  // A small matrix, then the gridworld policy's dimension at 4 and 12 rows.
  Rng init(41);
  const std::size_t grid_dim = make_gridworld_policy(init).parameter_count();
  const std::size_t shapes[][2] = {{3, 97}, {4, grid_dim}, {12, grid_dim}};
  for (const auto& shape : shapes) {
    const std::size_t n = shape[0], dim = shape[1];
    std::vector<float> iid_rows, ge_rows;
    for (std::size_t r = 0; r < n; ++r) {
      const auto row = random_row(dim, 100 + r);
      iid_rows.insert(iid_rows.end(), row.begin(), row.end());
      ge_rows.insert(ge_rows.end(), row.begin(), row.end());
    }
    CommChannel iid(kBer);
    CommChannel ge;  // scalar BER 0: the active degenerate config replaces it
    ge.set_bursty(degenerate_ge(kBer));
    Rng rng_iid(42), rng_ge(42);
    iid.transmit_rows(iid_rows.data(), n, dim, rng_iid);
    ge.transmit_rows(ge_rows.data(), n, dim, rng_ge);
    EXPECT_EQ(iid_rows, ge_rows) << n << " x " << dim;
    EXPECT_EQ(iid.messages_sent(), ge.messages_sent());
    EXPECT_EQ(iid.bytes_sent(), ge.bytes_sent());
    EXPECT_EQ(iid.bits_corrupted(), ge.bits_corrupted());
    EXPECT_EQ(iid.transmit_seq(), ge.transmit_seq());
    EXPECT_EQ(ge.chunks_erased(), 0u);
    // RNG stream position: the delegated path consumed identical draws.
    EXPECT_EQ(rng_iid.next_u64(), rng_ge.next_u64());
  }

  // Scalar transmit delegates identically.
  const auto payload = random_row(33, 7);
  Rng ra(5), rb(5);
  CommChannel a(kBer), b;
  b.set_bursty(degenerate_ge(kBer));
  EXPECT_EQ(a.transmit(payload, ra), b.transmit(payload, rb));
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
}

TEST(BurstyChannel, NonDegeneratePathNeverAdvancesCallerRng) {
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.ber_good = 1e-3;
  cfg.ber_bad = 0.2;
  cfg.erasure_rate = 0.1;
  cfg.chunk_elems = 8;
  CommChannel ch;
  ch.set_bursty(cfg);
  auto rows = random_row(128, 3);
  Rng rng(99), untouched(99);
  ch.transmit_rows(rows.data(), 2, 64, rng);
  // All burst-plane draws come from derived (non-advancing) streams.
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(BurstyChannel, ReplaysFromSequenceNumber) {
  // Same (caller stream, seq) → same weather and noise; advancing the
  // sequence changes the message's fate. This is exactly the state the
  // engine snapshots for bit-exact resume.
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.ber_bad = 0.3;
  cfg.p_good_to_bad = 0.4;
  cfg.p_bad_to_good = 0.5;
  cfg.chunk_elems = 4;
  const auto orig = random_row(64, 11);
  auto once = orig, again = orig, shifted = orig;
  CommChannel c1, c2, c3;
  c1.set_bursty(cfg);
  c2.set_bursty(cfg);
  c3.set_bursty(cfg);
  c3.set_transmit_seq(17);
  Rng r1(8), r2(8), r3(8);
  c1.transmit_rows(once.data(), 1, 64, r1);
  c2.transmit_rows(again.data(), 1, 64, r2);
  c3.transmit_rows(shifted.data(), 1, 64, r3);
  EXPECT_EQ(once, again);
  EXPECT_NE(shifted, once);  // different seq, different weather
  EXPECT_EQ(c1.transmit_seq(), 1u);
  EXPECT_EQ(c3.transmit_seq(), 18u);
}

TEST(BurstyChannel, ErasureZeroFillsLostChunks) {
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.erasure_rate = 1.0;  // every chunk lost
  cfg.chunk_elems = 8;
  CommChannel ch;
  ch.set_bursty(cfg);
  auto row = random_row(60, 21);  // 8 chunks, short tail chunk
  Rng rng(4);
  ch.transmit_rows(row.data(), 1, 60, rng);
  for (float v : row) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(ch.chunks_erased(), 8u);
  EXPECT_EQ(ch.bits_corrupted(), 0u);  // lost chunks draw no flip noise
}

// Gilbert–Elliott statistics: with a clean good state, an all-flipping
// bad state and one element per chunk, a chunk is bad exactly when its
// element arrives changed (flipping all 8 bits of a word moves it by at
// least one quantization step, more than the codec's half-step error), so
// the delivered rows expose the channel's state sequence directly.
class BurstyChannelStatistics
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BurstyChannelStatistics, MatchesMarkovChain) {
  const auto [p_gb, p_bg] = GetParam();
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.ber_good = 0.0;
  cfg.ber_bad = 1.0;
  cfg.p_good_to_bad = p_gb;
  cfg.p_bad_to_good = p_bg;
  cfg.chunk_elems = 1;
  CommChannel ch;
  ch.set_bursty(cfg);
  const std::size_t n_rows = 20, dim = 5000;
  const std::vector<float> sent = random_row(n_rows * dim, 61);
  std::vector<float> rows = sent;
  Rng rng(62);
  ch.transmit_rows(rows.data(), n_rows, dim, rng);

  // Check 1: the bad-chunk fraction against the stationary probability,
  // with the lag-one autocorrelation lambda inflating the variance.
  const double n = static_cast<double>(n_rows * dim);
  const double pi = p_gb / (p_gb + p_bg);
  const double lambda = 1.0 - p_gb - p_bg;
  const double sigma =
      std::sqrt(pi * (1.0 - pi) * (1.0 + lambda) / ((1.0 - lambda) * n));
  std::size_t bad = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) bad += rows[i] != sent[i];
  EXPECT_NEAR(static_cast<double>(bad) / n, pi, 4.0 * sigma);

  // Check 2: runs wholly inside a row (both ends observed) are geometric
  // with mean 1/p_bg (bad) and 1/p_gb (good).
  std::vector<double> runs[2];  // [0] good, [1] bad
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::size_t start = 0;
    for (std::size_t d = 1; d <= dim; ++d) {
      const std::size_t i = r * dim + d;
      const bool state = rows[i - 1] != sent[i - 1];
      if (d < dim && (rows[i] != sent[i]) == state) continue;
      if (start > 0 && d < dim)
        runs[state].push_back(static_cast<double>(d - start));
      start = d;
    }
  }
  const double leave[2] = {p_gb, p_bg};
  for (int state = 0; state < 2; ++state) {
    const double p = leave[state];
    const double m = static_cast<double>(runs[state].size());
    ASSERT_GT(m, 100.0) << "state " << state;
    double sum = 0.0;
    for (const double len : runs[state]) sum += len;
    const double run_sigma = std::sqrt((1.0 - p) / (p * p) / m);
    EXPECT_NEAR(sum / m, 1.0 / p, 4.0 * run_sigma) << "state " << state;
  }
}

INSTANTIATE_TEST_SUITE_P(Transitions, BurstyChannelStatistics,
                         ::testing::Values(std::make_pair(0.05, 0.5),
                                           std::make_pair(0.2, 0.2)));

TEST(ReliableUpload, DisabledOrZeroRetryIsPlainTransmit) {
  // The degenerate-protocol lock: bits, counters and RNG position all
  // match the plain path.
  const std::size_t dim = 50;
  UploadProtocolConfig cfg;
  cfg.max_retries = 0;
  auto plain = random_row(dim, 31);
  auto reliable = plain;
  CommChannel a(0.02), b(0.02);
  Rng ra(6), rb(6);
  a.transmit_rows(plain.data(), 1, dim, ra);
  const CommChannel::UploadOutcome out =
      b.transmit_reliable(reliable.data(), dim, rb, cfg);
  EXPECT_EQ(plain, reliable);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.backoff, 0.0);
  EXPECT_EQ(a.bytes_sent(), b.bytes_sent());
  EXPECT_EQ(a.bits_corrupted(), b.bits_corrupted());
  EXPECT_EQ(b.retransmit_bytes(), 0u);
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
}

TEST(ReliableUpload, CleanChannelDeliversFirstAttempt) {
  UploadProtocolConfig cfg;
  cfg.max_retries = 3;
  auto row = random_row(40, 77);
  const auto orig = row;
  CommChannel ch;  // BER 0
  Rng rng(3);
  const auto out = ch.transmit_reliable(row.data(), 40, rng, cfg);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(row, orig);
  EXPECT_EQ(ch.retransmit_bytes(), 0u);
}

TEST(ReliableUpload, ExhaustsRetriesAndRestoresCleanPayload) {
  // Total erasure: no attempt can ever pass the checksum. The upload
  // burns 1 + max_retries attempts, charges each retransmission, sums
  // the exponential backoff, and hands back the clean payload.
  BurstyChannelConfig bursty;
  bursty.active = true;
  bursty.erasure_rate = 1.0;
  bursty.chunk_elems = 8;
  UploadProtocolConfig cfg;
  cfg.max_retries = 3;
  const std::size_t dim = 24;
  auto row = random_row(dim, 13);
  const auto orig = row;
  CommChannel ch;
  ch.set_bursty(bursty);
  Rng rng(9);
  const auto out = ch.transmit_reliable(row.data(), dim, rng, cfg);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 4u);
  EXPECT_EQ(out.backoff, 0.5 + 1.0 + 2.0);  // 0.5 s * 2^(k-1)
  EXPECT_EQ(row, orig);  // what the late retransmission delivers
  EXPECT_EQ(ch.retransmit_bytes(), 3 * (dim + sizeof(float)));
  EXPECT_EQ(ch.bytes_sent(), 4 * (dim + sizeof(float)));
  EXPECT_EQ(rng.next_u64(), Rng(9).next_u64());  // burst plane: no draws
}

TEST(ReliableUpload, DeadlineBoundsAttempts) {
  BurstyChannelConfig bursty;
  bursty.active = true;
  bursty.erasure_rate = 1.0;
  UploadProtocolConfig cfg;
  cfg.max_retries = 10;  // the 16 s deadline runs out first
  auto row = random_row(16, 2);
  CommChannel ch;
  ch.set_bursty(bursty);
  Rng rng(1);
  const auto out = ch.transmit_reliable(row.data(), 16, rng, cfg);
  // Attempts end at 1, 2.5, 4.5, 7.5 and 12.5 s; a sixth would end at
  // 12.5 + 8 + 1 = 21.5 s, past the deadline.
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(out.attempts, 5u);
  EXPECT_EQ(out.backoff, 0.5 + 1.0 + 2.0 + 4.0);
}

// ---------------------------------------------------------------------------
// Engine-level locks on both paper systems.

GridWorldFrlSystem::Config grid_config(std::size_t n_agents,
                                       std::size_t threads) {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = n_agents;
  cfg.eps_span = 420;
  cfg.channel_ber = 1e-3;
  cfg.threads = threads;
  return cfg;
}

std::vector<std::vector<float>> grid_params(GridWorldFrlSystem& sys,
                                            std::size_t n) {
  std::vector<std::vector<float>> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(sys.agent_network(i).flat_parameters());
  return out;
}

TEST(ChannelEngine, DegenerateBurstTrainingIsBitIdenticalToIid) {
  // Engine-level degenerate lock on GridWorld: an armed equal-state GE
  // channel trains bit-identically to the plain i.i.d. channel at the
  // same BER — continued training past the compare point catches any
  // stray RNG consumption — at thread counts 1, 2 and 7.
  GridWorldFrlSystem reference(grid_config(4, 1), 77);
  reference.train(30);
  const auto ref_params = grid_params(reference, 4);
  reference.train(10);
  const auto ref_params_cont = grid_params(reference, 4);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    GridWorldFrlSystem::Config cfg = grid_config(4, threads);
    cfg.channel_ber = 0.0;  // the active bursty plane replaces the scalar
    cfg.channel_bursty = degenerate_ge(1e-3);
    GridWorldFrlSystem sys(cfg, 77);
    sys.train(30);
    EXPECT_EQ(grid_params(sys, 4), ref_params) << threads << " threads";
    sys.train(10);
    EXPECT_EQ(grid_params(sys, 4), ref_params_cont) << threads << " threads";
    EXPECT_EQ(sys.communication_bytes(), reference.communication_bytes());
  }
}

TEST(ChannelEngine, DroneDegenerateBurstTrainingIsBitIdentical) {
  DroneFrlSystem::Config ref_cfg;
  ref_cfg.n_drones = 3;
  ref_cfg.imitation_episodes = 8;
  ref_cfg.channel_ber = 1e-3;
  DroneFrlSystem reference(ref_cfg, 57);
  reference.train(8);
  std::vector<std::vector<float>> ref_params;
  for (std::size_t i = 0; i < 3; ++i)
    ref_params.push_back(reference.drone_network(i).flat_parameters());

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    DroneFrlSystem::Config cfg = ref_cfg;
    cfg.threads = threads;
    cfg.channel_ber = 0.0;
    cfg.channel_bursty = degenerate_ge(1e-3);
    DroneFrlSystem sys(cfg, 57);
    sys.train(8);
    std::vector<std::vector<float>> params;
    for (std::size_t i = 0; i < 3; ++i)
      params.push_back(sys.drone_network(i).flat_parameters());
    EXPECT_EQ(params, ref_params) << threads << " threads";
    EXPECT_EQ(sys.communication_bytes(), reference.communication_bytes());
  }
}

BurstyChannelConfig stormy_channel() {
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.ber_good = 1e-4;
  cfg.ber_bad = 0.05;
  cfg.p_good_to_bad = 0.2;
  cfg.p_bad_to_good = 0.5;  // mean burst length 2 chunks
  cfg.erasure_rate = 0.05;
  cfg.chunk_elems = 16;
  return cfg;
}

TEST(ChannelEngine, BurstyTrainingIsThreadCountInvariant) {
  std::vector<std::vector<float>> serial;
  std::size_t serial_erased = 0, serial_corrupted = 0;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    GridWorldFrlSystem::Config cfg = grid_config(4, threads);
    cfg.channel_bursty = stormy_channel();
    GridWorldFrlSystem sys(cfg, 101);
    sys.train(25);
    const auto params = grid_params(sys, 4);
    const CommChannel* ch = sys.comm_channel();
    ASSERT_NE(ch, nullptr);
    if (threads == 1) {
      serial = params;
      serial_erased = ch->chunks_erased();
      serial_corrupted = ch->bits_corrupted();
      // The storm actually hit something at this seed.
      EXPECT_GT(serial_erased, 0u);
      EXPECT_GT(serial_corrupted, 0u);
    } else {
      EXPECT_EQ(params, serial) << threads << " threads";
      EXPECT_EQ(ch->chunks_erased(), serial_erased);
      EXPECT_EQ(ch->bits_corrupted(), serial_corrupted);
    }
  }
}

/// The degraded plan of test_participation's campaigns, with the retry
/// protocol armed on top.
ParticipationPlan retry_plan() {
  ParticipationPlan plan;
  plan.dropout_rate = 0.2;
  plan.crash_rounds = 2;
  plan.straggler_rate = 0.2;
  plan.straggler_lag = 2;
  plan.upload.max_retries = 2;
  return plan;
}

TEST(ChannelEngine, ZeroRetryProtocolIsBitIdenticalToPlanPath) {
  // A protocol that cannot retry must not change a bit of a degraded
  // campaign — server rounds take the plain plan path verbatim.
  ParticipationPlan plain = retry_plan();
  plain.upload = UploadProtocolConfig{};
  ParticipationPlan zero = retry_plan();
  zero.upload.max_retries = 0;

  GridWorldFrlSystem a(grid_config(4, 1), 505);
  a.set_participation_plan(plain);
  a.train(30);
  const auto plain_params = grid_params(a, 4);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    GridWorldFrlSystem b(grid_config(4, threads), 505);
    b.set_participation_plan(zero);
    b.train(30);
    EXPECT_EQ(grid_params(b, 4), plain_params) << threads << " threads";
    EXPECT_EQ(b.communication_bytes(), a.communication_bytes());
    EXPECT_EQ(b.participation_stats().upload_attempts, 0u);
    EXPECT_EQ(b.participation_stats().uploads_failed, 0u);
  }

  // One all-present server round on a stormy channel: the zero-retry
  // protocol round must match the plain round, consensus and caller RNG
  // stream position included.
  const std::size_t agents = 8;
  Rng init(41);
  const std::size_t dim = make_gridworld_policy(init).parameter_count();
  std::vector<float> base(agents * dim);
  Rng wrng(45);
  for (auto& v : base) v = static_cast<float>(wrng.uniform(-0.5, 0.5));
  BurstyChannelConfig stormy = stormy_channel();
  stormy.p_bad_to_good = 0.25;
  const AlphaSchedule schedule(agents, 0.5);
  const std::vector<AgentRoundStatus> all_present(agents,
                                                  AgentRoundStatus::Present);
  ParameterServer plain_server(agents, dim, schedule);
  ParameterServer zero_server(agents, dim, schedule);
  plain_server.channel().set_bursty(stormy);
  zero_server.channel().set_bursty(stormy);
  ParticipationPlan plain_plan, zero_plan;
  zero_plan.upload.max_retries = 0;
  Rng rp(46), rz(46);
  std::vector<float> mp = base, mz = base;
  plain_server.communicate_round(mp, all_present, plain_plan, rp);
  zero_server.communicate_round(mz, all_present, zero_plan, rz);
  EXPECT_EQ(mz, mp);
  EXPECT_EQ(zero_server.consensus(), plain_server.consensus());
  EXPECT_EQ(rz.next_u64(), rp.next_u64());
}

TEST(ChannelEngine, ExhaustedUploadDegradesIntoParticipationPlane) {
  // Total erasure + armed protocol: every on-time upload fails its
  // checksum, burns its retries, and must be absorbed — reported as
  // failed/stale, excluded from aggregate and downlink — leaving every
  // parameter finite.
  GridWorldFrlSystem::Config cfg = grid_config(4, 2);
  cfg.channel_bursty = stormy_channel();
  cfg.channel_bursty.erasure_rate = 1.0;
  GridWorldFrlSystem sys(cfg, 606);
  ParticipationPlan plan;
  plan.upload.max_retries = 2;
  sys.set_participation_plan(plan);
  std::vector<RoundParticipationReport> reports;
  sys.set_round_observer(
      [&](const RoundParticipationReport& rep) { reports.push_back(rep); });
  sys.train(10);

  ASSERT_EQ(reports.size(), 10u);
  for (const auto& rep : reports) {
    EXPECT_EQ(rep.uploads_failed, rep.present);  // nothing ever delivers
    EXPECT_EQ(rep.upload_attempts, 3 * rep.present);  // 1 + 2 retries
    ASSERT_EQ(rep.upload_failed.size(), 4u);
    EXPECT_GT(rep.backoff_seconds, 0.0);
  }
  const ParticipationStats& stats = sys.participation_stats();
  EXPECT_GT(stats.uploads_failed, 0u);
  EXPECT_EQ(stats.failed_stale, stats.uploads_failed);  // lag 1 <= max 4
  EXPECT_EQ(stats.failed_dropped, 0u);
  const CommChannel* ch = sys.comm_channel();
  ASSERT_NE(ch, nullptr);
  EXPECT_GT(ch->retransmit_bytes(), 0u);
  for (const auto& params : grid_params(sys, 4))
    for (float v : params) EXPECT_TRUE(std::isfinite(v));
}

TEST(ChannelEngine, FailedUploadsDropPastMaxStaleness) {
  // A late fold straggler_lag rounds out would exceed kMaxStaleness, so
  // every exhausted upload is dropped instead.
  GridWorldFrlSystem::Config cfg = grid_config(3, 1);
  cfg.channel_bursty = stormy_channel();
  cfg.channel_bursty.erasure_rate = 1.0;
  GridWorldFrlSystem sys(cfg, 707);
  ParticipationPlan plan;
  plan.straggler_lag = kMaxStaleness + 1;
  plan.upload.max_retries = 1;
  sys.set_participation_plan(plan);
  sys.train(6);
  const ParticipationStats& stats = sys.participation_stats();
  EXPECT_GT(stats.uploads_failed, 0u);
  EXPECT_EQ(stats.failed_dropped, stats.uploads_failed);
  EXPECT_EQ(stats.failed_stale, 0u);
}

// ---------------------------------------------------------------------------
// Mid-campaign resume under a bursty plan: the snapshotted transmit_seq.

TEST(ChannelEngine, SnapshotRestoreUnderBurstyPlanReplaysBitForBit) {
  GridWorldFrlSystem::Config cfg = grid_config(4, 2);
  cfg.channel_bursty = stormy_channel();
  GridWorldFrlSystem sys(cfg, 808);
  sys.set_participation_plan(retry_plan());
  sys.train(21);
  const auto snap = sys.snapshot();
  ASSERT_NE(sys.comm_channel(), nullptr);
  EXPECT_EQ(snap.engine.channel_seq, sys.comm_channel()->transmit_seq());
  EXPECT_GT(snap.engine.channel_seq, 0u);
  sys.train(15);
  const auto direct = grid_params(sys, 4);

  sys.restore(snap);
  EXPECT_EQ(sys.episode(), 21u);
  EXPECT_EQ(sys.comm_channel()->transmit_seq(), snap.engine.channel_seq);
  sys.train(15);
  // Without the restored sequence number the post-resume rounds would
  // draw different channel weather and the campaigns would diverge.
  EXPECT_EQ(grid_params(sys, 4), direct);
}

TEST(ChannelEngine, SnapshotResumesBurstyCampaignInFreshSystem) {
  GridWorldFrlSystem::Config cfg = grid_config(4, 1);
  cfg.channel_bursty = stormy_channel();
  GridWorldFrlSystem sys(cfg, 808);
  sys.set_participation_plan(retry_plan());
  sys.train(21);
  const auto snap = sys.snapshot();
  sys.train(15);
  const auto direct = grid_params(sys, 4);

  GridWorldFrlSystem resumed(cfg, 808);
  resumed.set_participation_plan(retry_plan());
  resumed.restore(snap);
  EXPECT_EQ(resumed.episode(), 21u);
  ASSERT_NE(resumed.comm_channel(), nullptr);
  EXPECT_GT(resumed.comm_channel()->transmit_seq(), 0u);
  resumed.train(15);
  EXPECT_EQ(grid_params(resumed, 4), direct);
}

}  // namespace
}  // namespace frlfi
