/// \file test_round_golden.cpp
/// Golden digests of short federated training runs through the round
/// engine on a noisy i.i.d. channel: degraded participation (dropout
/// windows, stragglers, screened Byzantine senders), the trimmed-mean
/// screen, the retry protocol with exhausted uploads folded stale or
/// dropped, a plan-free run, and a pending server fault with §V-A
/// mitigation on. Each digest folds the agents' parameters, the channel's
/// sequence number and cost counters, every ParticipationStats field,
/// every per-round report, the staleness buffer, the mitigation counters
/// and the next draw of the training stream. These pin the server round
/// and its i.i.d. noise realization bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "fault/injector.hpp"
#include "federated/round_engine.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

using testing::Digest;

constexpr std::size_t kAgents = 6;
constexpr std::size_t kDim = 40;
constexpr std::uint64_t kSeed = 4242;
constexpr std::uint64_t kStreamTag = 0x601DE;

// Synthetic agents: flat parameter rows pulled toward a fixed target by
// every local episode (plus a little noise from the episode stream), and
// a reward that falls with the distance to the target — so a server fault
// shows up as a reward drop the mitigation monitor can act on. Payloads
// start as exact binary fractions, so the inputs carry no rounding.
struct Harness {
  std::vector<float> params;
  std::vector<float> target;
  std::uint64_t last_draw = 0;

  Harness() : params(kAgents * kDim), target(kDim) {
    Rng rng(91);
    for (auto& v : params)
      v = std::ldexp(static_cast<float>(rng.uniform_index(1024)) - 512.0f, -10);
    for (auto& v : target)
      v = std::ldexp(static_cast<float>(rng.uniform_index(512)) - 256.0f, -10);
  }

  FederatedRoundEngine::Hooks hooks() {
    FederatedRoundEngine::Hooks h;
    h.run_episode = [this](std::size_t agent, std::size_t, Rng& rng) {
      float* p = params.data() + agent * kDim;
      double dist = 0.0;
      for (std::size_t d = 0; d < kDim; ++d) {
        const auto noise = static_cast<float>(rng.uniform(-0.004, 0.004));
        p[d] += 0.125f * (target[d] - p[d]) + noise;
        dist += std::abs(static_cast<double>(p[d] - target[d]));
      }
      last_draw = rng.next_u64();
      return 10.0 - 4.0 * dist;
    };
    h.gather_params = [this](std::size_t agent, std::span<float> out) {
      const float* p = params.data() + agent * kDim;
      std::copy(p, p + kDim, out.begin());
    };
    h.scatter_params = [this](std::size_t agent, std::span<const float> in) {
      std::copy(in.begin(), in.end(), params.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              agent * kDim));
    };
    h.inject_agent = [this](std::size_t victim, const FaultSpec& spec,
                            Rng& rng) {
      inject_int8(std::span<float>(params.data() + victim * kDim, kDim), spec,
                  rng);
    };
    return h;
  }
};

struct Scenario {
  ParticipationPlan plan;  // inactive = plan-free rounds
  bool server_fault = false;
  double channel_ber = 2e-3;
};

struct Outcome {
  std::uint64_t digest = 0;
  ParticipationStats stats;
  MitigationStats mitigation;
};

void add_stats(Digest& d, const ParticipationStats& s) {
  d.u64(s.rounds);
  d.u64(s.present);
  d.u64(s.dropped);
  d.u64(s.stragglers);
  d.u64(s.byzantine);
  d.u64(s.stale_folded);
  d.u64(s.stale_discarded);
  d.u64(s.screened_out);
  d.u64(s.degenerate_rounds);
  d.u64(s.upload_attempts);
  d.u64(s.uploads_failed);
  d.u64(s.failed_stale);
  d.u64(s.failed_dropped);
  d.f64(s.backoff_seconds);
}

void add_report(Digest& d, const RoundParticipationReport& r) {
  d.u64(r.round);
  d.u64(r.present);
  d.u64(r.dropped);
  d.u64(r.stragglers);
  d.u64(r.byzantine);
  d.u64(r.stale_folded);
  d.u64(r.stale_discarded);
  d.u64(r.screened_out);
  d.u64(r.contributors);
  d.u64(r.upload_attempts);
  d.u64(r.uploads_failed);
  d.u64(r.failed_stale);
  d.u64(r.failed_dropped);
  d.f64(r.backoff_seconds);
  d.u64(r.aggregated ? 1 : 0);
  for (const AgentRoundStatus s : r.status) d.u64(static_cast<std::uint64_t>(s));
  for (const std::uint8_t f : r.upload_failed) d.u64(f);
}

// Train 24 episodes, digest, train 2 more (the continuation diverges if a
// round consumed its stream differently), digest again.
Outcome run(const Scenario& sc) {
  Harness h;
  FederatedRoundEngine::Config cfg;
  cfg.n_agents = kAgents;
  cfg.parameter_dim = kDim;
  cfg.alpha0 = 0.6;
  cfg.alpha_tau = 20.0;
  cfg.channel_ber = sc.channel_ber;
  FederatedRoundEngine engine(cfg, kSeed, kStreamTag, h.hooks());
  Digest d;
  engine.set_round_observer(
      [&d](const RoundParticipationReport& rep) { add_report(d, rep); });
  engine.set_participation_plan(sc.plan);
  if (sc.server_fault) {
    TrainingFaultPlan fault;
    fault.active = true;
    fault.spec.site = FaultSite::ServerFault;
    fault.spec.ber = 0.2;
    fault.spec.episode = 12;
    engine.set_fault_plan(fault);
    MitigationPlan mit;
    mit.enabled = true;
    mit.detector.drop_percent = 20.0;
    mit.detector.consecutive_episodes = 2;
    mit.detector.warmup_episodes = 3;
    mit.detector.baseline_beta = 0.5;
    mit.checkpoint_interval = 2;
    engine.set_mitigation(mit);
  }

  for (const std::size_t leg : {std::size_t{24}, std::size_t{2}}) {
    engine.train(leg);
    d.floats(h.params);
    const CommChannel& ch = engine.server()->channel();
    d.u64(ch.transmit_seq());
    d.u64(ch.messages_sent());
    d.u64(ch.bytes_sent());
    d.u64(ch.bits_corrupted());
    d.u64(ch.retransmit_bytes());
    add_stats(d, engine.participation_stats());
    for (const auto& p : engine.server()->pending_uploads()) {
      d.u64(p.agent);
      d.u64(p.deliver_round);
      d.floats(std::span<const float>(&p.weight, 1));
      d.floats(p.data);
    }
    const MitigationStats& m = engine.mitigation_stats();
    d.u64(m.agent_recoveries);
    d.u64(m.server_recoveries);
    d.u64(m.checkpoints_taken);
    d.u64(h.last_draw);
  }
  return {d.value(), engine.participation_stats(), engine.mitigation_stats()};
}

// Dropout windows, stragglers folded stale, a Byzantine sender behind the
// L2 screen, and a server fault with mitigation on.
Scenario busy() {
  Scenario sc;
  sc.plan.active = true;
  sc.plan.dropout_rate = 0.15;
  sc.plan.crash_rounds = 2;
  sc.plan.straggler_rate = 0.2;
  sc.plan.straggler_lag = 2;
  sc.plan.byzantine_agents = {4};
  sc.plan.screening.l2_norm = true;
  sc.server_fault = true;
  return sc;
}

Scenario trimmed() {
  Scenario sc;
  sc.plan.active = true;
  sc.plan.dropout_rate = 0.1;
  sc.plan.straggler_rate = 0.15;
  sc.plan.byzantine_agents = {1};
  sc.plan.screening.trimmed_mean = true;
  return sc;
}

Scenario retry() {
  Scenario sc;
  sc.plan.active = true;
  sc.plan.straggler_rate = 0.1;
  sc.plan.upload.enabled = true;
  sc.plan.upload.max_retries = 3;
  sc.channel_ber = 4e-3;
  return sc;
}

TEST(RoundGolden, DegradedRoundsWithServerFaultAndMitigation) {
  SKIP_ON_FMA();
  const Outcome o = run(busy());
  EXPECT_GT(o.stats.dropped, 0u);
  EXPECT_GT(o.stats.stale_folded, 0u);
  EXPECT_GT(o.stats.screened_out, 0u);
  EXPECT_GT(o.mitigation.server_recoveries, 0u);
  EXPECT_EQ(o.digest, 0x0C16E4A4B8ACBBD6ULL);
}

TEST(RoundGolden, TrimmedMeanRounds) {
  SKIP_ON_FMA();
  const Outcome o = run(trimmed());
  EXPECT_GT(o.stats.byzantine, 0u);
  EXPECT_GT(o.stats.stragglers, 0u);
  EXPECT_EQ(o.digest, 0x81A4874BB5E9C7FEULL);
}

TEST(RoundGolden, RetryProtocolExhaustedToStale) {
  SKIP_ON_FMA();
  const Outcome o = run(retry());
  EXPECT_GT(o.stats.failed_stale, 0u);
  EXPECT_GT(o.stats.upload_attempts, o.stats.present);
  EXPECT_EQ(o.digest, 0x7E2BF40BBE14AE79ULL);
}

TEST(RoundGolden, PlanFreeRoundsWithServerFaultAndMitigation) {
  SKIP_ON_FMA();
  Scenario sc;
  sc.server_fault = true;
  const Outcome o = run(sc);
  EXPECT_EQ(o.stats.present, o.stats.rounds * kAgents);
  EXPECT_GT(o.mitigation.server_recoveries, 0u);
  EXPECT_EQ(o.digest, 0x19AF2417C375E4F7ULL);
}

}  // namespace
}  // namespace frlfi
