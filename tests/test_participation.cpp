/// \file test_participation.cpp
/// The degraded-participation plane:
///  * ParticipationPlan status resolution is deterministic, purely
///    functional in (seed, round, agent), and crash windows rejoin;
///  * ParameterServer::communicate_round is locked bit-identical to
///    communicate_rows for a full-participation round — through the fast
///    path AND through the general weighted path (screening armed but
///    excluding nothing, in place and with the aggregate matrix built for
///    the hook) — RNG stream position and counters included;
///  * partial participation, staleness folding/discard, L2 screening and
///    the trimmed mean (kernel inline and on 1, 2 and 7 lanes) match
///    hand-computed references;
///  * the engine with an active all-present plan is bit-identical to the
///    plan-free engine across thread counts {1, 2, 7} on both paper
///    systems, and degraded training is thread-count invariant;
///  * snapshot/restore mid-campaign with a plan active (straggler rows
///    spanning the boundary), into the same or a freshly built system,
///    replays the uninterrupted run bit-for-bit.

#include "federated/participation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "federated/aggregation.hpp"
#include "federated/round_engine.hpp"
#include "federated/server.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"

namespace frlfi {
namespace {

std::vector<float> random_row(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<float> pack_rows(const std::vector<std::vector<float>>& vov) {
  std::vector<float> rows;
  for (const auto& v : vov) rows.insert(rows.end(), v.begin(), v.end());
  return rows;
}

TEST(ParticipationPlan, ValidatesParameters) {
  ParticipationPlan plan;
  plan.active = true;
  plan.dropout_rate = 1.5;
  EXPECT_THROW(validate_participation_plan(plan, 4), Error);
  plan.dropout_rate = 0.1;
  plan.crash_rounds = 0;
  EXPECT_THROW(validate_participation_plan(plan, 4), Error);
  plan.crash_rounds = 2;
  plan.stale_decay = 0.0;
  EXPECT_THROW(validate_participation_plan(plan, 4), Error);
  plan.stale_decay = 0.5;
  plan.byzantine_agents = {7};
  EXPECT_THROW(validate_participation_plan(plan, 4), Error);
  plan.byzantine_agents = {3};
  plan.cadence = 0;
  EXPECT_THROW(validate_participation_plan(plan, 4), Error);
  plan.cadence = 10;
  validate_participation_plan(plan, 4);  // sane plan passes
}

TEST(ParticipationPlan, CadenceSchedulesStaggeredPhase) {
  // Cadence k is a deterministic staggered phase: agent i contributes
  // exactly on rounds with round % k == i % k, so every round sees n/k of
  // an evenly-spread fleet and every agent uploads every k-th round.
  ParticipationPlan plan;
  plan.active = true;
  plan.cadence = 4;
  const Rng base = Rng(5).split(plan.stream_tag);
  for (std::size_t round = 0; round < 12; ++round) {
    std::size_t uploaders = 0;
    for (std::size_t agent = 0; agent < 8; ++agent) {
      const AgentRoundStatus s =
          resolve_agent_round_status(plan, base, round, agent, false);
      if (round % 4 == agent % 4) {
        EXPECT_EQ(s, AgentRoundStatus::Present) << round << "/" << agent;
        ++uploaders;
      } else {
        EXPECT_EQ(s, AgentRoundStatus::Dropped) << round << "/" << agent;
      }
    }
    EXPECT_EQ(uploaders, 2u) << "round " << round;  // n/k = 8/4
  }
  // The fold knob resolves the scheduled skip to Straggler instead, so
  // the skipped upload detours through the staleness buffer.
  plan.cadence_fold_stale = true;
  EXPECT_EQ(resolve_agent_round_status(plan, base, 1, 0, false),
            AgentRoundStatus::Straggler);
  EXPECT_EQ(resolve_agent_round_status(plan, base, 1, 1, false),
            AgentRoundStatus::Present);
}

TEST(ParticipationPlan, CadencePrecedenceAgainstOtherDegradations) {
  const Rng base = Rng(5).split(ParticipationPlan{}.stream_tag);
  // The Byzantine flag overrides cadence: a garbage sender is garbage
  // every round it is up, scheduled or not.
  ParticipationPlan plan;
  plan.active = true;
  plan.cadence = 3;
  EXPECT_EQ(resolve_agent_round_status(plan, base, 1, 0, true),
            AgentRoundStatus::Byzantine);
  // The crash schedule overrides cadence: with certain dropout even an
  // off-cadence agent whose skip would fold stale resolves Dropped.
  plan.dropout_rate = 1.0;
  plan.cadence_fold_stale = true;
  for (std::size_t agent = 0; agent < 3; ++agent)
    EXPECT_EQ(resolve_agent_round_status(plan, base, 2, agent, false),
              AgentRoundStatus::Dropped);
  // Cadence overrides the straggler draw: an off-cadence agent draws
  // nothing (deterministic skip), an on-cadence one draws as usual.
  plan.dropout_rate = 0.0;
  plan.cadence_fold_stale = false;
  plan.straggler_rate = 1.0;
  EXPECT_EQ(resolve_agent_round_status(plan, base, 0, 1, false),
            AgentRoundStatus::Dropped);  // off cadence: no straggler draw
  EXPECT_EQ(resolve_agent_round_status(plan, base, 0, 0, false),
            AgentRoundStatus::Straggler);  // on cadence: draw fires
}

TEST(ParticipationPlan, ResolutionIsDeterministicAndFunctional) {
  ParticipationPlan plan;
  plan.active = true;
  plan.dropout_rate = 0.3;
  plan.straggler_rate = 0.3;
  const Rng base = Rng(99).split(plan.stream_tag);
  for (std::size_t round = 0; round < 20; ++round)
    for (std::size_t agent = 0; agent < 5; ++agent) {
      const AgentRoundStatus a =
          resolve_agent_round_status(plan, base, round, agent, false);
      const AgentRoundStatus b =
          resolve_agent_round_status(plan, base, round, agent, false);
      EXPECT_EQ(a, b) << round << "/" << agent;
    }
  // Zero rates resolve everyone Present; the Byzantine flag overrides.
  ParticipationPlan calm;
  calm.active = true;
  EXPECT_EQ(resolve_agent_round_status(calm, base, 3, 1, false),
            AgentRoundStatus::Present);
  EXPECT_EQ(resolve_agent_round_status(calm, base, 3, 1, true),
            AgentRoundStatus::Byzantine);
}

TEST(ParticipationPlan, CrashWindowKeepsAgentOutThenRejoins) {
  // With crash_rounds = K, a crash draw firing at round r0 keeps the
  // agent Dropped for rounds [r0, r0+K) and it rejoins afterwards
  // (unless a later draw fires).
  ParticipationPlan one;
  one.active = true;
  one.dropout_rate = 0.25;
  const Rng base = Rng(7).split(one.stream_tag);
  ParticipationPlan windowed = one;
  windowed.crash_rounds = 3;
  bool exercised = false;
  for (std::size_t r = 0; r < 40; ++r) {
    const bool crash_draw_fired =
        resolve_agent_round_status(one, base, r, 2, false) ==
        AgentRoundStatus::Dropped;
    if (!crash_draw_fired) continue;
    exercised = true;
    for (std::size_t k = 0; k < 3; ++k)
      EXPECT_EQ(resolve_agent_round_status(windowed, base, r + k, 2, false),
                AgentRoundStatus::Dropped)
          << "round " << r << " + " << k;
  }
  EXPECT_TRUE(exercised);
  // And the agent is not permanently out: some round resolves Present.
  bool present_somewhere = false;
  for (std::size_t r = 0; r < 40; ++r)
    present_somewhere |=
        resolve_agent_round_status(windowed, base, r, 2, false) ==
        AgentRoundStatus::Present;
  EXPECT_TRUE(present_somewhere);
}

TEST(ParticipationPlan, PickByzantineAgents) {
  const auto picked = pick_byzantine_agents(10, 0.3, 42);
  ASSERT_EQ(picked.size(), 3u);
  for (std::size_t i = 1; i < picked.size(); ++i)
    EXPECT_LT(picked[i - 1], picked[i]);  // sorted, distinct
  for (std::size_t a : picked) EXPECT_LT(a, 10u);
  EXPECT_EQ(pick_byzantine_agents(10, 0.3, 42), picked);  // deterministic
  EXPECT_TRUE(pick_byzantine_agents(6, 0.0, 1).empty());
  EXPECT_EQ(pick_byzantine_agents(4, 1.0, 1).size(), 4u);
}

TEST(TrimmedMean, MatchesHandComputedAndRanksNonFiniteLast) {
  ThreadPool one(1), two(2), seven(7);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &two,
                           &seven}) {
    const std::size_t lanes = pool ? pool->size() : 1;
    // 5 rows, k=1: per coordinate drop min and max, average the middle 3.
    const std::vector<std::vector<float>> rows{
        {1.0f, 10.0f}, {2.0f, -5.0f}, {3.0f, 0.0f}, {4.0f, 1.0f},
        {100.0f, 2.0f}};
    std::vector<const float*> ptrs;
    for (const auto& r : rows) ptrs.push_back(r.data());
    std::vector<float> scratch(lanes * rows.size()), out(2);
    trimmed_mean_rows(ptrs.data(), rows.size(), 2, 1, scratch.data(),
                      out.data(), pool);
    EXPECT_FLOAT_EQ(out[0], 3.0f) << lanes;  // mean(2,3,4)
    EXPECT_FLOAT_EQ(out[1], 1.0f) << lanes;  // mean(0,1,2)
    // A NaN row ranks above every finite value: trimmed with the top tail.
    const std::vector<std::vector<float>> with_nan{
        {1.0f}, {2.0f}, {3.0f}, {std::nanf("")}};
    ptrs.clear();
    for (const auto& r : with_nan) ptrs.push_back(r.data());
    scratch.assign(lanes * 4, 0.0f);
    trimmed_mean_rows(ptrs.data(), 4, 1, 1, scratch.data(), out.data(), pool);
    EXPECT_FLOAT_EQ(out[0], 2.5f) << lanes;  // mean(2,3); NaN and 1 trimmed
    EXPECT_THROW(trimmed_mean_rows(ptrs.data(), 2, 1, 1, scratch.data(),
                                   out.data(), pool),
                 Error);
  }
}

TEST(TrimmedMean, PoolPartitionKeepsInlineBits) {
  // Wide rows so every lane owns a coordinate slice: the pooled kernel
  // must reproduce the inline one bit for bit.
  const std::size_t m = 9, dim = 203;
  std::vector<std::vector<float>> rows;
  for (std::size_t j = 0; j < m; ++j) rows.push_back(random_row(dim, 9100 + j));
  rows[3][17] = std::nanf("");
  std::vector<const float*> ptrs;
  for (const auto& r : rows) ptrs.push_back(r.data());
  std::vector<float> scratch(m), inline_out(dim);
  trimmed_mean_rows(ptrs.data(), m, dim, 2, scratch.data(), inline_out.data(),
                    nullptr);
  for (const std::size_t lanes :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ThreadPool pool(lanes);
    std::vector<float> lane_scratch(lanes * m), out(dim);
    trimmed_mean_rows(ptrs.data(), m, dim, 2, lane_scratch.data(), out.data(),
                      &pool);
    EXPECT_EQ(out, inline_out) << lanes << " lanes";
  }
}

/// One serial degraded round over a full n x dim matrix: compacts the
/// sending agents' rows (the server's input contract), runs
/// communicate_round and writes every sender row back, so the rows of
/// agents that send nothing stay untouched.
RoundParticipationReport run_round(
    ParameterServer& srv, std::vector<float>& rows,
    const std::vector<AgentRoundStatus>& status,
    const ParameterServer::RobustRoundOptions& opts, Rng& rng,
    bool run_post_hook = false) {
  const std::size_t dim = srv.parameter_dim();
  std::vector<std::size_t> agents;
  std::vector<float> compact;
  for (std::size_t i = 0; i < status.size(); ++i) {
    if (!sends_upload(status[i])) continue;
    agents.push_back(i);
    compact.insert(compact.end(),
                   rows.begin() + static_cast<std::ptrdiff_t>(i * dim),
                   rows.begin() + static_cast<std::ptrdiff_t>((i + 1) * dim));
  }
  const RoundParticipationReport rep = srv.communicate_round(
      compact, agents, status, opts, rng, nullptr, run_post_hook);
  for (std::size_t j = 0; j < agents.size(); ++j)
    std::copy(compact.begin() + static_cast<std::ptrdiff_t>(j * dim),
              compact.begin() + static_cast<std::ptrdiff_t>((j + 1) * dim),
              rows.begin() + static_cast<std::ptrdiff_t>(agents[j] * dim));
  return rep;
}

/// Runs one all-present communicate_round and one communicate_rows over
/// identical inputs and expects bit-identical everything.
void expect_full_round_matches_rows(const ScreeningConfig& screening,
                                    double ber) {
  const std::size_t n = 4, dim = 37;
  std::vector<std::vector<float>> uploads;
  for (std::size_t i = 0; i < n; ++i)
    uploads.push_back(random_row(dim, 3100 + i));
  const AlphaSchedule schedule(n, 0.6, 20.0);

  ParameterServer ref(n, dim, schedule);
  ref.channel().set_bit_error_rate(ber);
  Rng ref_rng(11);
  std::vector<float> ref_rows = pack_rows(uploads);
  ref.communicate_rows(ref_rows, ref_rng, nullptr);

  for (const bool run_post_hook : {false, true}) {
    ParameterServer srv(n, dim, schedule);
    srv.channel().set_bit_error_rate(ber);
    Rng rng(11);
    std::vector<float> rows = pack_rows(uploads);
    const std::vector<AgentRoundStatus> status(n, AgentRoundStatus::Present);
    ParameterServer::RobustRoundOptions opts;
    opts.screening = screening;
    const RoundParticipationReport rep =
        run_round(srv, rows, status, opts, rng, run_post_hook);

    EXPECT_EQ(rows, ref_rows);
    EXPECT_EQ(srv.consensus(), ref.consensus());
    EXPECT_EQ(srv.round(), ref.round());
    EXPECT_EQ(srv.channel().bytes_sent(), ref.channel().bytes_sent());
    EXPECT_EQ(srv.channel().messages_sent(), ref.channel().messages_sent());
    EXPECT_EQ(srv.channel().bits_corrupted(),
              ref.channel().bits_corrupted());
    Rng ref_next = ref_rng;
    EXPECT_EQ(rng.next_u64(), ref_next.next_u64());  // stream position
    EXPECT_EQ(rep.present, n);
    EXPECT_EQ(rep.contributors, n);
    EXPECT_TRUE(rep.aggregated);
  }
}

TEST(CommunicateRound, FullParticipationFastPathMatchesCommunicateRows) {
  expect_full_round_matches_rows(ScreeningConfig{}, 0.0);
  expect_full_round_matches_rows(ScreeningConfig{}, 0.01);
}

TEST(CommunicateRound, FullParticipationGeneralPathMatchesCommunicateRows) {
  // Arming the L2 screen with a factor excluding nothing forces the
  // general weighted path — the partial-averaging arithmetic itself must
  // reproduce the synchronous kernel bit-for-bit when every weight is 1.
  ScreeningConfig screening;
  screening.l2_norm = true;
  screening.l2_factor = 1e9;
  expect_full_round_matches_rows(screening, 0.0);
  expect_full_round_matches_rows(screening, 0.01);
}

/// Test-side replica of the degraded combine (same float expressions in
/// the same order; -ffp-contract=off makes both sides bit-stable).
std::vector<float> reference_combine(
    const std::vector<const float*>& cand, const std::vector<float>& weights,
    const float* self, bool self_on_time, std::size_t dim, double alpha) {
  std::vector<float> tot(dim, 0.0f);
  for (std::size_t j = 0; j < cand.size(); ++j)
    for (std::size_t d = 0; d < dim; ++d) tot[d] += weights[j] * cand[j][d];
  double weight_sum = 0.0;
  for (float w : weights) weight_sum += static_cast<double>(w);
  const float wi = self_on_time ? 1.0f : 0.0f;
  const double peers = weight_sum - static_cast<double>(wi);
  const auto alpha_f = static_cast<float>(alpha);
  std::vector<float> dst(dim);
  if (peers > 0.0) {
    const auto beta = static_cast<float>((1.0 - alpha) / peers);
    for (std::size_t d = 0; d < dim; ++d)
      dst[d] = alpha_f * self[d] + beta * (tot[d] - wi * self[d]);
  } else {
    for (std::size_t d = 0; d < dim; ++d) dst[d] = self[d];
  }
  return dst;
}

TEST(CommunicateRound, PartialParticipationMatchesHandComputedAverage) {
  // Agent 1 dropped: its row must be ignored on uplink, aggregation and
  // downlink, and the present rows average only over themselves.
  const std::size_t n = 4, dim = 6;
  std::vector<std::vector<float>> uploads;
  for (std::size_t i = 0; i < n; ++i)
    uploads.push_back(random_row(dim, 4200 + i));
  const AlphaSchedule schedule(n, 0.6, 20.0);
  ParameterServer srv(n, dim, schedule);  // clean channel: quantize only
  Rng rng(13);
  std::vector<float> rows = pack_rows(uploads);
  std::vector<AgentRoundStatus> status(n, AgentRoundStatus::Present);
  status[1] = AgentRoundStatus::Dropped;
  const std::vector<float> before = rows;
  const RoundParticipationReport rep = run_round(
      srv, rows, status, ParameterServer::RobustRoundOptions{}, rng);

  EXPECT_EQ(rep.present, 3u);
  EXPECT_EQ(rep.dropped, 1u);
  EXPECT_EQ(rep.contributors, 3u);
  // Dropped row untouched in the caller's matrix.
  for (std::size_t d = 0; d < dim; ++d)
    EXPECT_EQ(rows[1 * dim + d], before[1 * dim + d]);

  // Reference: quantize the present uploads (clean transmit), combine,
  // quantize the downlink.
  CommChannel ch(0.0);
  Rng ref_rng(13);
  std::vector<std::vector<float>> sent(n);
  for (std::size_t i = 0; i < n; ++i)
    if (i != 1) sent[i] = ch.transmit(uploads[i], ref_rng);
  std::vector<const float*> cand;
  std::vector<float> weights;
  for (std::size_t i = 0; i < n; ++i)
    if (i != 1) {
      cand.push_back(sent[i].data());
      weights.push_back(1.0f);
    }
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 1) continue;
    const std::vector<float> agg = reference_combine(
        cand, weights, sent[i].data(), true, dim, schedule.at(0));
    const std::vector<float> down = ch.transmit(agg, ref_rng);
    for (std::size_t d = 0; d < dim; ++d)
      EXPECT_EQ(rows[i * dim + d], down[d]) << "agent " << i << " dim " << d;
  }
}

TEST(CommunicateRound, StalenessBufferFoldsLateRowsWithDecay) {
  const std::size_t n = 3, dim = 5;
  std::vector<std::vector<float>> uploads;
  for (std::size_t i = 0; i < n; ++i)
    uploads.push_back(random_row(dim, 5000 + i));
  const AlphaSchedule schedule(n, 0.6, 20.0);
  ParameterServer srv(n, dim, schedule);
  Rng rng(17);
  ParameterServer::RobustRoundOptions opts;
  opts.straggler_lag = 1;
  opts.stale_decay = 0.5;

  // Round 0: agent 2 straggles — no fold yet, one pending upload.
  std::vector<float> rows = pack_rows(uploads);
  std::vector<AgentRoundStatus> status(n, AgentRoundStatus::Present);
  status[2] = AgentRoundStatus::Straggler;
  RoundParticipationReport rep0 = run_round(srv, rows, status, opts, rng);
  EXPECT_EQ(rep0.stragglers, 1u);
  EXPECT_EQ(rep0.stale_folded, 0u);
  EXPECT_EQ(rep0.contributors, 2u);
  ASSERT_EQ(srv.pending_uploads().size(), 1u);
  EXPECT_EQ(srv.pending_uploads()[0].agent, 2u);
  EXPECT_EQ(srv.pending_uploads()[0].deliver_round, 1u);
  EXPECT_FLOAT_EQ(srv.pending_uploads()[0].weight, 0.5f);
  const std::vector<float> stale_payload = srv.pending_uploads()[0].data;

  // Round 1: everyone present; the stale row folds in at weight 0.5 and
  // leaves the buffer.
  std::vector<std::vector<float>> uploads1;
  for (std::size_t i = 0; i < n; ++i)
    uploads1.push_back(random_row(dim, 6000 + i));
  std::vector<float> rows1 = pack_rows(uploads1);
  const std::vector<AgentRoundStatus> all_present(n,
                                                  AgentRoundStatus::Present);
  RoundParticipationReport rep1 =
      run_round(srv, rows1, all_present, opts, rng);
  EXPECT_EQ(rep1.stale_folded, 1u);
  EXPECT_EQ(rep1.contributors, 4u);  // 3 on-time + 1 stale
  EXPECT_TRUE(srv.pending_uploads().empty());

  // The fold actually changed the aggregate: round 1 on a fresh server
  // without the pending row (same round index, clean channel so the RNG
  // seed is immaterial) produces different bits.
  ParameterServer fresh(n, dim, schedule);
  fresh.set_round(1);
  Rng fresh_rng(1234);
  std::vector<float> rows1b = pack_rows(uploads1);
  run_round(fresh, rows1b, all_present, opts, fresh_rng);
  EXPECT_NE(rows1, rows1b);

  // And a mirror server restored from the captured pending state replays
  // round 1 bit-for-bit — the buffer is sufficient training state.
  ParameterServer mirror(n, dim, schedule);
  mirror.set_round(1);
  ParameterServer::PendingUpload carried;
  carried.agent = 2;
  carried.deliver_round = 1;
  carried.weight = 0.5f;
  carried.data = stale_payload;
  mirror.set_pending_uploads({carried});
  Rng mirror_rng(4321);
  std::vector<float> rows1c = pack_rows(uploads1);
  run_round(mirror, rows1c, all_present, opts, mirror_rng);
  EXPECT_EQ(rows1c, rows1);
  EXPECT_TRUE(mirror.pending_uploads().empty());

  // Discard: lag beyond max_staleness never enters the buffer.
  ParameterServer srv2(n, dim, schedule);
  opts.straggler_lag = 5;
  opts.max_staleness = 4;
  Rng rng2(19);
  std::vector<float> rows2 = pack_rows(uploads);
  RoundParticipationReport rep2 =
      run_round(srv2, rows2, status, opts, rng2);
  EXPECT_EQ(rep2.stale_discarded, 1u);
  EXPECT_TRUE(srv2.pending_uploads().empty());
}

TEST(CommunicateRound, L2ScreenExcludesNormOutlier) {
  const std::size_t n = 4, dim = 8;
  std::vector<std::vector<float>> uploads;
  for (std::size_t i = 0; i < n; ++i)
    uploads.push_back(random_row(dim, 7000 + i));
  // Agent 3 uploads garbage far outside the honest norm band.
  for (auto& v : uploads[3]) v = 80.0f;
  const AlphaSchedule schedule(n, 0.6, 20.0);
  ParameterServer srv(n, dim, schedule);
  Rng rng(23);
  std::vector<float> rows = pack_rows(uploads);
  std::vector<AgentRoundStatus> status(n, AgentRoundStatus::Present);
  status[3] = AgentRoundStatus::Byzantine;
  ParameterServer::RobustRoundOptions opts;
  opts.screening.l2_norm = true;
  opts.screening.l2_factor = 3.0;
  const RoundParticipationReport rep =
      run_round(srv, rows, status, opts, rng);
  EXPECT_EQ(rep.byzantine, 1u);
  EXPECT_EQ(rep.screened_out, 1u);
  EXPECT_EQ(rep.contributors, 3u);

  // The screened agent still receives a downlink, blended from honest
  // rows only (its own row is out of the total, weight 0).
  CommChannel ch(0.0);
  Rng ref_rng(23);
  std::vector<std::vector<float>> sent(n);
  for (std::size_t i = 0; i < n; ++i) sent[i] = ch.transmit(uploads[i], ref_rng);
  std::vector<const float*> cand;
  std::vector<float> weights;
  for (std::size_t i = 0; i < 3; ++i) {
    cand.push_back(sent[i].data());
    weights.push_back(1.0f);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<float> agg = reference_combine(
        cand, weights, sent[i].data(), i != 3, dim, schedule.at(0));
    const std::vector<float> down = ch.transmit(agg, ref_rng);
    for (std::size_t d = 0; d < dim; ++d)
      EXPECT_EQ(rows[i * dim + d], down[d]) << "agent " << i << " dim " << d;
  }
}

TEST(CommunicateRound, TrimmedMeanReplacesPeerAverage) {
  const std::size_t n = 5, dim = 4;
  std::vector<std::vector<float>> uploads;
  for (std::size_t i = 0; i < n; ++i)
    uploads.push_back(random_row(dim, 8000 + i));
  for (auto& v : uploads[4]) v = 100.0f;  // outlier the trim should drop
  const AlphaSchedule schedule(n, 0.6, 20.0);
  ParameterServer srv(n, dim, schedule);
  Rng rng(29);
  std::vector<float> rows = pack_rows(uploads);
  const std::vector<AgentRoundStatus> status(n, AgentRoundStatus::Present);
  ParameterServer::RobustRoundOptions opts;
  opts.screening.trimmed_mean = true;
  opts.screening.trim_k = 1;
  run_round(srv, rows, status, opts, rng);

  CommChannel ch(0.0);
  Rng ref_rng(29);
  std::vector<std::vector<float>> sent(n);
  for (std::size_t i = 0; i < n; ++i) sent[i] = ch.transmit(uploads[i], ref_rng);
  // Reference trimmed mean (same float ops as trimmed_mean_rows).
  std::vector<float> tm(dim);
  const auto inv = static_cast<float>(1.0 / static_cast<double>(n - 2));
  for (std::size_t d = 0; d < dim; ++d) {
    std::vector<float> col;
    for (std::size_t i = 0; i < n; ++i) col.push_back(sent[i][d]);
    std::sort(col.begin(), col.end());
    float acc = 0.0f;
    for (std::size_t j = 1; j + 1 < n; ++j) acc += col[j];
    tm[d] = acc * inv;
  }
  const double alpha = schedule.at(0);
  const auto alpha_f = static_cast<float>(alpha);
  const auto om = static_cast<float>(1.0 - alpha);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> agg(dim);
    for (std::size_t d = 0; d < dim; ++d)
      agg[d] = alpha_f * sent[i][d] + om * tm[d];
    const std::vector<float> down = ch.transmit(agg, ref_rng);
    for (std::size_t d = 0; d < dim; ++d)
      EXPECT_EQ(rows[i * dim + d], down[d]) << "agent " << i << " dim " << d;
  }
}

TEST(CommunicateRound, ValidatesPendingUploads) {
  ParameterServer srv(2, 3, AlphaSchedule(2, 0.6));
  ParameterServer::PendingUpload bad;
  bad.agent = 5;
  bad.data = {1.0f, 2.0f, 3.0f};
  EXPECT_THROW(srv.set_pending_uploads({bad}), Error);
  ParameterServer::PendingUpload wrong_dim;
  wrong_dim.agent = 0;
  wrong_dim.data = {1.0f};
  EXPECT_THROW(srv.set_pending_uploads({wrong_dim}), Error);
}

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

TEST(ParticipationEngine, FullParticipationPlanIsBitIdenticalToInactive) {
  // The acceptance lock: an active plan resolving to all-present with
  // screening off must not change a single bit vs the plan-free engine —
  // RNG stream position included (checked by training past the compare
  // point) — at thread counts 1, 2 and 7.
  GridWorldFrlSystem reference(grid_config(4, 1), 77);
  reference.train(30);
  const auto ref_params = grid_params(reference, 4);
  const std::size_t ref_bytes = reference.communication_bytes();
  reference.train(10);
  const auto ref_params_cont = grid_params(reference, 4);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    GridWorldFrlSystem sys(grid_config(4, threads), 77);
    ParticipationPlan plan;
    plan.active = true;  // zero rates, no Byzantine set, screening off
    sys.set_participation_plan(plan);
    sys.train(30);
    EXPECT_EQ(grid_params(sys, 4), ref_params) << threads << " threads";
    EXPECT_EQ(sys.communication_bytes(), ref_bytes);
    sys.train(10);  // diverges here if the plan consumed training RNG
    EXPECT_EQ(grid_params(sys, 4), ref_params_cont) << threads << " threads";
    EXPECT_EQ(sys.communication_bytes(), reference.communication_bytes());
    EXPECT_EQ(sys.participation_stats().rounds, 40u);
    EXPECT_EQ(sys.participation_stats().present, 160u);
  }
}

DroneFrlSystem::Config drone_config(std::size_t n_drones,
                                    std::size_t threads) {
  DroneFrlSystem::Config cfg;
  cfg.n_drones = n_drones;
  cfg.imitation_episodes = 8;
  cfg.channel_ber = 1e-3;
  cfg.threads = threads;
  return cfg;
}

TEST(ParticipationEngine, DroneFullParticipationPlanIsBitIdentical) {
  DroneFrlSystem reference(drone_config(3, 1), 57);
  reference.train(8);
  std::vector<std::vector<float>> ref_params;
  for (std::size_t i = 0; i < 3; ++i)
    ref_params.push_back(reference.drone_network(i).flat_parameters());

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    DroneFrlSystem sys(drone_config(3, threads), 57);
    ParticipationPlan plan;
    plan.active = true;
    sys.set_participation_plan(plan);
    sys.train(8);
    std::vector<std::vector<float>> params;
    for (std::size_t i = 0; i < 3; ++i)
      params.push_back(sys.drone_network(i).flat_parameters());
    EXPECT_EQ(params, ref_params) << threads << " threads";
    EXPECT_EQ(sys.communication_bytes(), reference.communication_bytes());
  }
}

/// A busy degraded plan exercising dropout windows, stragglers and a
/// screened Byzantine agent at once.
ParticipationPlan busy_plan() {
  ParticipationPlan plan;
  plan.active = true;
  plan.dropout_rate = 0.2;
  plan.crash_rounds = 2;
  plan.straggler_rate = 0.3;
  plan.straggler_lag = 2;
  plan.stale_decay = 0.5;
  plan.max_staleness = 4;
  plan.byzantine_agents = {1};
  plan.screening.l2_norm = true;
  plan.screening.l2_factor = 3.0;
  return plan;
}

TEST(ParticipationEngine, DegradedTrainingIsThreadCountInvariant) {
  std::vector<std::vector<float>> serial;
  ParticipationStats serial_stats;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    GridWorldFrlSystem sys(grid_config(4, threads), 101);
    sys.set_participation_plan(busy_plan());
    sys.train(30);
    const auto params = grid_params(sys, 4);
    const ParticipationStats& stats = sys.participation_stats();
    if (threads == 1) {
      serial = params;
      serial_stats = stats;
      // The plan actually degrades something at this seed.
      EXPECT_GT(stats.dropped + stats.stragglers, 0u);
      EXPECT_GT(stats.byzantine, 0u);
    } else {
      EXPECT_EQ(params, serial) << threads << " threads";
      EXPECT_EQ(stats.rounds, serial_stats.rounds);
      EXPECT_EQ(stats.present, serial_stats.present);
      EXPECT_EQ(stats.dropped, serial_stats.dropped);
      EXPECT_EQ(stats.stragglers, serial_stats.stragglers);
      EXPECT_EQ(stats.byzantine, serial_stats.byzantine);
      EXPECT_EQ(stats.stale_folded, serial_stats.stale_folded);
      EXPECT_EQ(stats.screened_out, serial_stats.screened_out);
    }
  }
}

TEST(ParticipationEngine, CadenceOnePlanIsBitIdenticalToPlanFree) {
  // The cadence acceptance lock: cadence = 1 schedules every agent every
  // round and must not change a single bit vs the plan-free engine on
  // either paper system — RNG stream position included (the training
  // continues past the first compare point) — at 1, 2 and 7 threads.
  // The fold knob is irrelevant at cadence 1 and must stay inert too.
  GridWorldFrlSystem grid_ref(grid_config(4, 1), 88);
  grid_ref.train(30);
  const auto grid_ref_params = grid_params(grid_ref, 4);
  grid_ref.train(10);
  const auto grid_ref_cont = grid_params(grid_ref, 4);

  DroneFrlSystem drone_ref(drone_config(3, 1), 58);
  drone_ref.train(8);
  std::vector<std::vector<float>> drone_ref_params;
  for (std::size_t i = 0; i < 3; ++i)
    drone_ref_params.push_back(drone_ref.drone_network(i).flat_parameters());

  ParticipationPlan plan;
  plan.active = true;
  plan.cadence = 1;
  plan.cadence_fold_stale = true;

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    GridWorldFrlSystem grid(grid_config(4, threads), 88);
    grid.set_participation_plan(plan);
    grid.train(30);
    EXPECT_EQ(grid_params(grid, 4), grid_ref_params) << threads << " threads";
    grid.train(10);
    EXPECT_EQ(grid_params(grid, 4), grid_ref_cont) << threads << " threads";
    EXPECT_EQ(grid.communication_bytes(), grid_ref.communication_bytes());

    DroneFrlSystem drone(drone_config(3, threads), 58);
    drone.set_participation_plan(plan);
    drone.train(8);
    std::vector<std::vector<float>> params;
    for (std::size_t i = 0; i < 3; ++i)
      params.push_back(drone.drone_network(i).flat_parameters());
    EXPECT_EQ(params, drone_ref_params) << threads << " threads";
    EXPECT_EQ(drone.communication_bytes(), drone_ref.communication_bytes());
  }
}

TEST(ParticipationEngine, CadenceTrainingIsThreadInvariantAndThinsUploads) {
  // A sparse cadence rides along with the full busy plan: training stays
  // bit-identical across thread counts, the per-round upload volume drops
  // (cadence is the fleet bytes/round lever), and the skipped rounds show
  // up as scheduled drops in the stats.
  ParticipationPlan sparse = busy_plan();
  sparse.cadence = 2;

  std::vector<std::vector<float>> serial;
  ParticipationStats serial_stats;
  std::size_t serial_bytes = 0;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    GridWorldFrlSystem sys(grid_config(4, threads), 101);
    sys.set_participation_plan(sparse);
    sys.train(30);
    const auto params = grid_params(sys, 4);
    const ParticipationStats& stats = sys.participation_stats();
    if (threads == 1) {
      serial = params;
      serial_stats = stats;
      serial_bytes = sys.communication_bytes();
    } else {
      EXPECT_EQ(params, serial) << threads << " threads";
      EXPECT_EQ(stats.rounds, serial_stats.rounds);
      EXPECT_EQ(stats.present, serial_stats.present);
      EXPECT_EQ(stats.dropped, serial_stats.dropped);
      EXPECT_EQ(stats.stragglers, serial_stats.stragglers);
      EXPECT_EQ(stats.byzantine, serial_stats.byzantine);
      EXPECT_EQ(sys.communication_bytes(), serial_bytes);
    }
  }

  // Same seed and plan minus the cadence: the dense run uploads more and
  // sees more present agents — the cadence genuinely thinned the rounds.
  GridWorldFrlSystem dense(grid_config(4, 1), 101);
  dense.set_participation_plan(busy_plan());
  dense.train(30);
  EXPECT_LT(serial_bytes, dense.communication_bytes());
  EXPECT_LT(serial_stats.present, dense.participation_stats().present);
  EXPECT_GT(serial_stats.dropped, dense.participation_stats().dropped);
}

TEST(ParticipationEngine, RoundObserverSeesEveryRound) {
  GridWorldFrlSystem sys(grid_config(4, 1), 303);
  sys.set_participation_plan(busy_plan());
  std::vector<RoundParticipationReport> reports;
  sys.set_round_observer(
      [&](const RoundParticipationReport& rep) { reports.push_back(rep); });
  sys.train(12);
  ASSERT_EQ(reports.size(), 12u);  // comm_interval 1
  const ParticipationStats& stats = sys.participation_stats();
  std::size_t present = 0, dropped = 0, stragglers = 0, byz = 0;
  for (std::size_t r = 0; r < reports.size(); ++r) {
    EXPECT_EQ(reports[r].round, r);
    ASSERT_EQ(reports[r].status.size(), 4u);
    EXPECT_EQ(reports[r].status[1], AgentRoundStatus::Byzantine);
    present += reports[r].present;
    dropped += reports[r].dropped;
    stragglers += reports[r].stragglers;
    byz += reports[r].byzantine;
  }
  EXPECT_EQ(stats.rounds, 12u);
  EXPECT_EQ(stats.present, present);
  EXPECT_EQ(stats.dropped, dropped);
  EXPECT_EQ(stats.stragglers, stragglers);
  EXPECT_EQ(stats.byzantine, byz);

  // Inactive plans still report (all-present) rounds to the observer.
  GridWorldFrlSystem calm(grid_config(2, 1), 304);
  std::size_t calm_rounds = 0;
  calm.set_round_observer([&](const RoundParticipationReport& rep) {
    ++calm_rounds;
    EXPECT_EQ(rep.present, 2u);
    EXPECT_TRUE(rep.aggregated);
  });
  calm.train(5);
  EXPECT_EQ(calm_rounds, 5u);
}

TEST(ParticipationEngine, SnapshotRestoreMidCampaignReplaysBitForBit) {
  // Snapshot while straggler uploads are in flight: the resumed run must
  // replay the uninterrupted one exactly, which requires the staleness
  // buffer to travel with the snapshot.
  GridWorldFrlSystem sys(grid_config(4, 2), 505);
  sys.set_participation_plan(busy_plan());
  sys.train(21);
  const auto snap = sys.snapshot();
  ASSERT_FALSE(snap.engine.pending_uploads.empty())
      << "seed must leave a straggler row spanning the snapshot";
  sys.train(15);
  const auto direct = grid_params(sys, 4);
  const ParticipationStats direct_stats = sys.participation_stats();

  sys.restore(snap);
  EXPECT_EQ(sys.episode(), 21u);
  sys.train(15);
  EXPECT_EQ(grid_params(sys, 4), direct);
  // Stats keep accumulating across restore (they describe the session,
  // not the timeline) — but the post-restore rounds resolve identically,
  // so the totals grow by the same amounts.
  EXPECT_EQ(sys.participation_stats().rounds, direct_stats.rounds + 15u);
}

TEST(ParticipationEngine, SnapshotResumesDegradedCampaignInFreshSystem) {
  GridWorldFrlSystem sys(grid_config(4, 1), 505);
  sys.set_participation_plan(busy_plan());
  sys.train(21);
  const auto snap = sys.snapshot();
  sys.train(15);
  const auto direct = grid_params(sys, 4);

  GridWorldFrlSystem resumed(grid_config(4, 1), 505);
  resumed.set_participation_plan(busy_plan());
  resumed.restore(snap);
  EXPECT_EQ(resumed.episode(), 21u);
  resumed.train(15);
  EXPECT_EQ(grid_params(resumed, 4), direct);
}

TEST(ParticipationEngine, MitigationStateSurvivesSnapshotRestore) {
  // With mitigation enabled, restore + retrain must replay the monitor's
  // detection timeline — the baseline history now travels with the
  // snapshot instead of resetting.
  GridWorldFrlSystem sys(grid_config(4, 1), 606);
  TrainingFaultPlan fault;
  fault.active = true;
  fault.spec.site = FaultSite::AgentFault;
  fault.spec.agent_index = 2;
  fault.spec.ber = 0.05;
  fault.spec.episode = 24;
  sys.set_fault_plan(fault);
  MitigationPlan mit;
  mit.enabled = true;
  mit.detector.drop_percent = 25.0;
  mit.detector.consecutive_episodes = 4;
  mit.detector.warmup_episodes = 3;
  sys.set_mitigation(mit);

  sys.train(20);  // monitor warm, baselines established, fault not yet hit
  const auto snap = sys.snapshot();
  ASSERT_TRUE(snap.engine.has_mitigation_state);
  sys.train(20);  // fault fires at 24, recovery happens (or not) — either
                  // way the timeline must replay
  const auto direct = grid_params(sys, 4);
  const MitigationStats direct_stats = sys.mitigation_stats();

  sys.restore(snap);
  sys.train(20);
  EXPECT_EQ(grid_params(sys, 4), direct);
  EXPECT_EQ(sys.mitigation_stats().agent_recoveries,
            direct_stats.agent_recoveries);
  EXPECT_EQ(sys.mitigation_stats().server_recoveries,
            direct_stats.server_recoveries);
  EXPECT_EQ(sys.mitigation_stats().checkpoints_taken,
            direct_stats.checkpoints_taken);
}

}  // namespace
}  // namespace frlfi
