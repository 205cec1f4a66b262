/// \file test_round_engine.cpp
/// The federated round engine's invariants:
///  * train() is bit-identical across thread counts (1, 2, 7, and 0 =
///    every hardware thread) on both paper systems — faults, noisy
///    channels and mitigation included — over an n_agents x threads grid;
///  * snapshot/restore composes with parallel training (restore + retrain
///    replays the same bits at any fan-out);
///  * CommChannel::transmit_rows and the all-Present
///    ParameterServer::communicate_round are bit-identical to the scalar
///    transmit / smoothing_average / mean_parameters round, RNG stream
///    position included;
///  * the engine's row-matrix server-fault hook reproduces the historical
///    per-agent-vector hook, and the engine runs the server's
///    post-aggregate hook on every round over the whole n x dim matrix,
///    with or without a participation plan.

#include "federated/round_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "federated/aggregation.hpp"
#include "federated/channel.hpp"
#include "federated/server.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"
#include "frl/policies.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

using testing::frozen_scalar_round;
using testing::full_round;

std::vector<float> random_row(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<std::vector<float>> random_uploads(std::size_t n, std::size_t dim,
                                               std::uint64_t seed) {
  std::vector<std::vector<float>> up;
  for (std::size_t i = 0; i < n; ++i) up.push_back(random_row(dim, seed + i));
  return up;
}

std::vector<float> pack_rows(const std::vector<std::vector<float>>& vov) {
  std::vector<float> rows;
  for (const auto& v : vov) rows.insert(rows.end(), v.begin(), v.end());
  return rows;
}

TEST(BatchedChannel, TransmitRowsMatchesScalarTransmit) {
  for (const double ber : {0.0, 1e-3, 0.05, 0.3}) {
    const std::size_t n = 4, dim = 97;
    const auto uploads = random_uploads(n, dim, 900);
    CommChannel scalar_ch(ber), rows_ch(ber);
    Rng scalar_rng(7), rows_rng(7);
    std::vector<std::vector<float>> scalar_out;
    for (const auto& p : uploads)
      scalar_out.push_back(scalar_ch.transmit(p, scalar_rng));
    std::vector<float> rows = pack_rows(uploads);
    rows_ch.transmit_rows(rows.data(), n, dim, rows_rng);
    EXPECT_EQ(rows, pack_rows(scalar_out)) << "ber " << ber;
    EXPECT_EQ(rows_ch.messages_sent(), scalar_ch.messages_sent());
    EXPECT_EQ(rows_ch.bytes_sent(), scalar_ch.bytes_sent());
    EXPECT_EQ(rows_ch.bits_corrupted(), scalar_ch.bits_corrupted());
    // Identical RNG consumption: the streams stay aligned afterwards.
    EXPECT_EQ(rows_rng.next_u64(), scalar_rng.next_u64()) << "ber " << ber;
  }
}

TEST(BatchedServerRound, FullRoundMatchesFrozenScalarRound) {
  // A small round, then the gridworld policy's dimension at 4 and 12
  // agents.
  Rng init(31);
  const std::size_t grid_dim = make_gridworld_policy(init).parameter_count();
  const struct {
    std::size_t n, dim;
    double alpha0, tau;
  } cases[] = {{3, 64, 0.6, 20.0}, {4, grid_dim, 0.5, 200.0},
               {12, grid_dim, 0.5, 200.0}};
  for (const auto& c : cases) {
    const auto uploads = random_uploads(c.n, c.dim, 1300);
    const AlphaSchedule schedule(c.n, c.alpha0, c.tau);
    CommChannel ref_channel(0.01);
    Rng ref_rng(5);
    std::vector<float> ref_consensus;
    const auto down = frozen_scalar_round(uploads, ref_channel,
                                          schedule.at(0), ref_rng,
                                          &ref_consensus);
    ParameterServer server(c.n, c.dim, schedule);
    server.channel().set_bit_error_rate(0.01);
    Rng rng(5);
    std::vector<float> rows = pack_rows(uploads);
    const RoundParticipationReport rep = full_round(server, rows, rng);
    EXPECT_EQ(rows, pack_rows(down)) << c.n << " x " << c.dim;
    EXPECT_EQ(server.consensus(), ref_consensus);
    EXPECT_EQ(server.round(), 1u);
    EXPECT_EQ(rep.contributors, c.n);
    EXPECT_EQ(server.channel().messages_sent(), ref_channel.messages_sent());
    EXPECT_EQ(server.channel().bytes_sent(), ref_channel.bytes_sent());
    EXPECT_EQ(server.channel().bits_corrupted(),
              ref_channel.bits_corrupted());
    Rng ref_next = ref_rng;
    EXPECT_EQ(rng.next_u64(), ref_next.next_u64());
  }
}

TEST(BatchedServerRound, RowsFaultHookMatchesFrozenLegacyHookRound) {
  // The engine's server-fault injection (span-based inject_int8 over the
  // aggregate rows, one RNG stream across all rows) must reproduce the
  // historical vector-of-vectors hook inside the frozen scalar round
  // bit-for-bit.
  const std::size_t n = 4, dim = 80;
  const auto uploads = random_uploads(n, dim, 1700);
  FaultSpec spec;
  spec.ber = 0.05;
  const AlphaSchedule schedule(n, 0.5);
  CommChannel ref_channel(0.0);
  Rng ref_rng(9);
  const auto down = frozen_scalar_round(
      uploads, ref_channel, schedule.at(0), ref_rng, nullptr,
      [&](std::vector<std::vector<float>>& agg) {
        Rng fault_rng(4242);
        for (auto& params : agg) inject_int8(params, spec, fault_rng);
      });

  ParameterServer rows_srv(n, dim, schedule);
  rows_srv.set_post_aggregate_rows_hook(
      [&](std::size_t, std::span<float> rows, std::size_t row_dim) {
        Rng fault_rng(4242);
        for (std::size_t i = 0; i < n; ++i)
          inject_int8(rows.subspan(i * row_dim, row_dim), spec, fault_rng);
      });
  Rng rows_rng(9);
  std::vector<float> rows = pack_rows(uploads);
  full_round(rows_srv, rows, rows_rng);
  EXPECT_EQ(rows, pack_rows(down));
}

/// Small-but-busy gridworld configuration: noisy channel so the comm
/// round consumes RNG, plus an eps schedule matching the test scale.
GridWorldFrlSystem::Config grid_config(std::size_t n_agents,
                                       std::size_t threads) {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = n_agents;
  cfg.eps_span = 420;
  cfg.channel_ber = 1e-3;
  cfg.threads = threads;
  return cfg;
}

/// All agent parameters of a gridworld system, concatenated.
std::vector<std::vector<float>> grid_params(GridWorldFrlSystem& sys,
                                            std::size_t n) {
  std::vector<std::vector<float>> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(sys.agent_network(i).flat_parameters());
  return out;
}

TEST(RoundEngine, GridWorldTrainIsThreadCountInvariant) {
  // n_agents x threads grid, with a training fault and mitigation active
  // so every engine stage (episodes, injection, comm round, monitor,
  // checkpoint restore) runs under the fan-out.
  for (const std::size_t n_agents :
       {std::size_t{1}, std::size_t{4}, std::size_t{12}}) {
    std::vector<std::vector<float>> serial;
    MitigationStats serial_stats;
    std::size_t serial_bytes = 0;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0},
                                      std::size_t{2}, std::size_t{4},
                                      std::size_t{7}}) {
      GridWorldFrlSystem sys(grid_config(n_agents, threads), 31);
      TrainingFaultPlan plan;
      plan.active = true;
      plan.spec.site = n_agents == 1 ? FaultSite::ServerFault
                                     : FaultSite::AgentFault;
      plan.spec.ber = 0.02;
      plan.spec.episode = 10;
      sys.set_fault_plan(plan);
      MitigationPlan mit;
      mit.enabled = true;
      mit.detector.drop_percent = 25.0;
      mit.detector.consecutive_episodes = 5;
      mit.detector.warmup_episodes = 3;
      sys.set_mitigation(mit);
      sys.train(40);
      const auto params = grid_params(sys, n_agents);
      if (threads == 1) {
        serial = params;
        serial_stats = sys.mitigation_stats();
        serial_bytes = sys.communication_bytes();
      } else {
        EXPECT_EQ(params, serial) << n_agents << " agents, " << threads
                                  << " threads";
        EXPECT_EQ(sys.mitigation_stats().checkpoints_taken,
                  serial_stats.checkpoints_taken);
        EXPECT_EQ(sys.mitigation_stats().agent_recoveries,
                  serial_stats.agent_recoveries);
        EXPECT_EQ(sys.mitigation_stats().server_recoveries,
                  serial_stats.server_recoveries);
        EXPECT_EQ(sys.communication_bytes(), serial_bytes);
      }
    }
  }
}

/// Cheap fresh-key drone config so the pretraining phase stays small.
DroneFrlSystem::Config drone_config(std::size_t n_drones,
                                    std::size_t threads) {
  DroneFrlSystem::Config cfg;
  cfg.n_drones = n_drones;
  cfg.imitation_episodes = 8;
  cfg.channel_ber = 1e-3;
  cfg.threads = threads;
  return cfg;
}

TEST(RoundEngine, DroneTrainIsThreadCountInvariant) {
  std::vector<std::vector<float>> serial;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    DroneFrlSystem sys(drone_config(3, threads), 57);
    TrainingFaultPlan plan;
    plan.active = true;
    plan.spec.site = FaultSite::ServerFault;
    plan.spec.ber = 1e-2;
    plan.spec.episode = 3;
    sys.set_fault_plan(plan);
    sys.train(8);
    std::vector<std::vector<float>> params;
    for (std::size_t i = 0; i < 3; ++i)
      params.push_back(sys.drone_network(i).flat_parameters());
    if (threads == 1) {
      serial = params;
    } else {
      EXPECT_EQ(params, serial) << threads << " threads";
    }
  }
}

TEST(RoundEngine, SnapshotRestoreComposesWithParallelTraining) {
  // Parallel-trained snapshot == serial-trained snapshot, and restore +
  // retrain replays identically at a different fan-out.
  GridWorldFrlSystem parallel(grid_config(4, 3), 63);
  GridWorldFrlSystem serial(grid_config(4, 1), 63);
  parallel.train(20);
  serial.train(20);
  const auto snap_parallel = parallel.snapshot();
  const auto snap_serial = serial.snapshot();
  EXPECT_EQ(snap_parallel.agent_params, snap_serial.agent_params);
  EXPECT_EQ(snap_parallel.engine.episode, snap_serial.engine.episode);
  EXPECT_EQ(snap_parallel.engine.round, snap_serial.engine.round);

  parallel.train(15);
  const auto direct = grid_params(parallel, 4);
  parallel.restore(snap_parallel);
  EXPECT_EQ(parallel.episode(), 20u);
  parallel.train(15);
  EXPECT_EQ(grid_params(parallel, 4), direct);
  // And the serial twin retrains to the same place.
  serial.train(15);
  EXPECT_EQ(grid_params(serial, 4), direct);
}

TEST(RoundEngine, ValidatesHooksAndConfig) {
  FederatedRoundEngine::Config cfg;
  cfg.n_agents = 2;
  cfg.parameter_dim = 4;
  FederatedRoundEngine::Hooks hooks;  // all empty
  EXPECT_THROW(FederatedRoundEngine(cfg, 1, 2, hooks), Error);
}

/// Synthetic agents for the engine hook test: flat per-agent parameter
/// rows, an "episode" that nudges one coordinate deterministically —
/// rounds aggregate changing data at zero NN cost.
struct FleetHarness {
  std::size_t n, dim;
  std::vector<float> params;
  FleetHarness(std::size_t n_agents, std::size_t param_dim)
      : n(n_agents), dim(param_dim), params(n_agents * param_dim) {
    Rng wrng(91);
    for (auto& v : params) v = static_cast<float>(wrng.uniform(-0.5, 0.5));
  }
  FederatedRoundEngine::Hooks hooks() {
    FederatedRoundEngine::Hooks h;
    h.run_episode = [this](std::size_t agent, std::size_t episode, Rng&) {
      params[agent * dim] += 1e-3f * static_cast<float>((agent + episode) % 7);
      return 0.0;
    };
    h.gather_params = [this](std::size_t agent, std::span<float> out) {
      std::copy(params.begin() + static_cast<std::ptrdiff_t>(agent * dim),
                params.begin() + static_cast<std::ptrdiff_t>((agent + 1) * dim),
                out.begin());
    };
    h.scatter_params = [this](std::size_t agent, std::span<const float> p) {
      std::copy(p.begin(), p.end(),
                params.begin() + static_cast<std::ptrdiff_t>(agent * dim));
    };
    h.inject_agent = [](std::size_t, const FaultSpec&, Rng&) {};
    return h;
  }
};

/// Everything degraded at once: dropout windows thinning most rounds,
/// stragglers, Byzantine senders and L2 screening.
ParticipationPlan thin_plan() {
  ParticipationPlan plan;
  plan.dropout_rate = 0.9;
  plan.crash_rounds = 1;
  plan.straggler_rate = 0.1;
  plan.straggler_lag = 2;
  plan.byzantine_agents = {1, 3};
  plan.screening.l2_norm = true;
  return plan;
}

TEST(RoundEngine, PlanFreeRoundsRunTheServerHookEveryRound) {
  // A hook installed on the server of an engine (how an outside harness
  // fires its own server fault) must see every communication round, over
  // the full n x dim round matrix — plan-free, and under an armed plan
  // whose rounds drop, delay and screen agents.
  const std::size_t agents = 4, dim = 8;
  for (const bool armed : {false, true}) {
    FleetHarness h(agents, dim);
    FederatedRoundEngine::Config cfg;
    cfg.n_agents = agents;
    cfg.parameter_dim = dim;
    cfg.comm_interval = 2;
    FederatedRoundEngine engine(cfg, 7, 0x7E57, h.hooks());
    if (armed) engine.set_participation_plan(thin_plan());
    std::vector<std::size_t> seen;
    engine.server()->set_post_aggregate_rows_hook(
        [&](std::size_t round, std::span<float> rows, std::size_t row_dim) {
          EXPECT_EQ(rows.size(), agents * row_dim);
          seen.push_back(round);
        });
    engine.train(10);
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}))
        << (armed ? "armed plan" : "plan-free");
    if (armed) {
      EXPECT_GT(engine.participation_stats().dropped, 0u);
    }
  }
}

}  // namespace
}  // namespace frlfi
