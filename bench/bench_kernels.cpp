/// \file bench_kernels.cpp
/// Timing report for the compute-kernel and federated-round layers:
///  * Conv2D forward/backward: naive 7-deep loops vs im2col + blocked GEMM
///    at the paper's DroneNav policy shapes (GFLOP/s and speedup),
///  * batched inference: B single-sample policy forwards vs one
///    Network::forward_batch at B in {1,4,16,64} on the drone policy,
///  * sharded batched inference: a B x threads sweep of forward_batch
///    split across a ThreadPool (wall-clock speedup needs multi-core
///    hardware),
///  * batched Trans-1: one corrupted read per agent through per-lane
///    weight-view overlays and one grouped forward_batch, with the
///    per-lane overlay footprint,
///  * federated training: GridWorld train() episode throughput at several
///    round-engine thread counts,
///  * degraded participation: a busy degraded communicate_round vs the
///    all-Present communicate_round at the same shapes,
///  * channel reliability: transmit_rows under the i.i.d. path vs the
///    Gilbert-Elliott burst plane vs the checksum/retry upload protocol.
///
/// The bench measures only: the equivalences behind each "old vs new"
/// pair are pinned by the ctest suite, and the exit code is 0 unless the
/// run throws. Every run also emits the measurements as machine-readable
/// JSON to BENCH_kernels.json in the working directory, so the perf
/// trajectory is trackable across commits.
///
/// Flags: --quick (CI smoke: fewer reps, shorter training runs).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "fault/overlay.hpp"
#include "federated/server.hpp"
#include "frl/gridworld_system.hpp"
#include "frl/policies.hpp"
#include "nn/conv2d.hpp"
#include "nn/network.hpp"
#include "tensor/tensor.hpp"

namespace frlfi {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Run fn repeatedly for at least min_time seconds, return seconds/call.
template <typename Fn>
double time_per_call(double min_time, Fn&& fn) {
  // Warm up once (also first-touch allocates workspaces).
  fn();
  std::size_t reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) fn();
    const double dt = seconds_since(t0);
    if (dt >= min_time) return dt / static_cast<double>(reps);
    reps = dt > 0.0
               ? static_cast<std::size_t>(
                     static_cast<double>(reps) * (min_time / dt) * 1.25) +
                     1
               : reps * 4;
  }
}

// Measurement records feeding both the text report and BENCH_kernels.json.
struct ConvRow {
  std::string label;
  double naive_gfs = 0.0, gemm_gfs = 0.0, speedup = 0.0;
};
struct BackwardRow {
  std::string label;
  double naive_ms = 0.0, gemm_ms = 0.0, speedup = 0.0;
};
struct BatchedRow {
  std::size_t batch = 0;
  double single_us = 0.0, batched_us = 0.0, speedup = 0.0;
};
struct ShardedRow {
  std::size_t batch = 0, threads = 0, shards = 0;
  double us = 0.0, speedup = 0.0;  // vs the same batch on 1 thread
};
struct Trans1Row {
  std::size_t agents = 0;
  double overlay_us = 0.0;
  std::size_t overlay_bytes = 0;  // per-lane fault state
};
struct TrainRoundRow {
  std::size_t agents = 0, threads = 0;
  double episodes_per_s = 0.0, speedup = 0.0;  // vs threads = 1
};
struct ParticipationRow {
  std::size_t agents = 0, dim = 0;
  double all_present_us = 0.0, degraded_us = 0.0;
};
struct ChannelRow {
  std::size_t agents = 0, dim = 0;
  double iid_us = 0.0, bursty_us = 0.0, reliable_us = 0.0;
};
struct Report {
  bool quick = false;
  std::vector<ConvRow> conv_forward;
  std::vector<BackwardRow> conv_backward;
  std::vector<BatchedRow> batched;
  std::vector<ShardedRow> sharded;
  std::vector<Trans1Row> trans1;
  std::vector<TrainRoundRow> train_round;
  std::vector<ParticipationRow> participation;
  std::vector<ChannelRow> channel;
};

struct ConvShapeSpec {
  const char* label;
  std::size_t in_c, out_c, h, w, k, stride, pad;
};

// The DroneNav perception stack (input 3x18x32) plus one scaled-up shape
// to show the kernels hold up beyond the paper's sizes.
const ConvShapeSpec kConvShapes[] = {
    {"drone conv0 3->6 k4 s3 (3x18x32)", 3, 6, 18, 32, 4, 3, 0},
    {"drone conv1 6->12 k3 s2 (6x5x10)", 6, 12, 5, 10, 3, 2, 0},
    {"drone conv2 12->16 k2 s1 (12x2x4)", 12, 16, 2, 4, 2, 1, 0},
    {"scaled 16->32 k3 s1 p1 (16x32x32)", 16, 32, 32, 32, 3, 1, 1},
};

double conv_forward_flops(const ConvShapeSpec& s, const Conv2D& conv) {
  const double taps = static_cast<double>(s.in_c) *
                      static_cast<double>(s.k) * static_cast<double>(s.k);
  const double outs = static_cast<double>(s.out_c) *
                      static_cast<double>(conv.out_extent(s.h)) *
                      static_cast<double>(conv.out_extent(s.w));
  return 2.0 * taps * outs;  // multiply + add per tap per output
}

void bench_conv(double min_time, Report& report) {
  std::printf("\n== Conv2D forward: naive loops vs im2col+GEMM ==\n");
  std::printf("%-36s %12s %12s %8s\n", "shape", "naive GF/s", "gemm GF/s",
              "speedup");
  double worst = 1e300;
  double stack_naive = 0.0, stack_gemm = 0.0;
  for (const auto& s : kConvShapes) {
    Rng rng(1);
    Conv2D conv(s.in_c, s.out_c, s.k, s.stride, s.pad, rng, "bench");
    Rng xr(2);
    const Tensor x =
        Tensor::random_uniform({s.in_c, s.h, s.w}, xr, -1.0f, 1.0f);
    const double t_naive =
        time_per_call(min_time, [&] { conv.forward_naive(x); });
    const double t_gemm = time_per_call(min_time, [&] { conv.forward(x); });
    const double flops = conv_forward_flops(s, conv);
    const double speedup = t_naive / t_gemm;
    worst = std::min(worst, speedup);
    if (std::strncmp(s.label, "drone", 5) == 0) {
      stack_naive += t_naive;
      stack_gemm += t_gemm;
    }
    report.conv_forward.push_back(
        {s.label, flops / t_naive / 1e9, flops / t_gemm / 1e9, speedup});
    std::printf("%-36s %12.3f %12.3f %7.2fx\n", s.label, flops / t_naive / 1e9,
                flops / t_gemm / 1e9, speedup);
  }
  std::printf("drone conv stack (policy forward): %.1f us -> %.1f us, %.2fx\n",
              stack_naive * 1e6, stack_gemm * 1e6, stack_naive / stack_gemm);
  std::printf("worst-case conv forward speedup: %.2fx %s\n", worst,
              worst >= 5.0 ? "(target >=5x: PASS)" : "(target >=5x)");

  std::printf("\n== Conv2D backward: naive loops vs GEMM/col2im ==\n");
  std::printf("%-36s %12s %12s %8s\n", "shape", "naive ms", "gemm ms",
              "speedup");
  for (const auto& s : kConvShapes) {
    Rng rng(3);
    Conv2D conv(s.in_c, s.out_c, s.k, s.stride, s.pad, rng, "bench");
    Rng xr(4);
    const Tensor x =
        Tensor::random_uniform({s.in_c, s.h, s.w}, xr, -1.0f, 1.0f);
    const Tensor g = Tensor::random_uniform(
        {s.out_c, conv.out_extent(s.h), conv.out_extent(s.w)}, xr, -1.0f, 1.0f);
    const double t_naive =
        time_per_call(min_time, [&] { conv.backward_naive(x, g); });
    conv.forward(x);
    const double t_gemm = time_per_call(min_time, [&] { conv.backward(g); });
    report.conv_backward.push_back(
        {s.label, t_naive * 1e3, t_gemm * 1e3, t_naive / t_gemm});
    std::printf("%-36s %12.4f %12.4f %7.2fx\n", s.label, t_naive * 1e3,
                t_gemm * 1e3, t_naive / t_gemm);
  }
}

// Batched-inference sweep at the drone policy shapes: B independent
// single-sample forwards vs one rank-4 forward_batch over the same inputs.
void bench_batched(double min_time, Report& report) {
  std::printf(
      "\n== Batched inference: B single forwards vs one forward_batch ==\n");
  std::printf("(drone policy 3-Conv + 2-FC, per-sample microseconds)\n");
  std::printf("%-8s %14s %14s %8s\n", "batch", "single us", "batched us",
              "speedup");
  Rng rng(9);
  Network net = make_drone_policy(rng);
  double b64_speedup = 0.0;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}, std::size_t{64}}) {
    Rng xr(10);
    const Tensor xb =
        Tensor::random_uniform({batch, 3, 18, 32}, xr, 0.0f, 1.0f);
    std::vector<Tensor> samples;
    for (std::size_t b = 0; b < batch; ++b) {
      Tensor s({3, 18, 32});
      std::copy_n(xb.data().begin() + static_cast<std::ptrdiff_t>(b * s.size()),
                  s.size(), s.data().begin());
      samples.push_back(std::move(s));
    }
    const double t_single = time_per_call(min_time, [&] {
      for (const Tensor& s : samples) net.forward(s);
    });
    const double t_batch =
        time_per_call(min_time, [&] { net.forward_batch(xb, batch); });
    const double speedup = t_single / t_batch;
    if (batch == 64) b64_speedup = speedup;
    report.batched.push_back({batch,
                              t_single * 1e6 / static_cast<double>(batch),
                              t_batch * 1e6 / static_cast<double>(batch),
                              speedup});
    std::printf("%-8zu %14.2f %14.2f %7.2fx\n", batch,
                t_single * 1e6 / static_cast<double>(batch),
                t_batch * 1e6 / static_cast<double>(batch), speedup);
  }
  std::printf("B=64 batched speedup: %.2fx %s\n", b64_speedup,
              b64_speedup >= 3.0 ? "(target >=3x: PASS)" : "(target >=3x)");
}

// Multi-core sharded inference: one forward_batch split into per-lane
// sub-batches across a ThreadPool (drone policy shapes). Wall-clock gains
// need real cores.
void bench_sharded(double min_time, Report& report) {
  std::printf(
      "\n== Sharded batched inference: forward_batch over the thread pool "
      "==\n");
  std::printf(
      "(drone policy, B x threads sweep, microseconds per whole-batch call)\n");
  std::printf("%-8s %8s %8s %14s %10s\n", "batch", "threads", "shards",
              "us/call", "speedup");
  Rng rng(11);
  Network net = make_drone_policy(rng);
  for (const std::size_t batch : {std::size_t{16}, std::size_t{64}}) {
    Rng xr(12);
    const Tensor xb =
        Tensor::random_uniform({batch, 3, 18, 32}, xr, 0.0f, 1.0f);
    double t_one_thread = 0.0;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      // The planner's cost model may decline the split entirely (each
      // shard must carry >= kBatchShardMinPerShard rows); a declined
      // config runs the unsharded path verbatim, so measuring it again
      // under a pool would just re-time the 1-thread row.
      const std::size_t shards = batch_shard_count(batch, threads);
      if (threads > 1 && shards <= 1) {
        std::printf("%-8zu %8zu %8s %14s\n", batch, threads, "--",
                    "(declined)");
        continue;
      }
      ThreadPool pool(threads);
      const double t = time_per_call(
          min_time, [&] { net.forward_batch(xb, batch, &pool); });
      if (threads == 1) t_one_thread = t;
      const double speedup = t_one_thread / t;
      report.sharded.push_back({batch, threads, shards, t * 1e6, speedup});
      std::printf("%-8zu %8zu %8zu %14.2f %9.2fx\n", batch, threads, shards,
                  t * 1e6, speedup);
    }
  }
}

// Trans-1 evaluation step at the drone policy: every agent takes one
// corrupted weight read — a sparse overlay against the shared deployed
// image per agent, then ONE forward_batch where each lane reads its own
// corrupted weights through a view.
void bench_trans1(double min_time, Report& report) {
  std::printf("\n== Batched Trans-1: per-lane weight-view overlays ==\n");
  std::printf(
      "(drone policy, Q(1,7,8), every agent striking in one decision step, "
      "microseconds per step)\n");
  std::printf("%-8s %12s %14s\n", "agents", "overlay us", "overlay B/lane");
  Rng rng(13);
  Network net = make_drone_policy(rng);
  const DeployedWeights deployed = DeployedWeights::fixed_point_image(
      net.flat_parameters(), FixedPointFormat::q1_7_8());
  FaultSpec spec;
  spec.model = FaultModel::TransientSingleStep;
  spec.ber = 1e-3;
  for (const std::size_t agents : {std::size_t{4}, std::size_t{16}}) {
    Rng xr(14);
    const Tensor xb =
        Tensor::random_uniform({agents, 3, 18, 32}, xr, 0.0f, 1.0f);
    // The per-strike RNG stream is (seed, agent)-derived, as a campaign's
    // per-(agent, trial) streams are.
    std::vector<WeightOverlay> overlays(agents);
    std::vector<WeightView> views(agents);
    std::vector<const WeightView*> lane_views(agents);
    const double t_overlay = time_per_call(min_time, [&] {
      for (std::size_t a = 0; a < agents; ++a) {
        Rng strike = Rng(99).split(a);
        deployed.inject(spec, strike, overlays[a]);
        views[a] = deployed.view(&overlays[a]);
        lane_views[a] = &views[a];
      }
      net.forward_batch(xb, agents, nullptr, lane_views);
    });
    // Per-lane fault state: the sparse (index, value) list alone.
    std::size_t entries = 0;
    for (const WeightOverlay& o : overlays) entries += o.size();
    const std::size_t overlay_bytes =
        entries * (sizeof(std::size_t) + sizeof(float)) / agents;
    report.trans1.push_back({agents, t_overlay * 1e6, overlay_bytes});
    std::printf("%-8zu %12.2f %14zu\n", agents, t_overlay * 1e6,
                overlay_bytes);
  }
}

// GridWorld train() through the round engine at several per-agent episode
// fan-outs: episodes/sec. Wall-clock scaling needs real cores.
void bench_train_round(bool quick, Report& report) {
  std::printf(
      "\n== Federated training rounds: train() episodes/sec vs engine "
      "threads ==\n");
  std::printf("(gridworld, 12 agents, comm every episode)\n");
  std::printf("%-8s %8s %16s %10s\n", "agents", "threads", "episodes/s",
              "speedup");
  const std::size_t agents = 12;
  const std::size_t episodes = quick ? 12 : 60;
  double serial_eps = 0.0;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    GridWorldFrlSystem::Config cfg;
    cfg.n_agents = agents;
    cfg.channel_ber = 1e-3;
    cfg.threads = threads;
    GridWorldFrlSystem sys(cfg, 77);
    const auto t0 = Clock::now();
    sys.train(episodes);
    const double eps = static_cast<double>(episodes) / seconds_since(t0);
    if (threads == 1) serial_eps = eps;
    report.train_round.push_back(
        {agents, threads, eps, eps / serial_eps});
    std::printf("%-8zu %8zu %16.1f %9.2fx\n", agents, threads, eps,
                eps / serial_eps);
  }
}

// The degraded-participation plane: a busy degraded communicate_round
// (dropout + straggler + screened Byzantine row) timed against the
// all-Present round a plan-free engine runs (post-aggregate hook on) at
// the same shapes, both serial.
void bench_participation(double min_time, Report& report) {
  std::printf(
      "\n== Degraded participation: degraded vs all-Present "
      "communicate_round ==\n");
  std::printf("(gridworld-policy dim, BER 1e-2, microseconds per round)\n");
  std::printf("%-8s %8s %12s %12s\n", "agents", "dim", "present us",
              "degraded us");
  Rng prng(41);
  const Network policy = make_gridworld_policy(prng);
  const std::size_t dim = policy.parameter_count();
  for (const std::size_t agents : {std::size_t{4}, std::size_t{12}}) {
    std::vector<float> base(agents * dim);
    Rng wrng(42);
    for (auto& v : base) v = static_cast<float>(wrng.uniform(-0.5, 0.5));

    const AlphaSchedule schedule(agents, 0.5);
    std::vector<float> matrix(agents * dim);

    const std::vector<AgentRoundStatus> present(agents,
                                                AgentRoundStatus::Present);
    std::vector<std::size_t> everyone(agents);
    for (std::size_t i = 0; i < agents; ++i) everyone[i] = i;
    ParameterServer full_server(agents, dim, schedule);
    full_server.channel().set_bit_error_rate(1e-2);
    Rng full_rng(43);
    const double t_full = time_per_call(min_time, [&] {
      std::copy(base.begin(), base.end(), matrix.begin());
      full_server.communicate_round(matrix, everyone, present,
                                    ParameterServer::RobustRoundOptions{},
                                    full_rng, /*run_post_hook=*/true);
    });

    // A busy degraded round: agent 0 dropped (it sends nothing, so the
    // compact sender matrix holds agents 1..n-1), agent 1 straggling,
    // agent 2 a screened Byzantine row, L2 screen armed.
    std::vector<AgentRoundStatus> degraded(agents, AgentRoundStatus::Present);
    degraded[0] = AgentRoundStatus::Dropped;
    degraded[1] = AgentRoundStatus::Straggler;
    degraded[2] = AgentRoundStatus::Byzantine;
    std::vector<std::size_t> senders;
    for (std::size_t i = 1; i < agents; ++i) senders.push_back(i);
    ParameterServer::RobustRoundOptions screen_opts;
    screen_opts.screening.l2_norm = true;
    screen_opts.screening.l2_factor = 3.0;
    ParameterServer deg_server(agents, dim, schedule);
    deg_server.channel().set_bit_error_rate(1e-2);
    Rng deg_rng(43);
    std::vector<float> compact(senders.size() * dim);
    const double t_deg = time_per_call(min_time, [&] {
      std::copy(base.begin() + static_cast<std::ptrdiff_t>(dim), base.end(),
                compact.begin());
      for (std::size_t d = 0; d < dim; ++d)  // agent 2: screened garbage
        compact[1 * dim + d] = (d % 2) ? 50.0f : -50.0f;
      deg_server.communicate_round(compact, senders, degraded, screen_opts,
                                   deg_rng, /*run_post_hook=*/false);
    });

    report.participation.push_back({agents, dim, t_full * 1e6, t_deg * 1e6});
    std::printf("%-8zu %8zu %12.2f %12.2f\n", agents, dim, t_full * 1e6,
                t_deg * 1e6);
  }
}

// A stormy Gilbert-Elliott channel: bursts and erasures.
BurstyChannelConfig stormy_channel() {
  BurstyChannelConfig stormy;
  stormy.active = true;
  stormy.ber_good = 1e-4;
  stormy.ber_bad = 0.05;
  stormy.p_good_to_bad = 0.2;
  stormy.p_bad_to_good = 0.25;
  stormy.erasure_rate = 0.05;
  stormy.chunk_elems = 16;
  return stormy;
}

// The channel-reliability plane: transmit_rows under the i.i.d. path, a
// stormy Gilbert-Elliott burst config, and the checksum/retry upload
// protocol at the same shapes.
void bench_channel_reliability(double min_time, Report& report) {
  std::printf(
      "\n== Channel reliability: bursty plane vs i.i.d. channel ==\n");
  std::printf(
      "(gridworld-policy dim, i.i.d. BER 1e-2, microseconds per round)\n");
  std::printf("%-8s %8s %12s %12s %12s\n", "agents", "dim", "iid us",
              "bursty us", "reliable us");
  Rng prng(41);
  const Network policy = make_gridworld_policy(prng);
  const std::size_t dim = policy.parameter_count();
  const BurstyChannelConfig stormy = stormy_channel();

  for (const std::size_t agents : {std::size_t{4}, std::size_t{12}}) {
    std::vector<float> base(agents * dim);
    Rng wrng(42);
    for (auto& v : base) v = static_cast<float>(wrng.uniform(-0.5, 0.5));
    std::vector<float> matrix(agents * dim);
    const auto reload = [&] {
      std::copy(base.begin(), base.end(), matrix.begin());
    };

    CommChannel iid(1e-2);
    Rng iid_rng(43);
    const double t_iid = time_per_call(min_time, [&] {
      reload();
      iid.transmit_rows(matrix.data(), agents, dim, iid_rng);
    });

    CommChannel burst;
    burst.set_bursty(stormy);
    Rng burst_rng(43);
    const double t_burst = time_per_call(min_time, [&] {
      reload();
      burst.transmit_rows(matrix.data(), agents, dim, burst_rng);
    });

    UploadProtocolConfig proto;
    proto.enabled = true;
    proto.max_retries = 2;
    CommChannel rel;
    rel.set_bursty(stormy);
    Rng rel_rng(43);
    const double t_rel = time_per_call(min_time, [&] {
      reload();
      for (std::size_t i = 0; i < agents; ++i)
        rel.transmit_reliable(matrix.data() + i * dim, dim, rel_rng, proto);
    });

    report.channel.push_back(
        {agents, dim, t_iid * 1e6, t_burst * 1e6, t_rel * 1e6});
    std::printf("%-8zu %8zu %12.2f %12.2f %12.2f\n", agents, dim,
                t_iid * 1e6, t_burst * 1e6, t_rel * 1e6);
  }
}

// Emit `"key": [...]` with one row object per line; `print_row` writes the
// object's fields.
template <typename Row, typename PrintRow>
void write_array(std::FILE* f, const char* key, const std::vector<Row>& rows,
                 PrintRow&& print_row) {
  std::fprintf(f, "  \"%s\": [\n", key);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    {");
    print_row(rows[i]);
    std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
}

// Emit the collected measurements as JSON (hand-rolled: flat schema, ASCII
// labels only) so CI and future changes can diff kernel performance.
void write_json(const Report& r, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"mode\": \"%s\",\n", r.quick ? "quick" : "full");
  write_array(f, "conv_forward", r.conv_forward, [&](const ConvRow& row) {
    std::fprintf(f,
                 "\"shape\": \"%s\", \"naive_gflops\": %.4f, "
                 "\"gemm_gflops\": %.4f, \"speedup\": %.3f",
                 row.label.c_str(), row.naive_gfs, row.gemm_gfs, row.speedup);
  });
  write_array(f, "conv_backward", r.conv_backward,
              [&](const BackwardRow& row) {
                std::fprintf(f,
                             "\"shape\": \"%s\", \"naive_ms\": %.5f, "
                             "\"gemm_ms\": %.5f, \"speedup\": %.3f",
                             row.label.c_str(), row.naive_ms, row.gemm_ms,
                             row.speedup);
              });
  write_array(f, "batched_inference", r.batched, [&](const BatchedRow& row) {
    std::fprintf(f,
                 "\"batch\": %zu, \"single_us_per_sample\": %.4f, "
                 "\"batched_us_per_sample\": %.4f, \"speedup\": %.3f",
                 row.batch, row.single_us, row.batched_us, row.speedup);
  });
  write_array(f, "sharded_inference", r.sharded, [&](const ShardedRow& row) {
    std::fprintf(f,
                 "\"batch\": %zu, \"threads\": %zu, \"shards\": %zu, "
                 "\"us_per_call\": %.4f, \"speedup_vs_1thread\": %.3f",
                 row.batch, row.threads, row.shards, row.us, row.speedup);
  });
  write_array(f, "trans1_batched", r.trans1, [&](const Trans1Row& row) {
    std::fprintf(f,
                 "\"agents\": %zu, \"overlay_us_per_step\": %.4f, "
                 "\"overlay_bytes_per_lane\": %zu",
                 row.agents, row.overlay_us, row.overlay_bytes);
  });
  write_array(f, "train_round", r.train_round, [&](const TrainRoundRow& row) {
    std::fprintf(f,
                 "\"agents\": %zu, \"threads\": %zu, "
                 "\"episodes_per_s\": %.2f, \"speedup_vs_1thread\": %.3f",
                 row.agents, row.threads, row.episodes_per_s, row.speedup);
  });
  write_array(f, "participation", r.participation,
              [&](const ParticipationRow& row) {
                std::fprintf(f,
                             "\"agents\": %zu, \"dim\": %zu, "
                             "\"all_present_us\": %.4f, "
                             "\"degraded_round_us\": %.4f",
                             row.agents, row.dim, row.all_present_us,
                             row.degraded_us);
              });
  write_array(f, "channel_reliability", r.channel, [&](const ChannelRow& row) {
    std::fprintf(f,
                 "\"agents\": %zu, \"dim\": %zu, \"iid_us\": %.4f, "
                 "\"bursty_us\": %.4f, \"reliable_us\": %.4f",
                 row.agents, row.dim, row.iid_us, row.bursty_us,
                 row.reliable_us);
  });
  std::fprintf(f, "  \"hardware_threads\": %u\n}\n",
               std::thread::hardware_concurrency());
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace
}  // namespace frlfi

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  const double min_time = quick ? 0.02 : 0.25;

  std::printf("frlfi kernel bench (%s mode)\n", quick ? "quick" : "full");
  frlfi::Report report;
  report.quick = quick;
  frlfi::bench_conv(min_time, report);
  frlfi::bench_batched(min_time, report);
  frlfi::bench_sharded(min_time, report);
  frlfi::bench_trans1(min_time, report);
  frlfi::bench_train_round(quick, report);
  frlfi::bench_participation(min_time, report);
  frlfi::bench_channel_reliability(min_time, report);
  if (std::thread::hardware_concurrency() <= 1)
    std::printf(
        "note: single-core host — the sharded and train() sections "
        "cannot show wall-clock speedup here.\n");
  frlfi::write_json(report, "BENCH_kernels.json");
  return 0;
}
