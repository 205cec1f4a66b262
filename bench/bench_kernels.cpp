/// \file bench_kernels.cpp
/// Before/after report for the compute-kernel layer:
///  * Conv2D forward/backward: naive 7-deep loops vs im2col + blocked GEMM
///    at the paper's DroneNav policy shapes (GFLOP/s and speedup),
///  * Tensor::matmul GFLOP/s at small/medium shapes,
///  * batched inference: B single-sample policy forwards vs one
///    Network::forward_batch at B in {1,4,16,64} on the drone policy,
///  * int8-native inference: the deployed int8 image executed through the
///    quant kernels (forward_batch_quant) vs the float plane at the same
///    drone-policy shapes, with a tolerance gate locking
///    the int8 logits to the float shadow of the same deployed image,
///  * sharded batched inference: a B x threads sweep of forward_batch
///    split across a ThreadPool, with a bit-identity check against the
///    unsharded forward (wall-clock speedup needs multi-core hardware),
///  * batched Trans-1: one corrupted read per agent, old per-lane
///    clone+mutate+restore vs the overlay plane (per-lane weight views
///    through one grouped forward_batch), with a bit-identity check and
///    the per-lane memory footprint of both,
///  * federated round: the batched server round (preallocated row matrix
///    through transmit_rows/smoothing_average_rows) vs the legacy
///    vector-of-vectors path with fresh per-round upload vectors, plus
///    GridWorld train() episode throughput at several engine thread
///    counts — both with bit-identity gates (batched round == scalar
///    round; parallel train == serial train),
///  * degraded participation: a busy degraded communicate_round vs the
///    synchronous communicate_rows at the same shapes (serial rounds), with
///    one bit-identity gate — train() under an active all-present plan
///    must equal the plan-free train,
///  * channel reliability: transmit_rows under the i.i.d. golden path vs
///    the Gilbert-Elliott burst plane vs the checksum/retry upload
///    protocol, with two bit-identity gates (degenerate burst config ==
///    i.i.d. channel including RNG stream position, zero-retry protocol
///    round == plain round),
///  * fleet rounds: the round engine at n_agents in {64, 512, 4096} with
///    the fleet server path armed (parallel per-(seq, row) channel,
///    pool-parallel aggregation, participant-compacted round storage,
///    cadence ~10% participation) — rounds/sec, bytes/round, and two
///    exit-code gates: server_threads {1, 2, 7} bit-identical, and round
///    buffers scaling with participants rather than the fleet roster,
///  * run_campaign trials/sec: serial vs parallel lanes on a synthetic
///    1000-trial campaign, with a bit-identity check on the stats.
///
/// Every run also emits the measurements as machine-readable JSON to
/// BENCH_kernels.json in the working directory, so the perf trajectory is
/// trackable across commits.
///
/// Flags: --quick (CI smoke: fewer reps/trials), --threads=N (parallel lane
/// count; default 4 or FRLFI_NUM_THREADS), --trials=N (campaign size).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/parallel.hpp"
#include "fault/injector.hpp"
#include "fault/overlay.hpp"
#include "federated/round_engine.hpp"
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
struct MatmulRow {
  std::string label;
  double gfs = 0.0;
};
struct BatchedRow {
  std::size_t batch = 0;
  double single_us = 0.0, batched_us = 0.0, speedup = 0.0;
};
struct Int8Row {
  std::size_t batch = 0;
  double float_us = 0.0, int8_us = 0.0, speedup = 0.0;
  bool within_tol = false;  // int8 logits within quant tolerance of shadow
};
struct CampaignRow {
  std::size_t trials = 0, threads = 0;
  double serial_tps = 0.0, parallel_tps = 0.0;
  bool identical = false;
};
struct ShardedRow {
  std::size_t batch = 0, threads = 0, shards = 0;
  double us = 0.0, speedup = 0.0;  // vs the same batch on 1 thread
  bool identical = false;          // bit-identical to the unsharded forward
};
struct Trans1Row {
  std::size_t agents = 0;
  double clone_us = 0.0, overlay_us = 0.0, speedup = 0.0;
  std::size_t clone_bytes = 0, overlay_bytes = 0;  // per-lane fault state
  bool identical = false;  // overlay logits == clone-and-mutate logits
};
struct ServerRoundRow {
  std::size_t agents = 0, dim = 0;
  double vov_us = 0.0, rows_us = 0.0, speedup = 0.0;
  bool identical = false;  // batched round == scalar vector round
};
struct TrainRoundRow {
  std::size_t agents = 0, threads = 0;
  double episodes_per_s = 0.0, speedup = 0.0;  // vs threads = 1
  bool identical = false;  // final params == serial train
};
struct ParticipationRow {
  std::size_t agents = 0, dim = 0;
  double rows_us = 0.0, degraded_us = 0.0;
};
struct ChannelRow {
  std::size_t agents = 0, dim = 0;
  double iid_us = 0.0, bursty_us = 0.0, reliable_us = 0.0;
  bool identical = false;  // degenerate Gilbert-Elliott == i.i.d. rows
};
struct FleetRow {
  std::size_t agents = 0, dim = 0;
  double rounds_per_s = 0.0, bytes_per_round = 0.0;
  std::size_t round_buffer_bytes = 0, full_matrix_bytes = 0;
  bool mem_ok = false;     // round buffers < full-fleet matrix / 4
  bool identical = false;  // server_threads 1 == 2 == 7, seq+stats included
};
struct Report {
  bool quick = false;
  std::vector<ConvRow> conv_forward;
  std::vector<BackwardRow> conv_backward;
  std::vector<MatmulRow> matmul;
  std::vector<BatchedRow> batched;
  std::vector<Int8Row> int8_inference;
  double int8_max_abs_diff = 0.0;  // vs the float shadow, across all rows
  std::vector<ShardedRow> sharded;
  std::vector<Trans1Row> trans1;
  std::vector<ServerRoundRow> server_round;
  std::vector<TrainRoundRow> train_round;
  std::vector<ParticipationRow> participation;
  bool participation_train_identical = false;  // full plan == plan-free train
  std::vector<ChannelRow> channel;
  bool channel_zero_retry_identical = false;  // zero-retry round == plain
  std::vector<FleetRow> fleet;
  CampaignRow campaign;
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
    conv.forward(x);
    const double t_naive =
        time_per_call(min_time, [&] { conv.backward_naive(g); });
    const double t_gemm = time_per_call(min_time, [&] { conv.backward(g); });
    report.conv_backward.push_back(
        {s.label, t_naive * 1e3, t_gemm * 1e3, t_naive / t_gemm});
    std::printf("%-36s %12.4f %12.4f %7.2fx\n", s.label, t_naive * 1e3,
                t_gemm * 1e3, t_naive / t_gemm);
  }
}

void bench_matmul(double min_time, Report& report) {
  std::printf("\n== Tensor::matmul (blocked GEMM) ==\n");
  std::printf("%-36s %12s\n", "shape", "GF/s");
  const std::size_t sizes[][3] = {
      {25, 48, 1}, {64, 64, 64}, {128, 256, 128}, {256, 256, 256}};
  for (const auto& d : sizes) {
    Rng rng(5);
    const Tensor a = Tensor::random_uniform({d[0], d[1]}, rng, -1.0f, 1.0f);
    const Tensor b = Tensor::random_uniform({d[1], d[2]}, rng, -1.0f, 1.0f);
    const double t = time_per_call(min_time, [&] { Tensor::matmul(a, b); });
    const double flops = 2.0 * static_cast<double>(d[0]) *
                         static_cast<double>(d[1]) *
                         static_cast<double>(d[2]);
    char label[64];
    std::snprintf(label, sizeof label, "%zux%zu * %zux%zu", d[0], d[1], d[1],
                  d[2]);
    report.matmul.push_back({label, flops / t / 1e9});
    std::printf("%-36s %12.3f\n", label, flops / t / 1e9);
  }
}

// Batched-inference sweep at the drone policy shapes: B independent
// single-sample forwards vs one rank-4 forward_batch over the same inputs.
// Returns the B=64 speedup (the acceptance gate for the batching layer).
double bench_batched(double min_time, Report& report) {
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
  return b64_speedup;
}

// Int8-native inference at the drone policy: the deployed int8 image
// executed through the quant kernels vs the float plane over the same
// inputs. The gate locks every int8 logit to the float SHADOW of the same
// image (views over the dequantized words) within the quantization
// tolerance — weight quantization error is identical on both planes, so
// the residual is per-layer activation rounding alone (observed max
// ~0.005; see tests/test_quant_forward.cpp for the matching lock).
bool bench_int8_inference(double min_time, Report& report) {
  constexpr float kTol = 0.05f;
  std::printf(
      "\n== Int8-native inference: float plane vs deployed int8 image ==\n");
  std::printf("(drone policy, per-sample microseconds, headroom 2)\n");
  std::printf("%-8s %14s %14s %8s %12s\n", "batch", "float us", "int8 us",
              "speedup", "within tol");
  Rng rng(15);
  Network net = make_drone_policy(rng);
  const DeployedWeights deployed =
      DeployedWeights::int8_image(net.flat_parameters(), 2.0f);
  const QuantWeightView qview = deployed.quant_view(nullptr);
  const WeightView fview = deployed.view(nullptr);
  bool all_within = true;
  for (const std::size_t batch : {std::size_t{1}, std::size_t{4},
                                  std::size_t{16}, std::size_t{64}}) {
    Rng xr(16);
    const Tensor xb =
        Tensor::random_uniform({batch, 3, 18, 32}, xr, 0.0f, 1.0f);
    double t_float = 0.0;
    if (batch == 1) {
      Tensor obs({3, 18, 32});
      std::copy_n(xb.data().begin(), obs.size(), obs.data().begin());
      t_float = time_per_call(min_time, [&] { net.forward(obs); });
    } else {
      t_float =
          time_per_call(min_time, [&] { net.forward_batch(xb, batch); });
    }
    const double t_int8 = time_per_call(
        min_time, [&] { net.forward_batch_quant(xb, batch, qview); });
    // Tolerance gate: int8 logits vs the float shadow of the SAME image.
    const std::vector<const WeightView*> shadow_views(batch, &fview);
    const Tensor shadow = net.forward_batch(xb, batch, nullptr, shadow_views);
    const Tensor qout = net.forward_batch_quant(xb, batch, qview);
    float maxd = 0.0f;
    for (std::size_t i = 0; i < qout.size(); ++i)
      maxd = std::max(maxd, std::abs(qout[i] - shadow[i]));
    report.int8_max_abs_diff =
        std::max(report.int8_max_abs_diff, static_cast<double>(maxd));
    const bool within = maxd < kTol;
    all_within = all_within && within;
    report.int8_inference.push_back(
        {batch, t_float * 1e6 / static_cast<double>(batch),
         t_int8 * 1e6 / static_cast<double>(batch), t_float / t_int8,
         within});
    std::printf("%-8zu %14.2f %14.2f %7.2fx %12s\n", batch,
                t_float * 1e6 / static_cast<double>(batch),
                t_int8 * 1e6 / static_cast<double>(batch), t_float / t_int8,
                within ? "YES" : "NO  <-- BUG");
  }
  std::printf("max |int8 - float shadow| across rows: %.6f (gate < %.2f)\n",
              report.int8_max_abs_diff, static_cast<double>(kTol));
  return all_within;
}

// Multi-core sharded inference: one forward_batch split into per-lane
// sub-batches across a ThreadPool (drone policy shapes). Wall-clock gains
// need real cores; bit-identity to the unsharded forward is checked (and
// must hold) everywhere.
bool bench_sharded(double min_time, Report& report) {
  std::printf(
      "\n== Sharded batched inference: forward_batch over the thread pool "
      "==\n");
  std::printf(
      "(drone policy, B x threads sweep, microseconds per whole-batch call)\n");
  std::printf("%-8s %8s %8s %14s %10s %14s\n", "batch", "threads", "shards",
              "us/call", "speedup", "bit-identical");
  Rng rng(11);
  Network net = make_drone_policy(rng);
  bool all_identical = true;
  for (const std::size_t batch : {std::size_t{16}, std::size_t{64}}) {
    Rng xr(12);
    const Tensor xb =
        Tensor::random_uniform({batch, 3, 18, 32}, xr, 0.0f, 1.0f);
    const Tensor serial = net.forward_batch(xb, batch);
    double t_one_thread = 0.0;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      // The planner's cost model may decline the split entirely (each
      // shard must carry >= kBatchShardMinPerShard rows); a declined
      // config runs the unsharded path verbatim, so measuring it again
      // under a pool would just re-time the 1-thread row.
      const std::size_t shards = batch_shard_count(batch, threads);
      if (threads > 1 && shards <= 1) {
        std::printf("%-8zu %8zu %8s %14s %10s %14s\n", batch, threads,
                    "--", "(declined)", "", "");
        continue;
      }
      ThreadPool pool(threads);
      const double t = time_per_call(
          min_time, [&] { net.forward_batch(xb, batch, &pool); });
      if (threads == 1) t_one_thread = t;
      const Tensor sharded = net.forward_batch(xb, batch, &pool);
      bool identical = sharded.shape() == serial.shape();
      for (std::size_t i = 0; identical && i < serial.size(); ++i)
        identical = sharded[i] == serial[i];
      all_identical = all_identical && identical;
      const double speedup = t_one_thread / t;
      report.sharded.push_back({batch, threads, shards, t * 1e6, speedup,
                                identical});
      std::printf("%-8zu %8zu %8zu %14.2f %9.2fx %14s\n", batch, threads,
                  shards, t * 1e6, speedup, identical ? "YES" : "NO  <-- BUG");
    }
  }
  if (std::thread::hardware_concurrency() <= 1)
    std::printf(
        "note: single-core container — sharding cannot show wall-clock "
        "speedup here; bit-identity is the asserted property.\n");
  return all_identical;
}

// Trans-1 evaluation step at the drone policy: every agent takes one
// corrupted weight read. Old path — per agent, snapshot + in-place
// fixed-point corruption + restore on a private clone, then B serial
// forwards. New path — per agent, a sparse overlay against the shared
// deployed image, then ONE forward_batch where each lane reads its own
// corrupted weights through a view. Logits must agree bit-for-bit.
bool bench_trans1(double min_time, Report& report) {
  std::printf(
      "\n== Batched Trans-1: per-lane clone+mutate (old) vs weight-view "
      "overlays (new) ==\n");
  std::printf(
      "(drone policy, every agent striking in one decision step, "
      "microseconds per step)\n");
  std::printf("%-8s %12s %12s %8s %12s %14s %14s\n", "agents", "clone us",
              "overlay us", "speedup", "clone B/lane", "overlay B/lane",
              "bit-identical");
  Rng rng(13);
  Network net = make_drone_policy(rng);
  const std::vector<float> clean = net.flat_parameters();
  const FixedPointFormat format = FixedPointFormat::q1_7_8();
  const DeployedWeights deployed =
      DeployedWeights::fixed_point_image(clean, format);
  FaultSpec spec;
  spec.model = FaultModel::TransientSingleStep;
  spec.ber = 1e-3;
  bool all_identical = true;
  for (const std::size_t agents : {std::size_t{4}, std::size_t{16}}) {
    Rng xr(14);
    const Tensor xb =
        Tensor::random_uniform({agents, 3, 18, 32}, xr, 0.0f, 1.0f);
    const std::size_t sample = 3 * 18 * 32;

    // Old path. The per-strike RNG stream is (seed, agent)-derived, as a
    // campaign's per-(agent, trial) streams are.
    Network lane = net.clone();
    std::vector<Tensor> clone_logits(agents);
    const auto run_clone_path = [&] {
      for (std::size_t a = 0; a < agents; ++a) {
        Tensor obs({3, 18, 32});
        std::copy_n(
            xb.data().begin() + static_cast<std::ptrdiff_t>(a * sample),
            sample, obs.data().begin());
        WeightRestoreGuard guard(lane);
        std::vector<float> flat = lane.flat_parameters();
        Rng strike = Rng(99).split(a);
        inject_fixed_point(flat, format, spec, strike);
        lane.set_flat_parameters(flat);
        clone_logits[a] = lane.forward(obs);
      }
    };
    const double t_clone = time_per_call(min_time, run_clone_path);

    // New path: same strikes as overlays, one grouped batched forward.
    std::vector<WeightOverlay> overlays(agents);
    std::vector<WeightView> views(agents);
    std::vector<const WeightView*> lane_views(agents);
    Tensor overlay_logits;
    std::size_t overlay_entries = 0;
    const auto run_overlay_path = [&] {
      for (std::size_t a = 0; a < agents; ++a) {
        Rng strike = Rng(99).split(a);
        deployed.inject(spec, strike, overlays[a]);
        views[a] = deployed.view(&overlays[a]);
        lane_views[a] = &views[a];
      }
      overlay_logits = net.forward_batch(xb, agents, nullptr, lane_views);
    };
    const double t_overlay = time_per_call(min_time, run_overlay_path);
    for (std::size_t a = 0; a < agents; ++a)
      overlay_entries += overlays[a].size();

    const std::size_t width = overlay_logits.size() / agents;
    bool identical = true;
    for (std::size_t a = 0; a < agents && identical; ++a)
      for (std::size_t j = 0; j < width && identical; ++j)
        identical = overlay_logits[a * width + j] == clone_logits[a][j];
    all_identical = all_identical && identical;

    // Per-lane fault state: the old path pins a full parameter clone (plus
    // the restore snapshot) per concurrent lane; the overlay is the sparse
    // (index, value) list alone.
    const std::size_t clone_bytes = clean.size() * sizeof(float) * 2;
    const std::size_t overlay_bytes =
        overlay_entries == 0
            ? 0
            : (overlay_entries * (sizeof(std::size_t) + sizeof(float))) /
                  agents;
    report.trans1.push_back({agents, t_clone * 1e6, t_overlay * 1e6,
                             t_clone / t_overlay, clone_bytes, overlay_bytes,
                             identical});
    std::printf("%-8zu %12.2f %12.2f %7.2fx %12zu %14zu %14s\n", agents,
                t_clone * 1e6, t_overlay * 1e6, t_clone / t_overlay,
                clone_bytes, overlay_bytes,
                identical ? "YES" : "NO  <-- BUG");
  }
  return all_identical;
}

// The federated server round: the frozen pre-refactor scalar round —
// fresh per-round upload vectors through CommChannel::transmit,
// smoothing_average, mean_parameters (exactly what the retired
// vector-of-vectors server round executed) — vs the preallocated row
// matrix through the serial communicate_rows. Downlinks must agree
// bit-for-bit.
bool bench_federated_round(double min_time, Report& report) {
  std::printf(
      "\n== Federated server round: vector-of-vectors vs batched row matrix "
      "==\n");
  std::printf("(gridworld-policy dim, BER 1e-2, microseconds per round)\n");
  std::printf("%-8s %8s %12s %12s %8s %14s\n", "agents", "dim", "vov us",
              "rows us", "speedup", "bit-identical");
  Rng prng(31);
  const Network policy = make_gridworld_policy(prng);
  const std::size_t dim = policy.parameter_count();
  bool all_identical = true;
  for (const std::size_t agents : {std::size_t{4}, std::size_t{12}}) {
    // Base per-agent parameters the per-round gathers copy from.
    std::vector<std::vector<float>> base(agents);
    Rng wrng(32);
    for (auto& row : base) {
      row.resize(dim);
      for (auto& v : row) v = static_cast<float>(wrng.uniform(-0.5, 0.5));
    }

    const AlphaSchedule schedule(agents, 0.5);
    // Frozen scalar reference round over fresh per-round vectors — the
    // retired implementation, composed from the scalar primitives.
    const auto scalar_round = [&](CommChannel& channel, std::size_t round,
                                  Rng& rng) {
      std::vector<std::vector<float>> uploads;
      uploads.reserve(agents);
      for (const auto& row : base)
        uploads.push_back(channel.transmit(row, rng));
      std::vector<std::vector<float>> agg =
          smoothing_average(uploads, schedule.at(round));
      const std::vector<float> consensus = mean_parameters(agg);
      (void)consensus;  // kept for timing parity with the retired round
      std::vector<std::vector<float>> down;
      down.reserve(agents);
      for (const auto& p : agg) down.push_back(channel.transmit(p, rng));
      return down;
    };

    CommChannel vov_channel(1e-2);
    Rng vov_rng(33);
    std::size_t vov_round = 0;
    const double t_vov = time_per_call(
        min_time, [&] { scalar_round(vov_channel, vov_round++, vov_rng); });

    ParameterServer rows_server(agents, dim, schedule);
    rows_server.channel().set_bit_error_rate(1e-2);
    Rng rows_rng(33);
    std::vector<float> matrix(agents * dim);
    const auto run_rows = [&] {
      for (std::size_t i = 0; i < agents; ++i)
        std::copy(base[i].begin(), base[i].end(),
                  matrix.begin() + static_cast<std::ptrdiff_t>(i * dim));
      rows_server.communicate_rows(matrix, rows_rng, nullptr);
    };
    const double t_rows = time_per_call(min_time, run_rows);

    // Bit-identity at equal round/rng state: frozen scalar round vs one
    // batched round on a fresh server.
    CommChannel ref_channel(1e-2);
    ParameterServer b(agents, dim, schedule);
    b.channel().set_bit_error_rate(1e-2);
    Rng ra(34), rb(34);
    const auto down = scalar_round(ref_channel, 0, ra);
    for (std::size_t i = 0; i < agents; ++i)
      std::copy(base[i].begin(), base[i].end(),
                matrix.begin() + static_cast<std::ptrdiff_t>(i * dim));
    b.communicate_rows(matrix, rb, nullptr);
    bool identical = ra.next_u64() == rb.next_u64();
    for (std::size_t i = 0; i < agents && identical; ++i)
      for (std::size_t d = 0; d < dim && identical; ++d)
        identical = matrix[i * dim + d] == down[i][d];
    all_identical = all_identical && identical;

    report.server_round.push_back(
        {agents, dim, t_vov * 1e6, t_rows * 1e6, t_vov / t_rows, identical});
    std::printf("%-8zu %8zu %12.2f %12.2f %7.2fx %14s\n", agents, dim,
                t_vov * 1e6, t_rows * 1e6, t_vov / t_rows,
                identical ? "YES" : "NO  <-- BUG");
  }
  return all_identical;
}

// GridWorld train() through the round engine at several per-agent episode
// fan-outs: episodes/sec plus the serial-vs-parallel bit-identity gate.
// Wall-clock scaling needs real cores; the gate must hold everywhere.
bool bench_train_round(bool quick, Report& report) {
  std::printf(
      "\n== Federated training rounds: train() episodes/sec vs engine "
      "threads ==\n");
  std::printf("(gridworld, 12 agents, comm every episode)\n");
  std::printf("%-8s %8s %16s %10s %14s\n", "agents", "threads", "episodes/s",
              "speedup", "bit-identical");
  const std::size_t agents = 12;
  const std::size_t episodes = quick ? 12 : 60;
  bool all_identical = true;
  std::vector<float> serial_params;
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
    const double dt = seconds_since(t0);
    const double eps = static_cast<double>(episodes) / dt;
    const std::vector<float> params = sys.agent_network(0).flat_parameters();
    bool identical = true;
    if (threads == 1) {
      serial_params = params;
      serial_eps = eps;
    } else {
      identical = params == serial_params;
      all_identical = all_identical && identical;
    }
    report.train_round.push_back(
        {agents, threads, eps, eps / serial_eps, identical});
    std::printf("%-8zu %8zu %16.1f %9.2fx %14s\n", agents, threads, eps,
                eps / serial_eps, identical ? "YES" : "NO  <-- BUG");
  }
  if (std::thread::hardware_concurrency() <= 1)
    std::printf(
        "note: single-core container — per-round parallelism cannot show "
        "wall-clock speedup here; bit-identity is the asserted property.\n");
  return all_identical;
}

// The degraded-participation plane: a busy degraded communicate_round
// (dropout + straggler + screened Byzantine row) timed against the
// synchronous communicate_rows at the same shapes, both serial. Plus the
// engine-level lock: a short GridWorld train() under an active
// all-present plan must match the plan-free train exactly.
bool bench_participation(double min_time, bool quick, Report& report) {
  std::printf(
      "\n== Degraded participation: communicate_round vs communicate_rows "
      "==\n");
  std::printf("(gridworld-policy dim, BER 1e-2, microseconds per round)\n");
  std::printf("%-8s %8s %12s %12s\n", "agents", "dim", "rows us",
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

    ParameterServer rows_server(agents, dim, schedule);
    rows_server.channel().set_bit_error_rate(1e-2);
    Rng rows_rng(43);
    const double t_rows = time_per_call(min_time, [&] {
      std::copy(base.begin(), base.end(), matrix.begin());
      rows_server.communicate_rows(matrix, rows_rng, nullptr);
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
                                   deg_rng, nullptr, /*run_post_hook=*/false);
    });

    report.participation.push_back({agents, dim, t_rows * 1e6, t_deg * 1e6});
    std::printf("%-8zu %8zu %12.2f %12.2f\n", agents, dim, t_rows * 1e6,
                t_deg * 1e6);
  }

  // Engine-level lock: active all-present plan == plan-free train.
  const std::size_t episodes = quick ? 10 : 30;
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = 4;
  cfg.channel_ber = 1e-3;
  GridWorldFrlSystem plain(cfg, 77);
  plain.train(episodes);
  GridWorldFrlSystem planned(cfg, 77);
  ParticipationPlan plan;
  plan.active = true;  // zero rates, screening off: resolves all-present
  planned.set_participation_plan(plan);
  planned.train(episodes);
  bool train_identical = true;
  for (std::size_t i = 0; i < cfg.n_agents && train_identical; ++i)
    train_identical = plain.agent_network(i).flat_parameters() ==
                      planned.agent_network(i).flat_parameters();
  report.participation_train_identical = train_identical;
  std::printf("train() under active all-present plan bit-identical: %s\n",
              train_identical ? "YES" : "NO  <-- BUG");
  return train_identical;
}

// The channel-reliability plane: transmit_rows under the i.i.d. golden
// path, a stormy Gilbert-Elliott burst config, and the checksum/retry
// upload protocol at the same shapes. Two determinism gates feed the
// exit code: a degenerate burst config (equal-state BERs, no erasure or
// reordering) must match the i.i.d. channel bit-for-bit — delivered
// payloads, cost counters and the caller's RNG stream position — and a
// zero-retry protocol round must match the plain round.
bool bench_channel_reliability(double min_time, Report& report) {
  std::printf(
      "\n== Channel reliability: bursty plane vs i.i.d. golden ==\n");
  std::printf(
      "(gridworld-policy dim, i.i.d. BER 1e-2, microseconds per round)\n");
  std::printf("%-8s %8s %12s %12s %12s %14s\n", "agents", "dim", "iid us",
              "bursty us", "reliable us", "bit-identical");
  Rng prng(41);
  const Network policy = make_gridworld_policy(prng);
  const std::size_t dim = policy.parameter_count();
  bool all_identical = true;

  BurstyChannelConfig degenerate;
  degenerate.active = true;
  degenerate.ber_good = degenerate.ber_bad = 1e-2;
  BurstyChannelConfig stormy;
  stormy.active = true;
  stormy.ber_good = 1e-4;
  stormy.ber_bad = 0.05;
  stormy.p_good_to_bad = 0.2;
  stormy.p_bad_to_good = 0.25;
  stormy.erasure_rate = 0.05;
  stormy.reorder_rate = 0.1;
  stormy.chunk_elems = 16;

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

    // Gate: degenerate Gilbert-Elliott == i.i.d. at ber_good.
    CommChannel a(1e-2), b;
    b.set_bursty(degenerate);
    Rng ra(44), rb(44);
    std::vector<float> ma = base, mb = base;
    a.transmit_rows(ma.data(), agents, dim, ra);
    b.transmit_rows(mb.data(), agents, dim, rb);
    const bool identical = ma == mb &&
                           a.bits_corrupted() == b.bits_corrupted() &&
                           a.bytes_sent() == b.bytes_sent() &&
                           a.transmit_seq() == b.transmit_seq() &&
                           ra.next_u64() == rb.next_u64();
    all_identical = all_identical && identical;
    report.channel.push_back(
        {agents, dim, t_iid * 1e6, t_burst * 1e6, t_rel * 1e6, identical});
    std::printf("%-8zu %8zu %12.2f %12.2f %12.2f %14s\n", agents, dim,
                t_iid * 1e6, t_burst * 1e6, t_rel * 1e6,
                identical ? "YES" : "NO  <-- BUG");
  }

  // Gate: a zero-retry protocol round == the plain round (no checksum
  // without the ability to retransmit, so nothing may change).
  {
    const std::size_t agents = 8;
    std::vector<float> base(agents * dim);
    Rng wrng(45);
    for (auto& v : base) v = static_cast<float>(wrng.uniform(-0.5, 0.5));
    const AlphaSchedule schedule(agents, 0.5);
    const std::vector<AgentRoundStatus> all_present(
        agents, AgentRoundStatus::Present);
    std::vector<std::size_t> everyone(agents);
    for (std::size_t i = 0; i < agents; ++i) everyone[i] = i;
    ParameterServer plain(agents, dim, schedule);
    ParameterServer zero(agents, dim, schedule);
    plain.channel().set_bursty(stormy);
    zero.channel().set_bursty(stormy);
    ParameterServer::RobustRoundOptions plain_opts, zero_opts;
    zero_opts.upload.enabled = true;
    zero_opts.upload.max_retries = 0;
    Rng rp(46), rz(46);
    std::vector<float> mp = base, mz = base;
    plain.communicate_round(mp, everyone, all_present, plain_opts, rp,
                            nullptr, /*run_post_hook=*/false);
    zero.communicate_round(mz, everyone, all_present, zero_opts, rz, nullptr,
                           /*run_post_hook=*/false);
    report.channel_zero_retry_identical =
        mp == mz && plain.consensus() == zero.consensus() &&
        rp.next_u64() == rz.next_u64();
    std::printf("zero-retry protocol round bit-identical to plain: %s\n",
                report.channel_zero_retry_identical ? "YES" : "NO  <-- BUG");
  }

  return all_identical && report.channel_zero_retry_identical;
}

// Fleet-scale federated rounds: the round engine at n_agents up to 4096
// with the fleet server path armed (Config::server_threads >= 1) — bursty
// channel, ~10% participation via cadence, dropout + a Byzantine sender +
// the L2 screen, all over cheap synthetic agent hooks so the round cost
// dominates. Two gates feed the exit code: the parallel server round must
// be bit-identical to the 1-lane fleet serial golden path (final
// parameters, channel seq, cost counters and participation stats), and
// the retained round buffers must scale with the round's participants,
// not the fleet roster (< full-fleet matrix / 4 at 10% participation).
bool bench_fleet_round(bool quick, Report& report) {
  std::printf(
      "\n== Fleet rounds: engine throughput and memory vs n_agents ==\n");
  std::printf(
      "(dim 256, stormy bursty channel, cadence 10 ~= 10%% participation, "
      "L2 screen)\n");
  std::printf("%-8s %8s %12s %14s %12s %12s %8s %14s\n", "agents", "dim",
              "rounds/s", "bytes/round", "buffer B", "full B", "mem",
              "bit-identical");

  const std::size_t dim = 256;
  const std::size_t rounds = quick ? 4 : 10;
  BurstyChannelConfig stormy;
  stormy.active = true;
  stormy.ber_good = 1e-4;
  stormy.ber_bad = 0.05;
  stormy.p_good_to_bad = 0.2;
  stormy.p_bad_to_good = 0.25;
  stormy.erasure_rate = 0.05;
  stormy.reorder_rate = 0.1;
  stormy.chunk_elems = 16;

  // Synthetic fleet member: flat per-agent parameter rows; the "episode"
  // nudges one coordinate deterministically so rounds aggregate changing
  // data at zero NN cost.
  struct Harness {
    std::size_t n, dim;
    std::vector<float> params;
    Harness(std::size_t n_agents, std::size_t param_dim)
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

  const auto run_fleet = [&](std::size_t agents, std::size_t server_threads,
                             Harness& harness,
                             std::unique_ptr<FederatedRoundEngine>& out) {
    FederatedRoundEngine::Config cfg;
    cfg.n_agents = agents;
    cfg.parameter_dim = dim;
    cfg.comm_interval = 1;
    cfg.bursty_channel = stormy;
    cfg.server_threads = server_threads;
    out = std::make_unique<FederatedRoundEngine>(cfg, 2024, 0xF1EE7,
                                                 harness.hooks());
    ParticipationPlan plan;
    plan.active = true;
    plan.cadence = 10;
    plan.dropout_rate = 0.01;
    plan.straggler_rate = 0.05;
    plan.byzantine_agents = {1};
    plan.screening.l2_norm = true;
    plan.screening.l2_factor = 3.0;
    out->set_participation_plan(plan);
    const auto t0 = Clock::now();
    out->train(rounds);
    return seconds_since(t0);
  };

  const auto stats_equal = [](const ParticipationStats& a,
                              const ParticipationStats& b) {
    return a.rounds == b.rounds && a.present == b.present &&
           a.dropped == b.dropped && a.stragglers == b.stragglers &&
           a.byzantine == b.byzantine && a.stale_folded == b.stale_folded &&
           a.stale_discarded == b.stale_discarded &&
           a.screened_out == b.screened_out &&
           a.upload_attempts == b.upload_attempts &&
           a.uploads_failed == b.uploads_failed;
  };

  bool all_ok = true;
  for (const std::size_t agents :
       {std::size_t{64}, std::size_t{512}, std::size_t{4096}}) {
    // Golden 1-lane fleet serial run (also the timed row: the container
    // may be single-core, so the serial fleet round IS the honest
    // throughput number).
    Harness h1(agents, dim);
    std::unique_ptr<FederatedRoundEngine> e1;
    const double dt = run_fleet(agents, 1, h1, e1);

    bool identical = true;
    for (const std::size_t lanes : {std::size_t{2}, std::size_t{7}}) {
      Harness hn(agents, dim);
      std::unique_ptr<FederatedRoundEngine> en;
      run_fleet(agents, lanes, hn, en);
      identical = identical && hn.params == h1.params &&
                  en->server()->channel().transmit_seq() ==
                      e1->server()->channel().transmit_seq() &&
                  en->server()->channel().bytes_sent() ==
                      e1->server()->channel().bytes_sent() &&
                  en->server()->channel().bits_corrupted() ==
                      e1->server()->channel().bits_corrupted() &&
                  stats_equal(en->participation_stats(),
                              e1->participation_stats());
    }
    all_ok = all_ok && identical;

    const std::size_t buffer_bytes = e1->round_buffer_bytes();
    const std::size_t full_bytes = agents * dim * sizeof(float);
    const bool mem_ok = buffer_bytes < full_bytes / 4;
    all_ok = all_ok && mem_ok;
    const double rps = static_cast<double>(rounds) / dt;
    const double bpr = static_cast<double>(e1->communication_bytes()) /
                       static_cast<double>(rounds);
    report.fleet.push_back({agents, dim, rps, bpr, buffer_bytes, full_bytes,
                            mem_ok, identical});
    std::printf("%-8zu %8zu %12.1f %14.0f %12zu %12zu %8s %14s\n", agents,
                dim, rps, bpr, buffer_bytes, full_bytes,
                mem_ok ? "OK" : "FAT", identical ? "YES" : "NO  <-- BUG");
  }
  if (std::thread::hardware_concurrency() <= 1)
    std::printf(
        "note: single-core container — the parallel server round cannot "
        "show wall-clock speedup here; bit-identity and O(participants) "
        "memory are the asserted properties.\n");
  return all_ok;
}

// Emit the collected measurements as JSON (hand-rolled: flat schema, ASCII
// labels only) so CI and future PRs can diff kernel performance.
void write_json(const Report& r, const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"mode\": \"%s\",\n", r.quick ? "quick" : "full");
  std::fprintf(f, "  \"conv_forward\": [\n");
  for (std::size_t i = 0; i < r.conv_forward.size(); ++i) {
    const auto& row = r.conv_forward[i];
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"naive_gflops\": %.4f, "
                 "\"gemm_gflops\": %.4f, \"speedup\": %.3f}%s\n",
                 row.label.c_str(), row.naive_gfs, row.gemm_gfs, row.speedup,
                 i + 1 < r.conv_forward.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"conv_backward\": [\n");
  for (std::size_t i = 0; i < r.conv_backward.size(); ++i) {
    const auto& row = r.conv_backward[i];
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"naive_ms\": %.5f, "
                 "\"gemm_ms\": %.5f, \"speedup\": %.3f}%s\n",
                 row.label.c_str(), row.naive_ms, row.gemm_ms, row.speedup,
                 i + 1 < r.conv_backward.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"matmul\": [\n");
  for (std::size_t i = 0; i < r.matmul.size(); ++i) {
    std::fprintf(f, "    {\"shape\": \"%s\", \"gflops\": %.4f}%s\n",
                 r.matmul[i].label.c_str(), r.matmul[i].gfs,
                 i + 1 < r.matmul.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"batched_inference\": [\n");
  for (std::size_t i = 0; i < r.batched.size(); ++i) {
    const auto& row = r.batched[i];
    std::fprintf(f,
                 "    {\"batch\": %zu, \"single_us_per_sample\": %.4f, "
                 "\"batched_us_per_sample\": %.4f, \"speedup\": %.3f}%s\n",
                 row.batch, row.single_us, row.batched_us, row.speedup,
                 i + 1 < r.batched.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"int8_inference\": {\n    \"rows\": [\n");
  for (std::size_t i = 0; i < r.int8_inference.size(); ++i) {
    const auto& row = r.int8_inference[i];
    std::fprintf(f,
                 "      {\"batch\": %zu, \"float_us_per_sample\": %.4f, "
                 "\"int8_us_per_sample\": %.4f, \"speedup\": %.3f, "
                 "\"within_tolerance\": %s}%s\n",
                 row.batch, row.float_us, row.int8_us, row.speedup,
                 row.within_tol ? "true" : "false",
                 i + 1 < r.int8_inference.size() ? "," : "");
  }
  std::fprintf(f,
               "    ],\n    \"max_abs_diff_vs_float_shadow\": %.6f\n  },\n",
               r.int8_max_abs_diff);
  std::fprintf(f, "  \"sharded_inference\": [\n");
  for (std::size_t i = 0; i < r.sharded.size(); ++i) {
    const auto& row = r.sharded[i];
    std::fprintf(f,
                 "    {\"batch\": %zu, \"threads\": %zu, \"shards\": %zu, "
                 "\"us_per_call\": %.4f, \"speedup_vs_1thread\": %.3f, "
                 "\"bit_identical\": %s}%s\n",
                 row.batch, row.threads, row.shards, row.us, row.speedup,
                 row.identical ? "true" : "false",
                 i + 1 < r.sharded.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"trans1_batched\": [\n");
  for (std::size_t i = 0; i < r.trans1.size(); ++i) {
    const auto& row = r.trans1[i];
    std::fprintf(f,
                 "    {\"agents\": %zu, \"clone_us_per_step\": %.4f, "
                 "\"overlay_us_per_step\": %.4f, \"speedup\": %.3f, "
                 "\"clone_bytes_per_lane\": %zu, "
                 "\"overlay_bytes_per_lane\": %zu, \"bit_identical\": %s}%s\n",
                 row.agents, row.clone_us, row.overlay_us, row.speedup,
                 row.clone_bytes, row.overlay_bytes,
                 row.identical ? "true" : "false",
                 i + 1 < r.trans1.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"federated_round\": {\n    \"server_round\": [\n");
  for (std::size_t i = 0; i < r.server_round.size(); ++i) {
    const auto& row = r.server_round[i];
    std::fprintf(f,
                 "      {\"agents\": %zu, \"dim\": %zu, \"vov_us\": %.4f, "
                 "\"rows_us\": %.4f, \"speedup\": %.3f, "
                 "\"bit_identical\": %s}%s\n",
                 row.agents, row.dim, row.vov_us, row.rows_us, row.speedup,
                 row.identical ? "true" : "false",
                 i + 1 < r.server_round.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n    \"train\": [\n");
  for (std::size_t i = 0; i < r.train_round.size(); ++i) {
    const auto& row = r.train_round[i];
    std::fprintf(f,
                 "      {\"agents\": %zu, \"threads\": %zu, "
                 "\"episodes_per_s\": %.2f, \"speedup_vs_1thread\": %.3f, "
                 "\"bit_identical\": %s}%s\n",
                 row.agents, row.threads, row.episodes_per_s, row.speedup,
                 row.identical ? "true" : "false",
                 i + 1 < r.train_round.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  },\n  \"participation\": {\n    \"rounds\": [\n");
  for (std::size_t i = 0; i < r.participation.size(); ++i) {
    const auto& row = r.participation[i];
    std::fprintf(f,
                 "      {\"agents\": %zu, \"dim\": %zu, \"rows_us\": %.4f, "
                 "\"degraded_round_us\": %.4f}%s\n",
                 row.agents, row.dim, row.rows_us, row.degraded_us,
                 i + 1 < r.participation.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n    \"train_full_plan_bit_identical\": %s\n  },\n",
               r.participation_train_identical ? "true" : "false");
  std::fprintf(f, "  \"channel_reliability\": {\n    \"rounds\": [\n");
  for (std::size_t i = 0; i < r.channel.size(); ++i) {
    const auto& row = r.channel[i];
    std::fprintf(f,
                 "      {\"agents\": %zu, \"dim\": %zu, \"iid_us\": %.4f, "
                 "\"bursty_us\": %.4f, \"reliable_us\": %.4f, "
                 "\"degenerate_bit_identical\": %s}%s\n",
                 row.agents, row.dim, row.iid_us, row.bursty_us,
                 row.reliable_us, row.identical ? "true" : "false",
                 i + 1 < r.channel.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n    \"zero_retry_bit_identical\": %s\n  },\n",
               r.channel_zero_retry_identical ? "true" : "false");
  std::fprintf(f, "  \"fleet_round\": [\n");
  for (std::size_t i = 0; i < r.fleet.size(); ++i) {
    const auto& row = r.fleet[i];
    std::fprintf(f,
                 "    {\"agents\": %zu, \"dim\": %zu, "
                 "\"rounds_per_s\": %.3f, \"bytes_per_round\": %.0f, "
                 "\"round_buffer_bytes\": %zu, \"full_matrix_bytes\": %zu, "
                 "\"memory_scales_with_participants\": %s, "
                 "\"bit_identical\": %s}%s\n",
                 row.agents, row.dim, row.rounds_per_s, row.bytes_per_round,
                 row.round_buffer_bytes, row.full_matrix_bytes,
                 row.mem_ok ? "true" : "false",
                 row.identical ? "true" : "false",
                 i + 1 < r.fleet.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f,
               "  \"campaign\": {\"trials\": %zu, \"threads\": %zu, "
               "\"serial_trials_per_s\": %.1f, \"parallel_trials_per_s\": "
               "%.1f, \"bit_identical\": %s}\n}\n",
               r.campaign.trials, r.campaign.threads, r.campaign.serial_tps,
               r.campaign.parallel_tps,
               r.campaign.identical ? "true" : "false");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

// Synthetic trial: a drone-policy inference loop, the shape of the paper's
// inference fault-injection campaigns.
double policy_trial(Network& net, Rng& rng) {
  Tensor obs = Tensor::random_uniform({3, 18, 32}, rng, 0.0f, 1.0f);
  double acc = 0.0;
  for (int step = 0; step < 4; ++step) {
    const Tensor q = net.forward(obs);
    acc += static_cast<double>(q[q.argmax()]);
  }
  return acc;
}

bool bench_campaign(std::size_t trials, std::size_t threads, Report& report) {
  std::printf("\n== run_campaign: serial vs %zu lanes (%zu trials) ==\n",
              threads, trials);
  // Each lane needs its own policy clone: Layer caches are per-instance.
  // thread_local gives every pool lane an independent network.
  Rng rng(6);
  static Network proto = make_drone_policy(rng);
  auto trial_fn = [](Rng& trial_rng) {
    thread_local Network net = proto.clone();
    return policy_trial(net, trial_rng);
  };

  CampaignConfig serial{.seed = 42, .trials = trials, .threads = 1};
  auto t0 = Clock::now();
  const CampaignResult r_serial = run_campaign(serial, trial_fn);
  const double dt_serial = seconds_since(t0);

  CampaignConfig parallel{.seed = 42, .trials = trials, .threads = threads};
  t0 = Clock::now();
  const CampaignResult r_parallel = run_campaign(parallel, trial_fn);
  const double dt_parallel = seconds_since(t0);

  const bool identical = r_serial.stats.count() == r_parallel.stats.count() &&
                         r_serial.stats.mean() == r_parallel.stats.mean() &&
                         r_serial.stats.variance() ==
                             r_parallel.stats.variance() &&
                         r_serial.stats.min() == r_parallel.stats.min() &&
                         r_serial.stats.max() == r_parallel.stats.max();
  std::printf("serial:   %8.0f trials/s  (%.3f s)\n",
              static_cast<double>(trials) / dt_serial, dt_serial);
  std::printf("parallel: %8.0f trials/s  (%.3f s)  speedup %.2fx on %u "
              "hardware threads\n",
              static_cast<double>(trials) / dt_parallel, dt_parallel,
              dt_serial / dt_parallel, std::thread::hardware_concurrency());
  std::printf("stats bit-identical to serial: %s\n",
              identical ? "YES" : "NO  <-- BUG");
  report.campaign = {trials, threads,
                     static_cast<double>(trials) / dt_serial,
                     static_cast<double>(trials) / dt_parallel, identical};
  return identical;
}

}  // namespace
}  // namespace frlfi

int main(int argc, char** argv) {
  bool quick = false;
  std::size_t trials = 1000;
  std::size_t threads = 0;
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s [--quick] [--trials=N] [--threads=N]\n",
                 argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--quick") {
        quick = true;
      } else if (arg.rfind("--trials=", 0) == 0) {
        trials = static_cast<std::size_t>(std::stoul(arg.substr(9)));
      } else if (arg.rfind("--threads=", 0) == 0) {
        threads = static_cast<std::size_t>(std::stoul(arg.substr(10)));
      } else {
        return usage();
      }
    } catch (const std::exception&) {  // stoul on empty/non-numeric value
      return usage();
    }
  }
  if (trials == 0) return usage();
  if (threads == 0) threads = frlfi::resolve_thread_count(0) > 1
                                  ? frlfi::resolve_thread_count(0)
                                  : 4;
  if (quick) trials = std::min<std::size_t>(trials, 50);
  const double min_time = quick ? 0.02 : 0.25;

  std::printf("frlfi kernel bench (%s mode)\n", quick ? "quick" : "full");
  frlfi::Report report;
  report.quick = quick;
  frlfi::bench_conv(min_time, report);
  frlfi::bench_matmul(min_time, report);
  frlfi::bench_batched(min_time, report);
  // Nonzero exit on a determinism regression so the CI smoke run fails —
  // the campaign reduction, the sharded-forward bit-identity, the
  // Trans-1 overlay-vs-clone bit-identity, and the int8 plane's
  // tolerance lock against the float shadow.
  const bool int8_ok = frlfi::bench_int8_inference(min_time, report);
  const bool sharded_ok = frlfi::bench_sharded(min_time, report);
  const bool trans1_ok = frlfi::bench_trans1(min_time, report);
  const bool round_ok = frlfi::bench_federated_round(min_time, report);
  const bool train_ok = frlfi::bench_train_round(quick, report);
  const bool part_ok = frlfi::bench_participation(min_time, quick, report);
  const bool channel_ok = frlfi::bench_channel_reliability(min_time, report);
  const bool fleet_ok = frlfi::bench_fleet_round(quick, report);
  const bool identical = frlfi::bench_campaign(trials, threads, report);
  frlfi::write_json(report, "BENCH_kernels.json");
  return identical && int8_ok && sharded_ok && trans1_ok && round_ok &&
                 train_ok && part_ok && channel_ok && fleet_ok
             ? 0
             : 1;
}
