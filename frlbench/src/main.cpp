/// \file main.cpp
/// frlbench: runs one workload and prints one JSON object (metrics,
/// correctness verdict and the per-run record) as its last stdout line.
///
///   frlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///            [--smoke]
///
/// --trace 0 prints the end-to-end metrics; --trace 1 runs the plain
/// workload, then its traced build, and prints the per-layer metrics.
/// --smoke builds one system and runs three ops.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hpp"

namespace frlbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// CPU time of the calling thread. Per-op latency is read on this clock:
/// the benchmark is serial, so it is the op's wall time minus hypervisor
/// steal and preemption, which on a shared host land on random ops and
/// made wall-clock p90 swing by 20 % between identical runs.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host-drift probe: a fixed integer loop, timed. Recorded, never used to
/// normalise a metric.
volatile std::uint64_t g_spin_sink = 0;
double spin_ms() {
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < 100'000'000u; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink = x;
  return 1e3 * seconds_since(t0);
}

/// Hypervisor steal ticks of the whole host (/proc/stat "cpu" line, 8th
/// value); -1 when unavailable.
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  long long v[8] = {};
  if (!(in >> label) || label != "cpu") return -1;
  for (long long& x : v)
    if (!(in >> x)) return -1;
  return v[7];
}

/// Linear-interpolated quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// What one pass over a workload build measured.
struct Phase {
  std::vector<double> setup_s;
  std::vector<double> op_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t failed_ops = 0;
  std::vector<double> scores;
};

/// Set up `systems` systems, run `ops` ops round-robin over them (timed),
/// then score every system.
Phase run_phase(Workload& w, std::size_t systems, std::size_t ops,
                Tracer* tracer) {
  Phase p;
  for (std::size_t k = 0; k < systems; ++k) {
    const Clock::time_point t0 = Clock::now();
    w.setup(k);
    p.setup_s.push_back(seconds_since(t0));
  }
  w.begin_timed();
  if (tracer != nullptr) tracer->set_enabled(true);
  const double cpu0 = cpu_seconds();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const double t0 = thread_cpu_seconds();
    const bool ok = w.op(i % systems, i);
    p.op_ms.push_back(1e3 * (thread_cpu_seconds() - t0));
    if (!ok) ++p.failed_ops;
  }
  p.wall_s = seconds_since(start);
  p.cpu_s = cpu_seconds() - cpu0;
  if (tracer != nullptr) tracer->set_enabled(false);
  for (std::size_t k = 0; k < systems; ++k) p.scores.push_back(w.score(k));
  return p;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<Metric> end_to_end(const Phase& p) {
  std::vector<double> sorted = p.op_ms;
  std::sort(sorted.begin(), sorted.end());
  return {
      {"setup_s", median(p.setup_s), "s"},
      {"wall_s", p.wall_s, "s"},
      {"cpu_s", p.cpu_s, "s"},
      {"op_ms_p50", quantile(sorted, 0.5), "ms"},
      {"op_ms_p90", quantile(sorted, 0.9), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"task_score", mean(p.scores), "%"},
  };
}

std::vector<Metric> per_layer(const Tracer& t, const LayerCounters& c,
                              const Phase& traced, double untraced_wall_s,
                              std::size_t ops) {
  const double n = static_cast<double>(ops);
  const auto us = [&](Site l) { return 1e-3 * static_cast<double>(t.self_ns(l)) / n; };
  const auto per_op = [&](double v) { return v / n; };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double wall_us = 1e6 * traced.wall_s / n;
  const double steps = static_cast<double>(t.spans(Site::kDronesimStep) +
                                           t.spans(Site::kEnvsStep));
  double covered = 0.0;
  for (std::size_t l = 0; l < static_cast<std::size_t>(Site::kCount); ++l)
    covered += us(static_cast<Site>(l));
  // Payload bits the channel drew a flip decision for: every byte of a
  // message but its float scale.
  const double channel_bits =
      8.0 * (c.channel_bytes - static_cast<double>(sizeof(float)) * c.channel_messages);

  std::vector<Metric> m = {
      {"dronesim.step_us", us(Site::kDronesimStep), "us/op"},
      {"dronesim.reset_us", us(Site::kDronesimReset), "us/op"},
      {"dronesim.steps", per_op(static_cast<double>(t.spans(Site::kDronesimStep))), "1/op"},
      {"dronesim.share",
       100.0 * ratio(us(Site::kDronesimStep) + us(Site::kDronesimReset), wall_us), "%"},
      {"envs.step_us", us(Site::kEnvsStep), "us/op"},
      {"envs.reset_us", us(Site::kEnvsReset), "us/op"},
      {"envs.steps", per_op(static_cast<double>(t.spans(Site::kEnvsStep))), "1/op"},
      {"nn.forward_us", us(Site::kNnForward), "us/op"},
  };
  for (std::size_t i = 0; i < kMaxNetLayers; ++i)
    m.push_back({"nn.forward." + std::to_string(i) + "_us",
                 1e-3 * static_cast<double>(t.forward_layer_ns(i)) / n, "us/op"});
  const std::vector<Metric> rest = {
      {"nn.forward_calls", per_op(static_cast<double>(t.forward_calls)), "1/op"},
      {"nn.backward_us", us(Site::kNnBackward), "us/op"},
      {"nn.share",
       100.0 * ratio(us(Site::kNnForward) + us(Site::kNnBackward), wall_us), "%"},
      {"rl.learn_us", us(Site::kRlLearn), "us/op"},
      {"rl.forwards_per_step",
       ratio(static_cast<double>(t.forward_calls), steps), "ratio"},
      {"federated.round_us", us(Site::kFederatedRound), "us/op"},
      {"federated.share", 100.0 * ratio(us(Site::kFederatedRound), wall_us), "%"},
      {"federated.rounds", per_op(c.rounds), "1/op"},
      {"channel.bytes", per_op(c.channel_bytes), "B/op"},
      {"channel.messages", per_op(c.channel_messages), "1/op"},
      {"channel.bits_corrupted", per_op(c.channel_bits_corrupted), "1/op"},
      {"channel.draws_per_flip", ratio(channel_bits, c.channel_bits_corrupted), "ratio"},
      {"fault.inject_us", us(Site::kFaultInject), "us/op"},
      {"fault.strikes", per_op(static_cast<double>(t.strikes)), "1/op"},
      {"fault.bits_flipped", per_op(static_cast<double>(t.bits_flipped)), "1/op"},
      {"fault.draws_per_flip",
       ratio(static_cast<double>(t.bits_scanned), static_cast<double>(t.bits_flipped)),
       "ratio"},
      {"mitigation.detector_us", us(Site::kMitigationDetector), "us/op"},
      {"mitigation.suppressed", per_op(static_cast<double>(t.suppressed)), "1/op"},
      {"mitigation.checkpoints", per_op(c.checkpoints), "1/op"},
      {"mitigation.recoveries", per_op(c.recoveries), "1/op"},
      {"campaign.loop_us", us(Site::kCampaign), "us/op"},
      {"trace.coverage", ratio(covered, wall_us), "ratio"},
      {"trace.overhead", ratio(traced.wall_s, untraced_wall_s), "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value);
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0 && (a.trace == 0 || a.trace == 1);
}

int run(const Args& args) {
  const WorkloadInfo* info = find_workload(args.workload);
  if (info == nullptr) {
    std::cerr << "frlbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const std::size_t systems = args.smoke ? 1 : kSystems;
  const std::size_t ops =
      args.smoke ? 3
                 : static_cast<std::size_t>(std::ceil(args.seconds * info->ops_per_second));

  const double spin_before = spin_ms();
  const long long steal_before = steal_ticks();

  const RunInput in{args.seed, systems, ops};
  std::unique_ptr<Workload> plain = make_plain(*info, in);
  const Phase untraced = run_phase(*plain, systems, ops, nullptr);

  std::vector<Check> checks;
  checks.push_back({"every op's output check", untraced.failed_ops == 0});
  plain->check(checks);

  std::vector<Metric> metrics;
  std::size_t attempted = ops;
  std::size_t failed_ops = untraced.failed_ops;
  Phase traced;
  if (args.trace == 1) {
    Tracer tracer;
    std::unique_ptr<Workload> tw = make_traced(*info, in, tracer, *plain);
    traced = run_phase(*tw, systems, ops, &tracer);
    attempted += ops;
    failed_ops += traced.failed_ops;
    const LayerCounters counters = tw->counters();
    checks.push_back({"every traced op's output check", traced.failed_ops == 0});
    for (std::size_t k = 0; k < systems; ++k) {
      checks.push_back({"traced task_score of system " + std::to_string(k) +
                            " equals the untraced one bit for bit",
                        bit_equal({traced.scores[k]}, {untraced.scores[k]})});
      checks.push_back({"traced results of system " + std::to_string(k) +
                            " equal the untraced ones bit for bit",
                        bit_equal(tw->fingerprint(k), plain->fingerprint(k))});
    }
    // Every workload arms a fault with BER > 0 in its timed phase.
    checks.push_back({"fault.bits_flipped > 0", tracer.bits_flipped > 0});
    checks.push_back({info->channel_noise ? "channel.bits_corrupted > 0"
                                          : "channel.bits_corrupted == 0",
                      info->channel_noise ? counters.channel_bits_corrupted > 0
                                          : counters.channel_bits_corrupted == 0});
    metrics = per_layer(tracer, counters, traced, untraced.wall_s, ops);
  } else {
    metrics = end_to_end(untraced);
  }

  const double spin_after = spin_ms();
  const long long steal_after = steal_ticks();

  std::size_t failed_checks = 0;
  for (const Check& c : checks) failed_checks += c.passed ? 0 : 1;
  const std::size_t failed = failed_ops + failed_checks;

  std::ostringstream out;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? ", " : "") << quoted(metrics[i].name) << ": {\"value\": "
        << num(metrics[i].value) << ", \"unit\": " << quoted(metrics[i].unit) << "}";
  out << "}, \"record\": {\"workload\": " << quoted(info->name)
      << ", \"params\": " << quoted(info->params) << ", \"seed\": " << args.seed
      << ", \"seconds\": " << num(args.seconds) << ", \"trace\": " << args.trace
      << ", \"smoke\": " << (args.smoke ? "true" : "false")
      << ", \"systems\": " << systems << ", \"ops\": " << ops
      << ", \"compiler\": " << quoted(FRLBENCH_COMPILER)
      << ", \"cxx_flags\": " << quoted(FRLBENCH_CXX_FLAGS)
      << ", \"march_native\": " << quoted(FRLBENCH_MARCH_NATIVE)
      << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"spin_ms_before\": " << num(spin_before)
      << ", \"spin_ms_after\": " << num(spin_after)
      << ", \"steal_ticks_before\": " << steal_before
      << ", \"steal_ticks_after\": " << steal_after << ", \"setup_s\": [";
  for (std::size_t k = 0; k < untraced.setup_s.size(); ++k)
    out << (k ? ", " : "") << num(untraced.setup_s[k]);
  out << "], \"scores\": [";
  for (std::size_t k = 0; k < untraced.scores.size(); ++k)
    out << (k ? ", " : "") << num(untraced.scores[k]);
  out << "], \"untraced_wall_s\": " << num(untraced.wall_s);
  if (args.trace == 1) out << ", \"traced_wall_s\": " << num(traced.wall_s);
  out << ", \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i)
    out << (i ? ", " : "") << "{\"name\": " << quoted(checks[i].name)
        << ", \"passed\": " << (checks[i].passed ? "true" : "false") << "}";
  out << "]}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace frlbench

int main(int argc, char** argv) {
  frlbench::Args args;
  if (!frlbench::parse(argc, argv, args)) {
    std::cerr << "usage: frlbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke]\n";
    return 2;
  }
  try {
    return frlbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "frlbench: " << e.what() << "\n";
    return 1;
  }
}
