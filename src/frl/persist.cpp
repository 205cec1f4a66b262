#include "frl/persist.hpp"

#include <bit>
#include <istream>
#include <ostream>

#include "core/error.hpp"

namespace frlfi::persist {
namespace {

constexpr std::uint32_t kMagic = 0x46524C53u;  // "FRLS"

}  // namespace

void write_header(std::ostream& os, std::uint32_t version) {
  os.write(reinterpret_cast<const char*>(&kMagic), sizeof kMagic);
  os.write(reinterpret_cast<const char*>(&version), sizeof version);
}

std::uint32_t read_header(std::istream& is) {
  std::uint32_t magic = 0, version = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof magic);
  is.read(reinterpret_cast<char*>(&version), sizeof version);
  FRLFI_CHECK_MSG(is.good() && magic == kMagic, "bad FRL-FI state header");
  return version;
}

void write_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint64_t read_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  FRLFI_CHECK_MSG(is.good(), "truncated FRL-FI state stream");
  return v;
}

void write_floats(std::ostream& os, const std::vector<float>& v) {
  write_u64(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

std::vector<float> read_floats(std::istream& is, std::size_t expected,
                               bool allow_empty) {
  const std::uint64_t n = read_u64(is);
  FRLFI_CHECK_MSG(n == expected || (allow_empty && n == 0),
                  "stored vector length " << n << ", expected " << expected);
  std::vector<float> v(static_cast<std::size_t>(n));
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(float)));
  FRLFI_CHECK_MSG(is.good(), "truncated FRL-FI state stream");
  return v;
}

void write_training_state(std::ostream& os,
                          const FederatedRoundEngine::TrainingState& state) {
  write_u64(os, state.episode);
  write_u64(os, state.round);
  write_u64(os, state.server_fault_pending ? 1 : 0);
  // Version 3: the channel timeline, placed before the optional
  // mitigation tail so it is carried whether or not mitigation ran.
  write_u64(os, state.channel_seq);
  write_u64(os, state.pending_uploads.size());
  for (const ParameterServer::PendingUpload& p : state.pending_uploads) {
    write_u64(os, p.agent);
    write_u64(os, p.deliver_round);
    write_floats(os, {p.weight});
    write_floats(os, p.data);
  }
  write_u64(os, state.has_mitigation_state ? 1 : 0);
  if (!state.has_mitigation_state) return;
  write_u64(os, state.monitor.baseline.size());
  for (double b : state.monitor.baseline)
    write_u64(os, std::bit_cast<std::uint64_t>(b));
  for (std::size_t c : state.monitor.below_count) write_u64(os, c);
  for (std::size_t s : state.monitor.seen) write_u64(os, s);
  write_floats(os, state.checkpoints.saved);
  write_u64(os, state.checkpoints.snapshots);
  write_u64(os, state.checkpoints.restores);
  write_u64(os, state.stats.agent_recoveries);
  write_u64(os, state.stats.server_recoveries);
  write_u64(os, state.stats.checkpoints_taken);
}

FederatedRoundEngine::TrainingState read_training_state(std::istream& is,
                                                        std::size_t n_agents,
                                                        std::size_t params,
                                                        std::uint32_t version) {
  FederatedRoundEngine::TrainingState state;
  state.episode = static_cast<std::size_t>(read_u64(is));
  state.round = static_cast<std::size_t>(read_u64(is));
  state.server_fault_pending = read_u64(is) != 0;
  if (version >= 3) state.channel_seq = read_u64(is);
  const std::uint64_t n_pending = read_u64(is);
  FRLFI_CHECK_MSG(n_pending < (1ull << 20),
                  "implausible staleness buffer size " << n_pending);
  for (std::uint64_t i = 0; i < n_pending; ++i) {
    ParameterServer::PendingUpload p;
    p.agent = static_cast<std::size_t>(read_u64(is));
    p.deliver_round = static_cast<std::size_t>(read_u64(is));
    p.weight = read_floats(is, 1)[0];
    p.data = read_floats(is, params);
    state.pending_uploads.push_back(std::move(p));
  }
  state.has_mitigation_state = read_u64(is) != 0;
  if (!state.has_mitigation_state) return state;
  const std::uint64_t n = read_u64(is);
  FRLFI_CHECK_MSG(n == n_agents, "monitor state holds " << n
                                                        << " agents, system has "
                                                        << n_agents);
  state.monitor.baseline.resize(n_agents);
  for (double& b : state.monitor.baseline)
    b = std::bit_cast<double>(read_u64(is));
  state.monitor.below_count.resize(n_agents);
  for (std::size_t& c : state.monitor.below_count)
    c = static_cast<std::size_t>(read_u64(is));
  state.monitor.seen.resize(n_agents);
  for (std::size_t& s : state.monitor.seen)
    s = static_cast<std::size_t>(read_u64(is));
  state.checkpoints.saved = read_floats(is, params, /*allow_empty=*/true);
  state.checkpoints.snapshots = static_cast<std::size_t>(read_u64(is));
  state.checkpoints.restores = static_cast<std::size_t>(read_u64(is));
  state.stats.agent_recoveries = static_cast<std::size_t>(read_u64(is));
  state.stats.server_recoveries = static_cast<std::size_t>(read_u64(is));
  state.stats.checkpoints_taken = static_cast<std::size_t>(read_u64(is));
  return state;
}

}  // namespace frlfi::persist
