#include "frl/persist.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"

namespace frlfi {
namespace {

TEST(Persist, PrimitivesRoundTrip) {
  std::stringstream ss;
  persist::write_header(ss, 3);
  persist::write_u64(ss, 0xDEADBEEFULL);
  persist::write_floats(ss, {1.0f, -2.5f, 0.125f});
  EXPECT_EQ(persist::read_header(ss), 3u);
  EXPECT_EQ(persist::read_u64(ss), 0xDEADBEEFULL);
  EXPECT_EQ(persist::read_floats(ss, 3),
            (std::vector<float>{1.0f, -2.5f, 0.125f}));
}

TEST(Persist, RejectsGarbageHeader) {
  std::stringstream ss("this is not a state file");
  EXPECT_THROW(persist::read_header(ss), Error);
}

TEST(Persist, RejectsTruncatedStream) {
  std::stringstream ss;
  persist::write_header(ss, 1);
  persist::write_u64(ss, 100);  // claims 100 floats, provides none
  persist::read_header(ss);
  EXPECT_THROW(persist::read_floats(ss, 100), Error);
}

TEST(Persist, RejectsUnexpectedVectorLength) {
  // A length field that disagrees with the expected one is refused before
  // any allocation — even a huge one.
  std::stringstream ss;
  persist::write_u64(ss, 1ull << 40);
  EXPECT_THROW(persist::read_floats(ss, 3), Error);
  std::stringstream three;
  persist::write_floats(three, {1.0f, 2.0f, 3.0f});
  EXPECT_THROW(persist::read_floats(three, 4), Error);
  std::stringstream empty;
  persist::write_floats(empty, {});
  EXPECT_TRUE(persist::read_floats(empty, 4, /*allow_empty=*/true).empty());
}

TEST(Persist, GridWorldSaveLoadRoundTrip) {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = 4;
  GridWorldFrlSystem sys(cfg, 5);
  sys.train(60);
  std::stringstream ss;
  sys.save(ss);

  GridWorldFrlSystem other(cfg, 999);  // different seed: different weights
  other.load(ss);
  EXPECT_EQ(other.episode(), 60u);
  EXPECT_EQ(other.agent_network(2).flat_parameters(),
            sys.agent_network(2).flat_parameters());
}

TEST(Persist, GridWorldLoadedSystemContinuesTraining) {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = 4;
  GridWorldFrlSystem a(cfg, 6);
  a.train(40);
  std::stringstream ss;
  a.save(ss);
  a.train(20);
  GridWorldFrlSystem b(cfg, 6);
  b.load(ss);
  b.train(20);
  EXPECT_EQ(a.agent_network(0).flat_parameters(),
            b.agent_network(0).flat_parameters());
}

TEST(Persist, GridWorldRejectsAgentCountMismatch) {
  GridWorldFrlSystem::Config small;
  small.n_agents = 2;
  GridWorldFrlSystem sys(small, 7);
  std::stringstream ss;
  sys.save(ss);
  GridWorldFrlSystem::Config big;
  big.n_agents = 4;
  GridWorldFrlSystem other(big, 7);
  EXPECT_THROW(other.load(ss), Error);
}

/// One field of a saved state: where it sits, how wide it is, and whether
/// it is a header, length or count field (the ones a reader sizes by).
struct Field {
  std::size_t offset, bytes;
  bool sizing;
};

/// Field map of a saved version-3 GridWorldFrlSystem state, walked with
/// the format's own grammar (see persist.cpp and GridWorldFrlSystem::save).
class StateLayout {
 public:
  explicit StateLayout(const std::string& bytes) : bytes_(bytes) {
    field(4, true);  // magic
    field(4, true);  // version
    u64(false);      // episode
    u64(false);      // round
    const std::uint64_t agents = u64(true);
    for (std::uint64_t a = 0; a < agents; ++a) floats();
    u64(false);  // engine episode
    u64(false);  // engine round
    u64(false);  // server fault pending
    u64(false);  // channel sequence number
    pending = u64(true);
    for (std::uint64_t i = 0; i < pending; ++i) {
      u64(false);  // agent
      u64(false);  // deliver round
      floats();    // weight
      floats();    // payload
    }
    if (u64(true) != 0) {  // mitigation state present
      const std::uint64_t n = u64(true);
      for (std::uint64_t i = 0; i < 3 * n; ++i) u64(false);
      checkpoint = floats();
      for (int i = 0; i < 5; ++i) u64(false);
    }
    EXPECT_EQ(pos_, bytes_.size());
  }

  std::vector<Field> fields;
  std::uint64_t pending = 0, checkpoint = 0;

 private:
  void field(std::size_t bytes, bool sizing) {
    fields.push_back({pos_, bytes, sizing});
    pos_ += bytes;
  }
  std::uint64_t u64(bool sizing) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes_.data() + pos_, sizeof v);
    field(sizeof v, sizing);
    return v;
  }
  std::uint64_t floats() {
    const std::uint64_t n = u64(true);
    field(n * sizeof(float), false);
    return n;
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
};

/// Load `bytes` into `sys`: true if it loaded, false if it threw
/// frlfi::Error. Any other exception fails the calling test.
bool loads(GridWorldFrlSystem& sys, const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    sys.load(ss);
    return true;
  } catch (const Error&) {
    return false;
  }
}

TEST(Persist, GridWorldCorruptStateLoadsOrThrows) {
  // Every truncation at a field boundary and every single-bit flip of the
  // header and of each length/count field either loads or throws
  // frlfi::Error — never an allocation failure or a memory error.
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = 3;
  GridWorldFrlSystem sys(cfg, 11);
  MitigationPlan mitigation;
  mitigation.enabled = true;
  mitigation.checkpoint_interval = 1;
  sys.set_mitigation(mitigation);
  ParticipationPlan plan;
  plan.active = true;
  plan.straggler_rate = 0.5;
  plan.straggler_lag = 2;
  sys.set_participation_plan(plan);
  sys.train(12);
  std::stringstream ss;
  sys.save(ss);
  const std::string bytes = ss.str();
  const StateLayout layout(bytes);
  // The state exercises every sized field the format has.
  ASSERT_GT(layout.pending, 0u);
  ASSERT_GT(layout.checkpoint, 0u);

  GridWorldFrlSystem target(cfg, 12);
  ASSERT_TRUE(loads(target, bytes));
  for (const Field& f : layout.fields) {
    EXPECT_FALSE(loads(target, bytes.substr(0, f.offset)))
        << "truncated at byte " << f.offset;
  }
  for (const Field& f : layout.fields) {
    if (!f.sizing) continue;
    for (std::size_t bit = 0; bit < 8 * f.bytes; ++bit) {
      std::string flipped = bytes;
      flipped[f.offset + bit / 8] =
          static_cast<char>(flipped[f.offset + bit / 8] ^ (1 << (bit % 8)));
      loads(target, flipped);  // either outcome; only Error may escape
    }
  }
}

TEST(Persist, DroneSaveLoadRoundTrip) {
  DroneFrlSystem::Config cfg;
  cfg.n_drones = 2;
  cfg.imitation_episodes = 20;
  DroneFrlSystem sys(cfg, 8);
  sys.train(4);
  std::stringstream ss;
  sys.save(ss);

  DroneFrlSystem other(cfg, 8);
  other.load(ss);
  EXPECT_EQ(other.episode(), 4u);
  EXPECT_EQ(other.drone_network(1).flat_parameters(),
            sys.drone_network(1).flat_parameters());
  // Baseline state restored too: continued training replays identically.
  sys.train(4);
  other.train(4);
  EXPECT_EQ(other.drone_network(0).flat_parameters(),
            sys.drone_network(0).flat_parameters());
}

}  // namespace
}  // namespace frlfi
