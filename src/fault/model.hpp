#pragma once

/// \file model.hpp
/// The fault model of §III-C: transient random bit flips (and stuck-at
/// baselines) in the memory/data elements of the FRL system, parameterized
/// by bit error rate (BER), location, and injection time.
///
/// At the bit level every fault is one rule, applied by corrupt_words
/// (injector.hpp) to the deployed words: each bit is hit independently
/// with probability `ber`, and the hits are filtered by the model and the
/// flip direction — a transient flip keeps the hits the direction allows,
/// a stuck-at keeps only the hits on bits that differ from the stuck
/// value. When the fault is visible (one read, until overwritten, for
/// good) is the caller's business, not the corruptor's.

#include <cstddef>
#include <string>

namespace frlfi {

/// How a fault manifests over time.
enum class FaultModel {
  /// Bit flip visible for a single read (one action step), then gone —
  /// the paper's "Trans-1" (read-register fault).
  TransientSingleStep,
  /// Bit flip persisting in memory until the location is overwritten —
  /// the paper's "Trans-M".
  TransientPersistent,
  /// Bit permanently forced to 0 (comparison baseline in Fig. 4).
  StuckAt0,
  /// Bit permanently forced to 1.
  StuckAt1,
};

/// Where in the FRL system the fault strikes. Per §III-C the three raw
/// sources (server, communication, agent) group into two classes; the
/// semantic classes used throughout §IV are:
///  * AgentFault — corruption of one agent's parameters / its uplink
///    (data the *server* receives); attenuated by the smoothing average.
///  * ServerFault — corruption of the aggregated parameters / downlink
///    (data the *agents* receive); affects every agent.
enum class FaultSite {
  /// One agent's local policy parameters (or its uplink message).
  AgentFault,
  /// The server's aggregated parameters (or the downlink broadcast).
  ServerFault,
};

/// Constrain which flip directions are allowed (the Fig. 3d study shows
/// 0->1 flips dominate the damage). Transient models only: a stuck-at
/// fault's direction is fixed by its stuck value.
enum class FlipDirection {
  Any,
  ZeroToOne,
  OneToZero,
};

/// Full description of one fault-injection scenario.
struct FaultSpec {
  FaultModel model = FaultModel::TransientPersistent;
  FaultSite site = FaultSite::ServerFault;
  /// Per-bit flip probability.
  double ber = 0.0;
  /// Training episode (dynamic injection) at which the fault strikes.
  std::size_t episode = 0;
  /// Which agent is hit for AgentFault sites.
  std::size_t agent_index = 0;
  /// Directional constraint on flips.
  FlipDirection direction = FlipDirection::Any;
};

/// Display name of a fault model ("Trans-M", "Stuck-at-0", ...).
std::string to_string(FaultModel m);

/// Display name of a fault site ("agent", "server").
std::string to_string(FaultSite s);

}  // namespace frlfi
