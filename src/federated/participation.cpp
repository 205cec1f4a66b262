#include "federated/participation.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace frlfi {

void validate_participation_plan(const ParticipationPlan& plan,
                                 std::size_t n_agents) {
  FRLFI_CHECK_MSG(plan.dropout_rate >= 0.0 && plan.dropout_rate <= 1.0,
                  "dropout_rate " << plan.dropout_rate);
  FRLFI_CHECK_MSG(plan.straggler_rate >= 0.0 && plan.straggler_rate <= 1.0,
                  "straggler_rate " << plan.straggler_rate);
  FRLFI_CHECK_MSG(plan.crash_rounds >= 1, "crash_rounds must be >= 1");
  FRLFI_CHECK_MSG(plan.straggler_lag >= 1, "straggler_lag must be >= 1");
  for (std::size_t agent : plan.byzantine_agents)
    FRLFI_CHECK_MSG(agent < n_agents,
                    "byzantine agent " << agent << " of " << n_agents);
}

AgentRoundStatus resolve_agent_round_status(const ParticipationPlan& plan,
                                            const Rng& participation_base,
                                            std::size_t round,
                                            std::size_t agent,
                                            bool byzantine) {
  if (byzantine) return AgentRoundStatus::Byzantine;
  if (plan.dropout_rate > 0.0) {
    // Out at round r iff a crash draw fired anywhere in the trailing
    // window (r - crash_rounds, r]. Each window round re-checks the same
    // per-(round, agent) stream, so a crash at r0 keeps the agent out for
    // exactly crash_rounds rounds and then it rejoins — no cross-round
    // state to snapshot.
    const std::size_t lo =
        round >= plan.crash_rounds - 1 ? round - (plan.crash_rounds - 1) : 0;
    for (std::size_t r0 = lo; r0 <= round; ++r0) {
      Rng draw = participation_base.derive_stream(
          {kParticipationDropTag, r0, agent});
      if (draw.bernoulli(plan.dropout_rate)) return AgentRoundStatus::Dropped;
    }
  }
  if (plan.straggler_rate > 0.0) {
    Rng draw = participation_base.derive_stream(
        {kParticipationStragglerTag, round, agent});
    if (draw.bernoulli(plan.straggler_rate)) return AgentRoundStatus::Straggler;
  }
  return AgentRoundStatus::Present;
}

std::vector<std::size_t> pick_byzantine_agents(std::size_t n_agents,
                                               double fraction,
                                               std::uint64_t seed) {
  FRLFI_CHECK_MSG(fraction >= 0.0 && fraction <= 1.0,
                  "byzantine fraction " << fraction);
  const auto k = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(n_agents)));
  std::vector<std::size_t> all(n_agents);
  for (std::size_t i = 0; i < n_agents; ++i) all[i] = i;
  Rng rng(seed);
  rng.shuffle(all);
  all.resize(std::min(k, n_agents));
  std::sort(all.begin(), all.end());
  return all;
}

void ParticipationStats::accumulate(const RoundParticipationReport& rep) {
  ++rounds;
  present += rep.present;
  dropped += rep.dropped;
  stragglers += rep.stragglers;
  byzantine += rep.byzantine;
  stale_folded += rep.stale_folded;
  stale_discarded += rep.stale_discarded;
  screened_out += rep.screened_out;
  upload_attempts += rep.upload_attempts;
  uploads_failed += rep.uploads_failed;
  failed_stale += rep.failed_stale;
  failed_dropped += rep.failed_dropped;
  backoff_seconds += rep.backoff_seconds;
  if (rep.contributors < 2) ++degenerate_rounds;
}

}  // namespace frlfi
