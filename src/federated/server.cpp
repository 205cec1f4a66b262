#include "federated/server.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "tensor/gemm.hpp"

namespace frlfi {

ParameterServer::ParameterServer(std::size_t n_agents, std::size_t parameter_dim,
                                 AlphaSchedule schedule)
    : n_(n_agents), dim_(parameter_dim), schedule_(schedule) {
  FRLFI_CHECK_MSG(n_ >= 2, "ParameterServer needs >= 2 agents");
  FRLFI_CHECK(dim_ > 0);
  total_.resize(dim_);
}

RoundParticipationReport ParameterServer::communicate_round(
    std::span<float> rows, std::span<const AgentRoundStatus> status,
    const ParticipationPlan& plan, Rng& rng) {
  FRLFI_CHECK_MSG(status.size() == n_,
                  "got " << status.size() << " statuses for " << n_
                         << " agents");
  FRLFI_CHECK_MSG(rows.size() == n_ * dim_,
                  "round matrix holds " << rows.size() << " floats for "
                                        << n_ << " x " << dim_);
  FRLFI_CHECK(plan.straggler_lag >= 1);
  const auto row = [&](std::size_t i) { return rows.data() + i * dim_; };

  RoundParticipationReport rep;
  rep.round = round_;
  rep.status.assign(status.begin(), status.end());
  senders_.clear();
  for (std::size_t i = 0; i < n_; ++i) {
    switch (status[i]) {
      case AgentRoundStatus::Present: ++rep.present; break;
      case AgentRoundStatus::Dropped: ++rep.dropped; break;
      case AgentRoundStatus::Straggler: ++rep.stragglers; break;
      case AgentRoundStatus::Byzantine: ++rep.byzantine; break;
    }
    if (sends_upload(status[i])) senders_.push_back(i);
  }
  const std::size_t m_send = senders_.size();

  const bool reliable = reliable_upload_armed(plan.upload);

  // A late upload enters the staleness buffer, to be folded
  // `straggler_lag` rounds from now with weight kStaleDecay^lag.
  const auto defer = [&](std::size_t agent) {
    PendingUpload p;
    p.agent = agent;
    p.deliver_round = round_ + plan.straggler_lag;
    p.weight = static_cast<float>(
        std::pow(kStaleDecay, static_cast<double>(plan.straggler_lag)));
    p.data.assign(row(agent), row(agent) + dim_);
    pending_.push_back(std::move(p));
  };

  // Uplink: one message per sending agent in agent order. With the
  // protocol armed, on-time rows ride the retry protocol (stragglers are
  // already late and keep the single plain transmit); an upload that
  // exhausts its retry/deadline budget degrades into the participation
  // plane right here — its clean payload (what the eventual late
  // retransmission delivers) enters the staleness buffer with the
  // straggler fold weight, or is dropped past kMaxStaleness.
  upload_ptrs_.resize(m_send);
  for (std::size_t j = 0; j < m_send; ++j) upload_ptrs_[j] = row(senders_[j]);
  upload_failed_.assign(n_, 0);
  if (reliable) {
    upload_mask_.assign(m_send, 0);
    for (std::size_t j = 0; j < m_send; ++j)
      upload_mask_[j] =
          status[senders_[j]] != AgentRoundStatus::Straggler ? 1 : 0;
    upload_outcomes_.assign(m_send, CommChannel::UploadOutcome{});
    channel_.transmit_uploads(upload_ptrs_.data(), m_send, dim_, rng,
                              &plan.upload, upload_mask_.data(),
                              upload_outcomes_.data());
    for (std::size_t j = 0; j < m_send; ++j) {
      if (!upload_mask_[j]) continue;
      const CommChannel::UploadOutcome& out = upload_outcomes_[j];
      rep.upload_attempts += out.attempts;
      rep.backoff_seconds += out.backoff;
      if (out.delivered) continue;
      const std::size_t i = senders_[j];
      upload_failed_[i] = 1;
      ++rep.uploads_failed;
      if (plan.straggler_lag <= kMaxStaleness) {
        defer(i);
        ++rep.failed_stale;
      } else {
        ++rep.failed_dropped;
      }
    }
    rep.upload_failed.assign(upload_failed_.begin(), upload_failed_.end());
  } else {
    channel_.transmit_uploads(upload_ptrs_.data(), m_send, dim_, rng);
  }

  // Stragglers: the post-channel payload enters the staleness buffer — or
  // is discarded outright past kMaxStaleness.
  for (std::size_t i = 0; i < n_; ++i) {
    if (status[i] != AgentRoundStatus::Straggler) continue;
    if (plan.straggler_lag > kMaxStaleness) {
      ++rep.stale_discarded;
      continue;
    }
    defer(i);
  }

  // Contributor set: on-time uploads in agent order, then due stale rows
  // in buffer order (deterministic — insertion is (round, agent) sorted).
  // A stale row counts as a peer even for its own agent: it is a past
  // self, not this round's upload.
  cand_rows_.clear();
  cand_weights_.clear();
  cand_agents_.clear();
  ontime_.assign(n_, 0);
  // Candidate j's agent when it is an on-time row; kStaleRow for stale rows.
  constexpr std::size_t kStaleRow = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < n_; ++i) {
    if (status[i] != AgentRoundStatus::Present &&
        status[i] != AgentRoundStatus::Byzantine)
      continue;
    if (upload_failed_[i]) continue;  // checksum never passed: no upload
    cand_rows_.push_back(row(i));
    cand_weights_.push_back(1.0f);
    cand_agents_.push_back(i);
    ontime_[i] = 1;
  }
  for (const PendingUpload& p : pending_) {
    if (p.deliver_round > round_) continue;
    cand_rows_.push_back(p.data.data());
    cand_weights_.push_back(p.weight);
    cand_agents_.push_back(kStaleRow);
    ++rep.stale_folded;
  }

  // L2-norm screen: exclude rows whose norm is off the (lower-)median
  // contributor norm by more than kL2ScreenFactor in either direction,
  // plus any non-finite row. The median row itself always survives, so
  // the screen can never empty a finite candidate set.
  if (plan.screening.l2_norm && !cand_rows_.empty()) {
    const std::size_t m = cand_rows_.size();
    norms_.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      double s = 0.0;
      const float* cand = cand_rows_[j];
      for (std::size_t d = 0; d < dim_; ++d)
        s += static_cast<double>(cand[d]) * static_cast<double>(cand[d]);
      norms_[j] = std::sqrt(s);
    }
    norms_sorted_ = norms_;
    std::sort(norms_sorted_.begin(), norms_sorted_.end(),
              [](double a, double b) {
                const bool fa = std::isfinite(a), fb = std::isfinite(b);
                if (fa != fb) return fa;
                if (!fa) return false;
                return a < b;
              });
    const double median = norms_sorted_[(m - 1) / 2];
    std::size_t kept = 0;
    for (std::size_t j = 0; j < m; ++j) {
      const bool excluded =
          !std::isfinite(norms_[j]) ||
          (std::isfinite(median) && median > 0.0 &&
           (norms_[j] > kL2ScreenFactor * median ||
            norms_[j] * kL2ScreenFactor < median));
      if (excluded) {
        ++rep.screened_out;
        // Clear the on-time flag so the agent's receiver combine no
        // longer self-excludes a row that is not in the total.
        if (cand_agents_[j] != kStaleRow) ontime_[cand_agents_[j]] = 0;
        continue;
      }
      cand_rows_[kept] = cand_rows_[j];
      cand_weights_[kept] = cand_weights_[j];
      cand_agents_[kept] = cand_agents_[j];
      ++kept;
    }
    cand_rows_.resize(kept);
    cand_weights_.resize(kept);
    cand_agents_.resize(kept);
  }

  rep.contributors = cand_rows_.size();
  rep.aggregated = rep.contributors > 0;
  const double alpha = schedule_.at(round_);
  const auto alpha_f = static_cast<float>(alpha);

  // Weighted contributor sum (weights are exactly 1.0f for on-time rows,
  // so the all-contributing accumulation chain is the scalar
  // smoothing_average's): every coordinate sees the candidate-order chain.
  double weight_sum = 0.0;
  for (float w : cand_weights_) weight_sum += static_cast<double>(w);
  std::fill(total_.begin(), total_.end(), 0.0f);
  for (std::size_t j = 0; j < cand_rows_.size(); ++j)
    axpy(cand_weights_[j], cand_rows_[j], total_.data(), dim_);

  const bool trim = plan.screening.trimmed_mean && cand_rows_.size() > 2;
  if (trim) {
    trim_out_.resize(dim_);
    trim_scratch_.resize(cand_rows_.size());
    trimmed_mean_rows(cand_rows_.data(), cand_rows_.size(), dim_,
                      trim_scratch_.data(), trim_out_.data());
  }

  // Receivers (a subset of senders), in agent order. A failed uploader's
  // link is the thing that failed: it gets no downlink this round either
  // (the Dropped semantics it degraded into).
  receivers_.clear();
  for (const std::size_t i : senders_)
    if (receives_downlink(status[i]) && !upload_failed_[i])
      receivers_.push_back(i);

  // Per-receiver combine, in place over the receiver's own row: each
  // element depends only on its own index, the precomputed totals and the
  // trimmed mean, so no row reads another row's combined value.
  for (const std::size_t i : receivers_) {
    float* r = row(i);
    if (trim) {
      // Robust peer estimate: the self term keeps its alpha weight, the
      // peer mass goes to the coordinate-wise trimmed mean (self
      // included — rank statistics have no self-exclusion).
      const auto om = static_cast<float>(1.0 - alpha);
      const float* FRLFI_RESTRICT tm = trim_out_.data();
#pragma omp simd
      for (std::size_t d = 0; d < dim_; ++d)
        r[d] = alpha_f * r[d] + om * tm[d];
    } else {
      // Partial-participation smoothing average: peers are the weighted
      // contributors minus the receiver's own on-time row. With every
      // agent contributing at weight 1 this is byte-for-byte the scalar
      // smoothing_average (1.0f * self is exact; the peer count double
      // is exact for any agent count). With no peer mass at all the
      // receiver keeps its own upload.
      const float wi = ontime_[i] ? 1.0f : 0.0f;
      const double peers = weight_sum - static_cast<double>(wi);
      if (peers > 0.0) {
        const auto beta = static_cast<float>((1.0 - alpha) / peers);
        const float* FRLFI_RESTRICT tot = total_.data();
#pragma omp simd
        for (std::size_t d = 0; d < dim_; ++d)
          r[d] = alpha_f * r[d] + beta * (tot[d] - wi * r[d]);
      }
    }
  }

  // Consensus over the receiving rows only (receiver-order chain per
  // coordinate; mean_parameters' order when everyone receives).
  if (!receivers_.empty()) {
    consensus_.assign(dim_, 0.0f);
    const auto inv =
        static_cast<float>(1.0 / static_cast<double>(receivers_.size()));
    for (const std::size_t i : receivers_)
      axpy(1.0f, row(i), consensus_.data(), dim_);
    float* FRLFI_RESTRICT c = consensus_.data();
#pragma omp simd
    for (std::size_t d = 0; d < dim_; ++d) c[d] *= inv;
  }

  if (rows_hook_) rows_hook_(round_, rows, dim_);

  // Downlink to the receivers in agent order, straight from their rows.
  if (!receivers_.empty()) {
    upload_ptrs_.resize(receivers_.size());
    for (std::size_t r = 0; r < receivers_.size(); ++r)
      upload_ptrs_[r] = row(receivers_[r]);
    channel_.transmit_uploads(upload_ptrs_.data(), receivers_.size(), dim_,
                              rng);
  }

  // Folded stale rows leave the buffer (their storage outlived the
  // aggregation above).
  std::erase_if(pending_, [this](const PendingUpload& p) {
    return p.deliver_round <= round_;
  });

  ++round_;
  return rep;
}

void ParameterServer::set_pending_uploads(std::vector<PendingUpload> pending) {
  for (const PendingUpload& p : pending) {
    FRLFI_CHECK_MSG(p.agent < n_, "pending upload agent " << p.agent);
    FRLFI_CHECK_MSG(p.data.size() == dim_,
                    "pending upload dim " << p.data.size());
  }
  pending_ = std::move(pending);
}

void ParameterServer::set_post_aggregate_rows_hook(
    std::function<void(std::size_t, std::span<float>, std::size_t)> hook) {
  rows_hook_ = std::move(hook);
}

}  // namespace frlfi
