#include "federated/channel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "fault/injector.hpp"
#include "numeric/quantize.hpp"
#include "tensor/gemm.hpp"  // FRLFI_RESTRICT

namespace frlfi {

namespace {

void check_probability(double p, const char* what) {
  FRLFI_CHECK_MSG(p >= 0.0 && p <= 1.0, what << " " << p);
}

}  // namespace

CommChannel::CommChannel(double bit_error_rate) : ber_(bit_error_rate) {
  FRLFI_CHECK_MSG(ber_ >= 0.0 && ber_ <= 1.0, "channel BER " << ber_);
}

void CommChannel::set_bit_error_rate(double ber) {
  FRLFI_CHECK_MSG(ber >= 0.0 && ber <= 1.0, "channel BER " << ber);
  ber_ = ber;
}

void CommChannel::set_bursty(const BurstyChannelConfig& cfg) {
  if (cfg.active) {
    check_probability(cfg.ber_good, "bursty ber_good");
    check_probability(cfg.ber_bad, "bursty ber_bad");
    check_probability(cfg.p_good_to_bad, "bursty p_good_to_bad");
    check_probability(cfg.p_bad_to_good, "bursty p_bad_to_good");
    check_probability(cfg.erasure_rate, "bursty erasure_rate");
    check_probability(cfg.reorder_rate, "bursty reorder_rate");
    FRLFI_CHECK_MSG(cfg.chunk_elems >= 1, "bursty chunk_elems 0");
  }
  bursty_ = cfg;
}

std::vector<float> CommChannel::transmit(const std::vector<float>& payload,
                                         Rng& rng) {
  const bool bursty = bursty_.active && !bursty_degenerate(bursty_);
  // A degenerate bursty config IS the i.i.d. channel at ber_good: same
  // code, same draws, same counters — the lock is structural.
  const double ber = bursty_.active ? bursty_.ber_good : ber_;
  ++messages_;
  ++seq_;
  if (payload.empty()) return payload;
  // Wire format: 8-bit body (1 byte per parameter — the paper's policies
  // are 8-bit quantized over the air) plus a protected scale header.
  // Elements untouched by channel errors are delivered losslessly: the
  // endpoints share the codec, so a clean link is exact, while an element
  // that takes a bit flip materializes the corrupted quantized word.
  bytes_ += payload.size() + sizeof(float);
  if (bursty) {
    std::vector<float> out = payload;
    transmit_row_bursty(out.data(), out.size(), rng, seq_ - 1);
    return out;
  }
  if (ber <= 0.0) return payload;

  const Int8Quantizer q = Int8Quantizer::calibrate(payload);
  std::vector<float> out = payload;
  for (auto& v : out) {
    std::uint8_t word = static_cast<std::uint8_t>(q.quantize(v));
    bool touched = false;
    for (int b = 0; b < 8; ++b) {
      if (rng.bernoulli(ber)) {
        word = static_cast<std::uint8_t>(word ^ (1u << b));
        touched = true;
        ++corrupted_;
      }
    }
    if (touched) v = q.dequantize(static_cast<std::int8_t>(word));
  }
  return out;
}

void CommChannel::transmit_rows(float* rows, std::size_t n_rows,
                                std::size_t dim, Rng& rng) {
  const bool bursty = bursty_.active && !bursty_degenerate(bursty_);
  const double ber = bursty_.active ? bursty_.ber_good : ber_;
  const BernoulliThreshold thr(ber);
  for (std::size_t r = 0; r < n_rows; ++r) {
    ++messages_;
    ++seq_;
    if (dim == 0) continue;  // empty payload: counted, no bytes (as scalar)
    bytes_ += dim + sizeof(float);
    if (bursty) {
      transmit_row_bursty(rows + r * dim, dim, rng, seq_ - 1);
      continue;
    }
    if (ber <= 0.0) continue;
    float* FRLFI_RESTRICT row = rows + r * dim;
    // Per-row calibration, exactly the scalar transmit's codec (and its
    // finite-scale check), run on every row.
    const Int8Quantizer q =
        Int8Quantizer::calibrate(std::span<const float>(row, dim));
    for (std::size_t d = 0; d < dim; ++d) {
      // Draws exactly what the scalar loop's 8 bernoulli(ber) calls draw;
      // hits collected into one mask and applied with one XOR. quantize is
      // pure, so only a hit element needs its word.
      const auto mask = static_cast<std::uint8_t>(rng.bernoulli_mask(thr, 8));
      if (mask != 0) {
        corrupted_ += static_cast<std::size_t>(std::popcount(mask));
        const auto word = static_cast<std::uint8_t>(q.quantize(row[d]));
        row[d] = q.dequantize(static_cast<std::int8_t>(word ^ mask));
      }
    }
  }
}

void CommChannel::transmit_row_bursty(float* row, std::size_t dim,
                                      const Rng& rng, std::uint64_t seq) {
  LaneCounters cnt;
  transmit_row_bursty_on(row, dim, rng, seq, 0, scratch_, cnt);
  corrupted_ += cnt.corrupted;
  chunks_erased_ += cnt.chunks_erased;
  reordered_ += cnt.reordered;
}

void CommChannel::transmit_row_bursty_on(float* row, std::size_t dim,
                                         const Rng& rng, std::uint64_t seq,
                                         std::uint64_t attempt,
                                         RowScratch& scratch,
                                         LaneCounters& cnt) const {
  const BurstyChannelConfig& c = bursty_;
  // Every burst-plane draw lives on per-message streams derived off the
  // caller's RNG — split/derive never advance it, so arming the burst
  // plane cannot move the training stream, and the (snapshotted) sequence
  // key makes a restored campaign replay the same weather. Fleet-mode
  // retry attempt k > 0 extends the key so each attempt meets fresh
  // weather without claiming a new sequence number.
  Rng state = attempt == 0
                  ? rng.derive_stream({c.stream_tag, kChannelStateTag, seq})
                  : rng.derive_stream(
                        {c.stream_tag, kChannelStateTag, seq, attempt});
  Rng noise = attempt == 0
                  ? rng.derive_stream({c.stream_tag, kChannelNoiseTag, seq})
                  : rng.derive_stream(
                        {c.stream_tag, kChannelNoiseTag, seq, attempt});

  const std::size_t chunk = c.chunk_elems;
  const std::size_t n_chunks = (dim + chunk - 1) / chunk;

  // Gilbert–Elliott weather: start from the stationary distribution and
  // evolve per chunk; a sticky bad state (small p_bad_to_good) is what
  // makes errors arrive in bursts.
  scratch.chunk_bad.assign(n_chunks, 0);
  const double denom = c.p_good_to_bad + c.p_bad_to_good;
  bool bad = denom > 0.0 && state.bernoulli(c.p_good_to_bad / denom);
  for (std::size_t k = 0; k < n_chunks; ++k) {
    scratch.chunk_bad[k] = bad ? 1 : 0;
    bad = bad ? !state.bernoulli(c.p_bad_to_good)
              : state.bernoulli(c.p_good_to_bad);
  }
  scratch.chunk_lost.assign(n_chunks, 0);
  if (c.erasure_rate > 0.0)
    for (std::size_t k = 0; k < n_chunks; ++k)
      scratch.chunk_lost[k] = state.bernoulli(c.erasure_rate) ? 1 : 0;

  // Flips: the same per-element 8-draw mask discipline as the i.i.d.
  // path, but at the chunk's state BER and from the per-message noise
  // stream. Lost chunks never arrive, so they draw no noise.
  const Int8Quantizer q =
      Int8Quantizer::calibrate(std::span<const float>(row, dim));
  const BernoulliThreshold thr_good(c.ber_good);
  const BernoulliThreshold thr_bad(c.ber_bad);
  for (std::size_t d = 0; d < dim; ++d) {
    const std::size_t k = d / chunk;
    if (scratch.chunk_lost[k]) continue;
    // Draws exactly what 8 noise.bernoulli(ber) calls at the chunk's
    // state BER draw (none at BER 0).
    const auto mask = static_cast<std::uint8_t>(noise.bernoulli_mask(
        scratch.chunk_bad[k] ? thr_bad : thr_good, 8));
    if (mask != 0) {
      cnt.corrupted += static_cast<std::size_t>(std::popcount(mask));
      row[d] = q.dequantize(static_cast<std::int8_t>(
          static_cast<std::uint8_t>(q.quantize(row[d])) ^ mask));
    }
  }

  // Erasure: the receiver substitutes zeros for chunks that never came.
  for (std::size_t k = 0; k < n_chunks; ++k) {
    if (!scratch.chunk_lost[k]) continue;
    ++cnt.chunks_erased;
    const std::size_t lo = k * chunk;
    const std::size_t hi = std::min(dim, lo + chunk);
    std::fill(row + lo, row + hi, 0.0f);
  }

  // Reordering: chunks arrive as a random permutation and the receiver
  // writes them back in arrival order (lengths preserved, so the tail
  // chunk reshapes the boundaries — exactly the out-of-order damage a
  // sequence-number-less transport suffers).
  if (c.reorder_rate > 0.0 && n_chunks > 1 &&
      state.bernoulli(c.reorder_rate)) {
    scratch.perm.resize(n_chunks);
    for (std::size_t k = 0; k < n_chunks; ++k) scratch.perm[k] = k;
    state.shuffle(scratch.perm);
    scratch.reorder.assign(row, row + dim);
    std::size_t pos = 0;
    for (std::size_t k = 0; k < n_chunks; ++k) {
      const std::size_t src = scratch.perm[k];
      const std::size_t lo = src * chunk;
      const std::size_t len = std::min(dim, lo + chunk) - lo;
      std::copy(scratch.reorder.begin() + static_cast<std::ptrdiff_t>(lo),
                scratch.reorder.begin() + static_cast<std::ptrdiff_t>(lo + len),
                row + pos);
      pos += len;
    }
    ++cnt.reordered;
  }
}

void CommChannel::transmit_row_fleet(float* row, std::size_t dim,
                                     const Rng& rng, std::uint64_t seq,
                                     std::uint64_t attempt,
                                     RowScratch& scratch,
                                     LaneCounters& cnt) const {
  ++cnt.messages;
  if (dim == 0) return;  // empty payload: counted, no bytes (as serial)
  cnt.bytes += dim + sizeof(float);
  if (bursty_.active && !bursty_degenerate(bursty_)) {
    transmit_row_bursty_on(row, dim, rng, seq, attempt, scratch, cnt);
    return;
  }
  const double ber = bursty_.active ? bursty_.ber_good : ber_;
  if (ber <= 0.0) return;
  // Fleet-mode i.i.d. flips ride the burst plane's derived-stream
  // discipline (the default stream_tag is a valid key namespace even
  // with the burst plane off): per-(seq, attempt) noise streams keep the
  // fan thread-count invariant at the cost of realizing a different —
  // equally i.i.d. — flip pattern than the legacy advancing stream.
  Rng noise = attempt == 0
                  ? rng.derive_stream({bursty_.stream_tag, kChannelNoiseTag,
                                       seq})
                  : rng.derive_stream({bursty_.stream_tag, kChannelNoiseTag,
                                       seq, attempt});
  float* FRLFI_RESTRICT out = row;
  const Int8Quantizer q =
      Int8Quantizer::calibrate(std::span<const float>(out, dim));
  const BernoulliThreshold thr(ber);
  for (std::size_t d = 0; d < dim; ++d) {
    // Draws exactly what 8 noise.bernoulli(ber) calls draw; only a hit
    // element is quantized (quantize is pure).
    const auto mask = static_cast<std::uint8_t>(noise.bernoulli_mask(thr, 8));
    if (mask != 0) {
      cnt.corrupted += static_cast<std::size_t>(std::popcount(mask));
      const auto word = static_cast<std::uint8_t>(q.quantize(out[d]));
      out[d] = q.dequantize(static_cast<std::int8_t>(word ^ mask));
    }
  }
}

CommChannel::UploadOutcome CommChannel::transmit_upload_fleet(
    float* row, std::size_t dim, const Rng& rng, std::uint64_t seq,
    const UploadProtocolConfig& cfg, RowScratch& scratch,
    LaneCounters& cnt) const {
  UploadOutcome out;
  if (!reliable_upload_armed(cfg)) {
    transmit_row_fleet(row, dim, rng, seq, 0, scratch, cnt);
    return out;
  }
  scratch.orig.assign(row, row + dim);
  const auto clean = [&] {
    return std::equal(row, row + dim, scratch.orig.begin());
  };
  double elapsed = cfg.attempt_timeout;
  transmit_row_fleet(row, dim, rng, seq, 0, scratch, cnt);
  while (!clean()) {
    if (out.attempts > cfg.max_retries) break;
    const double backoff =
        cfg.backoff_base * std::ldexp(1.0, static_cast<int>(out.attempts) - 1);
    if (elapsed + backoff + cfg.attempt_timeout > cfg.deadline) break;
    elapsed += backoff + cfg.attempt_timeout;
    out.backoff += backoff;
    ++out.attempts;
    cnt.retransmit_bytes += dim + sizeof(float);
    std::copy(scratch.orig.begin(), scratch.orig.end(), row);
    // Retry r keys its streams by (seq, r): fresh weather per attempt,
    // same sequence number, so the fan layout never shifts.
    transmit_row_fleet(row, dim, rng, seq, out.attempts - 1, scratch, cnt);
  }
  out.delivered = clean();
  // A failed upload leaves the clean payload in the row: that is what the
  // eventual off-deadline retransmission delivers, and what the server
  // folds into the staleness buffer.
  if (!out.delivered)
    std::copy(scratch.orig.begin(), scratch.orig.end(), row);
  return out;
}

void CommChannel::transmit_uploads(float* const* uploads,
                                   std::size_t n_uploads, std::size_t dim,
                                   Rng& rng, ThreadPool* pool,
                                   const UploadProtocolConfig* proto,
                                   const std::uint8_t* reliable_mask,
                                   UploadOutcome* outcomes) {
  if (n_uploads == 0) return;
  const bool armed = proto != nullptr && reliable_upload_armed(*proto);
  const auto reliable = [&](std::size_t u) {
    return armed && (reliable_mask == nullptr || reliable_mask[u] != 0);
  };
  if (pool == nullptr) {
    // Serial discipline: upload by upload in order on the advancing
    // stream, each message (retries included) claiming the next sequence
    // number as it goes.
    for (std::size_t u = 0; u < n_uploads; ++u) {
      UploadOutcome o;
      if (reliable(u))
        o = transmit_reliable(uploads[u], dim, rng, *proto);
      else
        transmit_rows(uploads[u], 1, dim, rng);
      if (outcomes != nullptr) outcomes[u] = o;
    }
    return;
  }
  // Claim the whole round's sequence numbers up front: upload u rides
  // seq_base + u no matter how the lanes carve the range, which is the
  // entire thread-count-invariance argument.
  const std::uint64_t seq_base = seq_;
  seq_ += n_uploads;
  const std::size_t lanes = std::min(pool->size(), n_uploads);
  if (fleet_scratch_.size() < lanes) fleet_scratch_.resize(lanes);
  fleet_counters_.assign(lanes, LaneCounters{});
  // Lane-indexed fan: one body index per lane, each lane re-deriving its
  // contiguous upload shard from shard_range so scratch and counters are
  // strictly lane-local until the join.
  pool->parallel_for(lanes, [&](std::size_t lane_b, std::size_t lane_e) {
    for (std::size_t lane = lane_b; lane < lane_e; ++lane) {
      RowScratch& scratch = fleet_scratch_[lane];
      LaneCounters& cnt = fleet_counters_[lane];
      std::size_t b = 0, e = 0;
      shard_range(n_uploads, lanes, lane, b, e);
      for (std::size_t u = b; u < e; ++u) {
        const std::uint64_t seq = seq_base + u;
        UploadOutcome o;
        if (reliable(u))
          o = transmit_upload_fleet(uploads[u], dim, rng, seq, *proto,
                                    scratch, cnt);
        else
          transmit_row_fleet(uploads[u], dim, rng, seq, 0, scratch, cnt);
        if (outcomes != nullptr) outcomes[u] = o;
      }
    }
  });
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const LaneCounters& cnt = fleet_counters_[lane];
    messages_ += cnt.messages;
    bytes_ += cnt.bytes;
    corrupted_ += cnt.corrupted;
    retransmit_bytes_ += cnt.retransmit_bytes;
    chunks_erased_ += cnt.chunks_erased;
    reordered_ += cnt.reordered;
  }
}

CommChannel::UploadOutcome CommChannel::transmit_reliable(
    float* row, std::size_t dim, Rng& rng, const UploadProtocolConfig& cfg) {
  UploadOutcome out;
  if (!reliable_upload_armed(cfg)) {
    // Disabled or zero-retry: a single unverified attempt — byte-for-byte
    // the plain transmit (nothing could be done about corruption anyway).
    transmit_rows(row, 1, dim, rng);
    return out;
  }
  scratch_.orig.assign(row, row + dim);
  const auto clean = [&] {
    return std::equal(row, row + dim, scratch_.orig.begin());
  };
  double elapsed = cfg.attempt_timeout;
  transmit_rows(row, 1, dim, rng);
  while (!clean()) {
    if (out.attempts > cfg.max_retries) break;
    const double backoff =
        cfg.backoff_base * std::ldexp(1.0, static_cast<int>(out.attempts) - 1);
    if (elapsed + backoff + cfg.attempt_timeout > cfg.deadline) break;
    elapsed += backoff + cfg.attempt_timeout;
    out.backoff += backoff;
    ++out.attempts;
    retransmit_bytes_ += dim + sizeof(float);
    std::copy(scratch_.orig.begin(), scratch_.orig.end(), row);
    transmit_rows(row, 1, dim, rng);
  }
  out.delivered = clean();
  // A failed upload leaves the clean payload in the row: that is what the
  // eventual off-deadline retransmission delivers, and what the server
  // folds into the staleness buffer.
  if (!out.delivered)
    std::copy(scratch_.orig.begin(), scratch_.orig.end(), row);
  return out;
}

}  // namespace frlfi
