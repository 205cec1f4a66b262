#include "federated/channel.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "numeric/quantize.hpp"

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
    // The 8·dim wire-bit trials of the scalar loop, in its order.
    hits_.clear();
    rng.bernoulli_hits(thr, 8 * dim, hits_);
    flip_wire_hits(rows + r * dim, dim);
  }
}

void CommChannel::flip_wire_hits(float* row, std::size_t dim) {
  if (hits_.empty()) return;
  // Per-row calibration, exactly the scalar transmit's codec, run only on
  // rows a flip hits. Skipping it elsewhere changes nothing: it reads the
  // row before any flip, and its scale max(finite |x|, 1e-8)/127 is
  // always finite and positive, so its check cannot throw.
  const Int8Quantizer q =
      Int8Quantizer::calibrate(std::span<const float>(row, dim));
  corrupted_ += hits_.size();
  // quantize is pure, so only a hit element needs its word: gather its
  // hits into one mask and apply them with one XOR.
  for (std::size_t h = 0; h < hits_.size();) {
    const std::size_t d = hits_[h] / 8;
    std::uint8_t mask = 0;
    for (; h < hits_.size() && hits_[h] / 8 == d; ++h)
      mask = static_cast<std::uint8_t>(mask | (1u << (hits_[h] % 8)));
    const auto word = static_cast<std::uint8_t>(q.quantize(row[d]));
    row[d] = q.dequantize(static_cast<std::int8_t>(word ^ mask));
  }
}

void CommChannel::transmit_row_bursty(float* row, std::size_t dim,
                                      const Rng& rng, std::uint64_t seq) {
  const BurstyChannelConfig& c = bursty_;
  // Every burst-plane draw lives on per-message streams derived off the
  // caller's RNG — split/derive never advance it, so arming the burst
  // plane cannot move the training stream, and the (snapshotted) sequence
  // key makes a restored campaign replay the same weather.
  Rng state =
      rng.derive_stream({kBurstyChannelStreamTag, kChannelStateTag, seq});
  Rng noise =
      rng.derive_stream({kBurstyChannelStreamTag, kChannelNoiseTag, seq});

  const std::size_t chunk = c.chunk_elems;
  const std::size_t n_chunks = (dim + chunk - 1) / chunk;

  // Gilbert–Elliott weather: start from the stationary distribution and
  // evolve per chunk; a sticky bad state (small p_bad_to_good) is what
  // makes errors arrive in bursts.
  chunk_bad_.assign(n_chunks, 0);
  const double denom = c.p_good_to_bad + c.p_bad_to_good;
  bool bad = denom > 0.0 && state.bernoulli(c.p_good_to_bad / denom);
  for (std::size_t k = 0; k < n_chunks; ++k) {
    chunk_bad_[k] = bad ? 1 : 0;
    bad = bad ? !state.bernoulli(c.p_bad_to_good)
              : state.bernoulli(c.p_good_to_bad);
  }
  chunk_lost_.assign(n_chunks, 0);
  if (c.erasure_rate > 0.0)
    for (std::size_t k = 0; k < n_chunks; ++k)
      chunk_lost_[k] = state.bernoulli(c.erasure_rate) ? 1 : 0;

  // Flips: the same 8 wire-bit trials per element as the i.i.d. path, but
  // at the chunk's state BER and from the per-message noise stream. Lost
  // chunks never arrive, so they draw no noise.
  FRLFI_CHECK_MSG(dim <= std::numeric_limits<std::uint32_t>::max() / 8,
                  "bursty row of " << dim << " elements");
  const BernoulliThreshold thr_good(c.ber_good);
  const BernoulliThreshold thr_bad(c.ber_bad);
  hits_.clear();
  for (std::size_t k = 0; k < n_chunks; ++k) {
    if (chunk_lost_[k]) continue;
    const std::size_t lo = k * chunk;
    const std::size_t hi = std::min(dim, lo + chunk);
    const std::size_t first = hits_.size();
    noise.bernoulli_hits(chunk_bad_[k] ? thr_bad : thr_good, 8 * (hi - lo),
                         hits_);
    for (std::size_t h = first; h < hits_.size(); ++h)
      hits_[h] += static_cast<std::uint32_t>(8 * lo);
  }
  flip_wire_hits(row, dim);

  // Erasure: the receiver substitutes zeros for chunks that never came.
  for (std::size_t k = 0; k < n_chunks; ++k) {
    if (!chunk_lost_[k]) continue;
    ++chunks_erased_;
    const std::size_t lo = k * chunk;
    const std::size_t hi = std::min(dim, lo + chunk);
    std::fill(row + lo, row + hi, 0.0f);
  }
}

void CommChannel::transmit_uploads(float* const* uploads,
                                   std::size_t n_uploads, std::size_t dim,
                                   Rng& rng, const UploadProtocolConfig* proto,
                                   const std::uint8_t* reliable_mask,
                                   UploadOutcome* outcomes) {
  const bool armed = proto != nullptr && reliable_upload_armed(*proto);
  for (std::size_t u = 0; u < n_uploads; ++u) {
    UploadOutcome o;
    if (armed && (reliable_mask == nullptr || reliable_mask[u] != 0))
      o = transmit_reliable(uploads[u], dim, rng, *proto);
    else
      transmit_rows(uploads[u], 1, dim, rng);
    if (outcomes != nullptr) outcomes[u] = o;
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
  orig_.assign(row, row + dim);
  const auto clean = [&] {
    return std::equal(row, row + dim, orig_.begin());
  };
  double elapsed = kUploadAttemptSeconds;
  transmit_rows(row, 1, dim, rng);
  while (!clean()) {
    if (out.attempts > cfg.max_retries) break;
    const double backoff = kUploadBackoffSeconds *
                           std::ldexp(1.0, static_cast<int>(out.attempts) - 1);
    if (elapsed + backoff + kUploadAttemptSeconds > kUploadDeadlineSeconds)
      break;
    elapsed += backoff + kUploadAttemptSeconds;
    out.backoff += backoff;
    ++out.attempts;
    retransmit_bytes_ += dim + sizeof(float);
    std::copy(orig_.begin(), orig_.end(), row);
    transmit_rows(row, 1, dim, rng);
  }
  out.delivered = clean();
  // A failed upload leaves the clean payload in the row: that is what the
  // eventual off-deadline retransmission delivers, and what the server
  // folds into the staleness buffer.
  if (!out.delivered)
    std::copy(orig_.begin(), orig_.end(), row);
  return out;
}

}  // namespace frlfi
