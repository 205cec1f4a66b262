#pragma once

/// \file channel.hpp
/// The agent<->server communication link. Transports int8-quantized
/// parameter payloads, optionally corrupting them with a wireless bit
/// error rate (interference/distortion/synchronization faults, §III-C),
/// and accounts communication cost (the Fig. 6b trade-off metric).
///
/// Two fault planes ride the link:
///
///  * **I.i.d. flips** (the paper's model): every bit of every payload
///    flips independently at `bit_error_rate()`. This is the scalar
///    golden path and the only one the seed knew.
///  * **The bursty/unreliable plane** (BurstyChannelConfig): a
///    Gilbert–Elliott two-state channel whose per-chunk BER switches
///    between a good and a bad state, plus chunk-level erasure (lost
///    chunks arrive as zeros). All burst-plane draws — channel weather,
///    erasure, and the flip noise itself — come from per-message streams
///    derived off the caller's
///    RNG with the non-advancing split discipline, keyed by a persistent
///    transmit sequence number. The caller's stream is never advanced by
///    the bursty path, a degenerate config (equal-state BERs, no
///    erasure) delegates verbatim to the i.i.d. path (bits,
///    counters and RNG stream position locked identical), and the
///    sequence number travels with the engine's TrainingState so a
///    mid-campaign resume replays the same channel weather.
///
/// On top of either plane, transmit_reliable() runs the checksum/retry/
/// timeout upload protocol of UploadProtocolConfig (see server.hpp for
/// how exhausted uploads degrade into the participation plane).
///
/// Every server round sends its uploads through transmit_uploads: one by
/// one in order on the caller's advancing stream, each message (retries
/// included) claiming the next sequence number as it goes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"

namespace frlfi {

/// Tag of the bursty-channel RNG plane under the caller's stream, and its
/// sub-stream kinds (derived as rng.derive_stream({kBurstyChannelStreamTag,
/// kind, transmit_seq})).
inline constexpr std::uint64_t kBurstyChannelStreamTag = 0xC4A2'77B1ULL;
inline constexpr std::uint64_t kChannelStateTag = 0x6E15ULL;  // weather
inline constexpr std::uint64_t kChannelNoiseTag = 0xB17FULL;  // flip noise

/// Gilbert–Elliott bursty-channel configuration. Inactive configs change
/// nothing; an active config whose two states share one BER with erasure
/// off is *degenerate* and takes the i.i.d. path verbatim.
struct BurstyChannelConfig {
  bool active = false;
  /// Per-bit flip probability in the good / bad channel state.
  double ber_good = 0.0;
  double ber_bad = 0.0;
  /// Per-chunk state transition probabilities. The mean bad-state dwell
  /// (mean burst length) is 1 / p_bad_to_good chunks; the chain starts
  /// each message from its stationary distribution.
  double p_good_to_bad = 0.05;
  double p_bad_to_good = 1.0;
  /// Per-chunk erasure probability: erased chunks never arrive and the
  /// receiver substitutes zeros.
  double erasure_rate = 0.0;
  /// Chunk size in parameters (elements), >= 1.
  std::size_t chunk_elems = 32;
};

/// True when `cfg` perturbs nothing beyond i.i.d. flips at ber_good —
/// the configuration the bursty path is locked bit-identical against.
inline bool bursty_degenerate(const BurstyChannelConfig& cfg) {
  return cfg.ber_good == cfg.ber_bad && cfg.erasure_rate == 0.0;
}

/// Simulated seconds charged per upload transmit attempt.
inline constexpr double kUploadAttemptSeconds = 1.0;

/// Backoff before upload retry k is kUploadBackoffSeconds * 2^(k-1)
/// simulated seconds.
inline constexpr double kUploadBackoffSeconds = 0.5;

/// Total simulated time budget per upload (attempts + backoff); an upload
/// stops retrying once the next attempt would overrun it.
inline constexpr double kUploadDeadlineSeconds = 16.0;

/// Checksum/retry/timeout upload protocol. The checksum is idealized: an
/// attempt is delivered iff the payload arrived bit-exact (a CRC over the
/// quantized wire words detecting every corruption). With max_retries ==
/// 0 a single attempt is accepted as-is — no verification is possible
/// without the ability to retransmit — so a zero-retry protocol is
/// byte-for-byte the plain transmit path (the degenerate lock), and the
/// default protocol is off.
struct UploadProtocolConfig {
  /// Retransmissions allowed after the first attempt, within
  /// kUploadDeadlineSeconds.
  std::size_t max_retries = 0;
};

/// True when the protocol can actually retry (and therefore changes the
/// round path); zero-retry protocols take the plain path.
inline bool reliable_upload_armed(const UploadProtocolConfig& cfg) {
  return cfg.max_retries > 0;
}

/// A lossy parameter transport with cost accounting.
class CommChannel {
 public:
  /// \param bit_error_rate  per-bit flip probability applied to every
  ///        payload in transit (0 = clean channel).
  explicit CommChannel(double bit_error_rate = 0.0);

  /// Transmit a parameter vector over the int8 wire format: an element
  /// that takes a bit flip at the channel BER materializes its corrupted
  /// quantized word; every untouched element arrives losslessly (both
  /// endpoints share the codec), so at BER 0 the payload comes back
  /// unchanged and no draw is made. This is the scalar golden reference
  /// transmit_rows is locked against.
  std::vector<float> transmit(const std::vector<float>& payload, Rng& rng);

  /// Transmit n_rows payloads held in a row-major n_rows x dim matrix, in
  /// place, on the advancing stream (transmit_uploads sends each upload
  /// through here as a one-row matrix). Row i is
  /// processed exactly as transmit(row i) would be (per-row calibration,
  /// one 8-draw Bernoulli word per element in row-major order), but the
  /// per-element flips collapse into a single XOR mask (the fixed-point
  /// injector's mask trick) and no per-row payload vectors are
  /// allocated. Consumes `rng` identically to n_rows scalar transmits, so
  /// the delivered bits and every counter match the scalar path. With a
  /// non-degenerate bursty config armed, each row instead rides the
  /// burst plane on its own derived streams and `rng` is not advanced.
  void transmit_rows(float* rows, std::size_t n_rows, std::size_t dim,
                     Rng& rng);

  /// One upload under the retry protocol: transmit `row` (dim floats, in
  /// place), verify the checksum, retransmit with exponential backoff
  /// until delivered, out of retries, or out of deadline budget. On
  /// success the row holds the clean delivery; on failure it is restored
  /// to the original payload (what an eventual late retransmission would
  /// deliver — the server routes it into the staleness buffer). Retry
  /// attempts charge bytes_sent and retransmit_bytes.
  struct UploadOutcome {
    std::size_t attempts = 1;
    bool delivered = true;
    /// Simulated seconds spent backing off between attempts.
    double backoff = 0.0;
  };
  UploadOutcome transmit_reliable(float* row, std::size_t dim, Rng& rng,
                                  const UploadProtocolConfig& cfg);

  /// Transmit `n_uploads` payloads (uploads[u] points at dim floats,
  /// corrupted in place) — the uplink and downlink of a server round —
  /// in order on the advancing `rng`: transmit_rows(uploads[u], 1, ...)
  /// or transmit_reliable per upload. `reliable_mask` (optional,
  /// n_uploads bytes) limits the retry protocol `proto` to the uploads
  /// marked nonzero — unmarked uploads take the plain single-attempt
  /// path, as the server does for stragglers. Outcomes (attempts/
  /// delivered/backoff) land in `outcomes[u]` when provided; counters
  /// account every attempt.
  void transmit_uploads(float* const* uploads, std::size_t n_uploads,
                        std::size_t dim, Rng& rng,
                        const UploadProtocolConfig* proto = nullptr,
                        const std::uint8_t* reliable_mask = nullptr,
                        UploadOutcome* outcomes = nullptr);

  /// Channel BER currently in force (the i.i.d. plane; ignored while a
  /// bursty config is active).
  double bit_error_rate() const { return ber_; }

  /// Change the channel BER (fault-scenario control).
  void set_bit_error_rate(double ber);

  /// Arm (or disarm, with cfg.active = false) the bursty/unreliable
  /// plane; validates probabilities and the chunk size.
  void set_bursty(const BurstyChannelConfig& cfg);
  const BurstyChannelConfig& bursty() const { return bursty_; }

  /// Messages transmitted so far.
  std::size_t messages_sent() const { return messages_; }

  /// Total payload bytes transmitted so far (int8 wire format),
  /// retransmissions included.
  std::size_t bytes_sent() const { return bytes_; }

  /// Bits flipped in transit so far.
  std::size_t bits_corrupted() const { return corrupted_; }

  /// Bytes charged by protocol retransmissions (also counted in
  /// bytes_sent — this is the Fig. 6b retry overhead, broken out).
  std::size_t retransmit_bytes() const { return retransmit_bytes_; }

  /// Chunks erased by the burst plane.
  std::size_t chunks_erased() const { return chunks_erased_; }

  /// The persistent transmit sequence number keying the burst plane's
  /// per-message derived streams. Unlike the cost counters it is
  /// timeline state: the engine carries it in TrainingState so a
  /// restored campaign replays the same channel weather.
  std::uint64_t transmit_seq() const { return seq_; }
  void set_transmit_seq(std::uint64_t seq) { seq_ = seq; }

 private:
  /// One message through the non-degenerate burst plane: weather and
  /// erasure from the state stream, flips from the noise stream, both
  /// derived (non-advancing) off `rng` and keyed by `seq`.
  void transmit_row_bursty(float* row, std::size_t dim, const Rng& rng,
                           std::uint64_t seq);

  /// Apply the wire-bit hits in hits_ (hit h: bit h % 8 of element h / 8,
  /// increasing) to `row`'s int8 words through the row's calibration, and
  /// count them.
  void flip_wire_hits(float* row, std::size_t dim);

  double ber_;
  BurstyChannelConfig bursty_;
  std::size_t messages_ = 0;
  std::size_t bytes_ = 0;
  std::size_t corrupted_ = 0;
  std::size_t retransmit_bytes_ = 0;
  std::size_t chunks_erased_ = 0;
  std::uint64_t seq_ = 0;
  // Noise, burst-plane and retry-protocol scratch, reused across messages.
  std::vector<std::uint32_t> hits_;
  std::vector<std::uint8_t> chunk_bad_;
  std::vector<std::uint8_t> chunk_lost_;
  std::vector<float> orig_;
};

}  // namespace frlfi
