#pragma once

/// \file range_detector.hpp
/// Range-based anomaly detection for inference (§V-B): before steady
/// exploitation begins, the per-layer weight ranges (w_min, w_max) are
/// tallied and widened by a 10% margin; any weight later observed outside
/// [1.1*w_min, 1.1*w_max] is flagged as a fault symptom and the operation
/// around it is skipped — implemented, as in the paper's reference [24],
/// by suppressing the anomalous value to zero (NNs are sparse and
/// zero-centred, so zero is the maximum-likelihood repair).

#include <cstddef>
#include <span>
#include <vector>

#include "fault/overlay.hpp"
#include "nn/network.hpp"

namespace frlfi {

/// Per-layer calibrated weight-range detector.
class RangeAnomalyDetector {
 public:
  /// Calibration options.
  struct Options {
    /// Range widening factor (the paper applies a 10% margin).
    double margin = 0.10;
  };

  /// Calibrate from a healthy network's per-parameter-tensor ranges.
  RangeAnomalyDetector(Network& healthy_network, Options opts);

  /// Scan a (possibly corrupted) network with the calibrated ranges,
  /// zeroing every out-of-range weight. Returns the number of suppressed
  /// weights. The network must have the same topology as the calibration
  /// network.
  std::size_t scan_and_suppress(Network& net) const;

  /// Overlay-plane scan_and_suppress: walk the *effective* weights of the
  /// fault-overlay view (base + overlay; flat layout in calibration
  /// order) and record a zero-suppression in `overlay` for every
  /// out-of-range value — bit-for-bit the repairs scan_and_suppress(net)
  /// would write, with nothing mutated but the caller's overlay. Base
  /// stays untouched, so concurrent lanes can screen their own overlays
  /// against one shared deployed base.
  ///
  /// With `base_hits` (the result of base_out_of_range on the same base),
  /// the O(params) base walk is skipped: the scan merges the precomputed
  /// hit list with the sparse overlay, so a campaign paying the base scan
  /// once screens each strike in O(overlay entries) — identical output.
  std::size_t scan_and_suppress(
      std::span<const float> base, WeightOverlay& overlay,
      const std::vector<std::size_t>* base_hits = nullptr) const;

  /// Ascending flat indices of base values outside their tensor's
  /// calibrated range — the shareable per-(detector, base) precomputation
  /// behind scan_and_suppress's fast path (usually empty: a deployed
  /// round-trip of the calibration weights stays in range).
  std::vector<std::size_t> base_out_of_range(
      std::span<const float> base) const;

  /// Number of calibrated parameter tensors.
  std::size_t tensor_count() const { return ranges_.size(); }

 private:
  struct Range {
    float lo;
    float hi;
  };
  std::vector<Range> ranges_;
  std::vector<std::size_t> sizes_;  // scalars per calibrated tensor
};

}  // namespace frlfi
