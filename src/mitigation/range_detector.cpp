#include "mitigation/range_detector.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace frlfi {
namespace {

/// Widen a bound away from zero by `margin` (a 10% margin on a negative
/// minimum must move it more negative).
float widen(float bound, double margin, bool is_low) {
  const auto m = static_cast<float>(margin);
  if (is_low) return bound <= 0.0f ? bound * (1.0f + m) : bound * (1.0f - m);
  return bound >= 0.0f ? bound * (1.0f + m) : bound * (1.0f - m);
}

}  // namespace

RangeAnomalyDetector::RangeAnomalyDetector(Network& healthy_network,
                                           Options opts) {
  FRLFI_CHECK(opts.margin >= 0.0);
  for (Parameter* p : healthy_network.parameters()) {
    const auto& w = p->value.data();
    FRLFI_CHECK(!w.empty());
    const auto [mn, mx] = std::minmax_element(w.begin(), w.end());
    ranges_.push_back({widen(*mn, opts.margin, true),
                       widen(*mx, opts.margin, false)});
    sizes_.push_back(w.size());
  }
  FRLFI_CHECK_MSG(!ranges_.empty(), "network has no parameters to calibrate");
}

template <typename Fn>
std::size_t RangeAnomalyDetector::for_each_out_of_range(Network& net,
                                                        Fn&& fn) const {
  auto params = net.parameters();
  FRLFI_CHECK_MSG(params.size() == ranges_.size(),
                  "topology mismatch: " << params.size() << " tensors vs "
                                        << ranges_.size() << " calibrated");
  std::size_t hits = 0;
  for (std::size_t t = 0; t < params.size(); ++t) {
    const Range r = ranges_[t];
    for (float& w : params[t]->value.data()) {
      if (w < r.lo || w > r.hi) {
        ++hits;
        fn(w);
      }
    }
  }
  return hits;
}

std::size_t RangeAnomalyDetector::scan_and_suppress(Network& net) const {
  return for_each_out_of_range(net, [](float& w) { w = 0.0f; });
}

std::size_t RangeAnomalyDetector::scan(Network& net) const {
  return for_each_out_of_range(net, [](float&) {});
}

std::size_t RangeAnomalyDetector::scan_and_suppress(
    std::span<const float> base, WeightOverlay& overlay,
    const std::vector<std::size_t>* base_hits) const {
  std::size_t total = 0;
  for (const std::size_t s : sizes_) total += s;
  FRLFI_CHECK_MSG(base.size() == total, "flat size " << base.size() << " vs "
                                                     << total
                                                     << " calibrated scalars");
  WeightOverlay merged;
  std::size_t hits = 0;
  if (base_hits == nullptr) {
    // Merge-walk the whole flat space against the sorted overlay,
    // rebuilding it with suppressions folded in. The same index set
    // scan_and_suppress(net) zeroes: every effective value outside its
    // tensor's range (NaNs compare false on both sides there too, so both
    // paths keep them).
    std::size_t e = 0, i = 0;
    for (std::size_t t = 0; t < sizes_.size(); ++t) {
      const Range r = ranges_[t];
      for (const std::size_t end = i + sizes_[t]; i < end; ++i) {
        const bool overlaid = e < overlay.size() && overlay.indices[e] == i;
        const float v = overlaid ? overlay.values[e] : base[i];
        if (overlaid) ++e;
        if (v < r.lo || v > r.hi) {
          merged.add(i, 0.0f);
          ++hits;
        } else if (overlaid) {
          merged.add(i, v);
        }
      }
    }
  } else {
    // Fast path: base indices outside the overlay can only be hits where
    // the precomputed list says so; only overlay entries need a range
    // check. Merge the two ascending sequences.
    std::size_t tensor = 0, tensor_end = sizes_.empty() ? 0 : sizes_[0];
    const auto range_for = [&](std::size_t i) {
      while (i >= tensor_end) tensor_end += sizes_[++tensor];
      return ranges_[tensor];
    };
    std::size_t e = 0, h = 0;
    while (e < overlay.size() || h < base_hits->size()) {
      const bool take_overlay =
          e < overlay.size() && (h >= base_hits->size() ||
                                 overlay.indices[e] <= (*base_hits)[h]);
      if (take_overlay) {
        const std::size_t i = overlay.indices[e];
        if (h < base_hits->size() && (*base_hits)[h] == i) ++h;  // superseded
        const float v = overlay.values[e];
        const Range r = range_for(i);
        if (v < r.lo || v > r.hi) {
          merged.add(i, 0.0f);
          ++hits;
        } else {
          merged.add(i, v);
        }
        ++e;
      } else {
        merged.add((*base_hits)[h], 0.0f);
        ++hits;
        ++h;
      }
    }
  }
  overlay = std::move(merged);
  return hits;
}

std::size_t RangeAnomalyDetector::scan_and_suppress(
    std::span<const float> base, float scale, QuantOverlay& overlay,
    const std::vector<std::size_t>* base_hits) const {
  std::size_t total = 0;
  for (const std::size_t s : sizes_) total += s;
  FRLFI_CHECK_MSG(base.size() == total, "flat size " << base.size() << " vs "
                                                     << total
                                                     << " calibrated scalars");
  // Mirror of the float-overlay scan above, with overlay entries
  // dequantized on the fly and suppressions recorded as word 0 (the exact
  // quant encoding of 0.0f). Both branches visit the same index set the
  // float scan would over the equivalent float overlay.
  QuantOverlay merged;
  std::size_t hits = 0;
  if (base_hits == nullptr) {
    std::size_t e = 0, i = 0;
    for (std::size_t t = 0; t < sizes_.size(); ++t) {
      const Range r = ranges_[t];
      for (const std::size_t end = i + sizes_[t]; i < end; ++i) {
        const bool overlaid = e < overlay.size() && overlay.indices[e] == i;
        const std::int8_t q = overlaid ? overlay.words[e] : 0;
        const float v = overlaid ? static_cast<float>(q) * scale : base[i];
        if (overlaid) ++e;
        if (v < r.lo || v > r.hi) {
          merged.add(i, 0);
          ++hits;
        } else if (overlaid) {
          merged.add(i, q);
        }
      }
    }
  } else {
    std::size_t tensor = 0, tensor_end = sizes_.empty() ? 0 : sizes_[0];
    const auto range_for = [&](std::size_t i) {
      while (i >= tensor_end) tensor_end += sizes_[++tensor];
      return ranges_[tensor];
    };
    std::size_t e = 0, h = 0;
    while (e < overlay.size() || h < base_hits->size()) {
      const bool take_overlay =
          e < overlay.size() && (h >= base_hits->size() ||
                                 overlay.indices[e] <= (*base_hits)[h]);
      if (take_overlay) {
        const std::size_t i = overlay.indices[e];
        if (h < base_hits->size() && (*base_hits)[h] == i) ++h;  // superseded
        const std::int8_t q = overlay.words[e];
        const float v = static_cast<float>(q) * scale;
        const Range r = range_for(i);
        if (v < r.lo || v > r.hi) {
          merged.add(i, 0);
          ++hits;
        } else {
          merged.add(i, q);
        }
        ++e;
      } else {
        merged.add((*base_hits)[h], 0);
        ++hits;
        ++h;
      }
    }
  }
  overlay = std::move(merged);
  return hits;
}

std::vector<std::size_t> RangeAnomalyDetector::base_out_of_range(
    std::span<const float> base) const {
  std::size_t total = 0;
  for (const std::size_t s : sizes_) total += s;
  FRLFI_CHECK_MSG(base.size() == total, "flat size " << base.size() << " vs "
                                                     << total
                                                     << " calibrated scalars");
  std::vector<std::size_t> hits;
  std::size_t i = 0;
  for (std::size_t t = 0; t < sizes_.size(); ++t) {
    const Range r = ranges_[t];
    for (const std::size_t end = i + sizes_[t]; i < end; ++i)
      if (base[i] < r.lo || base[i] > r.hi) hits.push_back(i);
  }
  return hits;
}

std::pair<float, float> RangeAnomalyDetector::bounds(std::size_t t) const {
  FRLFI_CHECK(t < ranges_.size());
  return {ranges_[t].lo, ranges_[t].hi};
}

}  // namespace frlfi
