#include "fault/activation_injector.hpp"

#include <span>

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "numeric/quantize.hpp"

namespace frlfi {

ActivationFaultInjector::ActivationFaultInjector(Options opts,
                                                 std::uint64_t seed)
    : opts_(opts), rng_(seed) {
  FRLFI_CHECK_MSG(opts_.ber >= 0.0 && opts_.ber <= 1.0, "BER " << opts_.ber);
  FRLFI_CHECK(opts_.headroom >= 1.0f);
  FRLFI_CHECK_MSG(opts_.model == FaultModel::TransientSingleStep ||
                      opts_.model == FaultModel::TransientPersistent,
                  "activation faults are transient (buffers are rewritten "
                  "every pass); stuck-at belongs to weight memory");
}

void ActivationFaultInjector::attach(Network& net) {
  net.set_activation_hook(
      [this](std::size_t layer, Tensor& act) { maybe_corrupt(layer, act); });
}

void ActivationFaultInjector::detach(Network& net) {
  net.set_activation_hook(nullptr);
}

void ActivationFaultInjector::arm() {
  armed_ = true;
  pass_touched_ = false;
}

void ActivationFaultInjector::maybe_corrupt(std::size_t layer,
                                            Tensor& activation) {
  // Track forward-pass boundaries: layer indices restart from <= last.
  // A single-step fault covers exactly one full pass, so it disarms when
  // the pass after a corrupted one begins.
  if (layer <= last_layer_seen_) {
    if (pass_touched_ && opts_.model == FaultModel::TransientSingleStep)
      armed_ = false;
    pass_touched_ = false;
  }
  last_layer_seen_ = layer;

  const bool live =
      opts_.model == FaultModel::TransientPersistent || armed_;
  if (!live || opts_.ber <= 0.0) return;
  if (opts_.layer_index != Options::kAllLayers &&
      layer != opts_.layer_index)
    return;

  // Quantize the activation buffer with headroom, corrupt, dequantize.
  auto& data = activation.data();
  if (data.empty()) return;
  float max_abs = 0.0f;
  for (float v : data) max_abs = std::max(max_abs, std::abs(v));
  const Int8Quantizer q(std::max(max_abs, 1e-6f) * opts_.headroom / 127.0f);
  std::vector<std::int8_t> qs(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) qs[i] = q.quantize(data[i]);
  auto bytes = std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(qs.data()), qs.size());
  FaultSpec spec;
  spec.model = opts_.model;
  spec.ber = opts_.ber;
  spec.direction = opts_.direction;
  const std::size_t flips = corrupt_words(bytes, 8, spec, rng_);
  if (flips == 0) return;
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = q.dequantize(qs[i]);

  flipped_ += flips;
  if (!pass_touched_) {
    ++corrupted_passes_;
    pass_touched_ = true;
  }
}

}  // namespace frlfi
