#pragma once

/// \file trace.hpp
/// Benchmark-side tracing. Spans are recorded only in the benchmark's own
/// files, around calls into the library's public entry points: the round
/// engine's agent hooks, an Environment decorator, a Layer decorator on
/// the training networks, the activation hook on inference forwards, and
/// the strike/screen calls of the inference campaign. Nothing inside the
/// library is instrumented, so the untraced run executes exactly the code
/// users run.
///
/// A span's self time is its duration minus the time its child spans
/// cover; the per-layer numbers are self times, so they add up to the
/// traced wall time (trace.coverage) without double counting.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "rl/env.hpp"

namespace frlbench {

/// Where a span is attributed (metric prefix in parentheses).
enum class Site : std::size_t {
  kFederatedRound,      // federated.round: engine self time (server round)
  kRlLearn,             // rl.learn: learner self time (optimizer, returns)
  kDronesimStep,        // dronesim.step
  kDronesimReset,       // dronesim.reset
  kEnvsStep,            // envs.step (GridWorld)
  kEnvsReset,           // envs.reset (GridWorld)
  kNnForward,           // nn.forward
  kNnBackward,          // nn.backward
  kFaultInject,         // fault.inject
  kMitigationDetector,  // mitigation.detector
  kCampaign,            // campaign.loop: the inference lockstep loop
  kCount,
};

/// Per-layer forward slots reported as nn.forward.<index>_us (the drone
/// policy has 10 layers, the GridWorld policy 5).
inline constexpr std::size_t kMaxNetLayers = 10;

/// Span stack plus the counters recorded at the same boundaries.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Spans are recorded only while enabled (set/reset outside any span).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void push(Site site);
  /// Close the innermost span; returns its self time in nanoseconds.
  std::int64_t pop();

  /// Nanoseconds of self time attributed to `site` so far.
  std::int64_t self_ns(Site site) const {
    return self_ns_[static_cast<std::size_t>(site)];
  }
  /// Spans closed for `site` so far.
  std::uint64_t spans(Site site) const {
    return spans_[static_cast<std::size_t>(site)];
  }
  /// Forward time of network layer `index` (nn.forward.<index>).
  std::int64_t forward_layer_ns(std::size_t index) const {
    return forward_layer_ns_[index];
  }
  void add_forward_layer_ns(std::size_t index, std::int64_t ns) {
    if (index < kMaxNetLayers) forward_layer_ns_[index] += ns;
  }

  /// Counters (recorded only while enabled).
  std::uint64_t forward_calls = 0;  // whole-network forward passes
  std::uint64_t strikes = 0;        // fault injection calls
  std::uint64_t bits_flipped = 0;
  std::uint64_t bits_scanned = 0;   // bits the injector drew for
  std::uint64_t suppressed = 0;     // detector zero-repairs

 private:
  struct Frame {
    Site site;
    Clock::time_point start;
    std::int64_t child_ns;
  };
  bool enabled_ = false;
  std::vector<Frame> stack_;
  std::array<std::int64_t, static_cast<std::size_t>(Site::kCount)> self_ns_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Site::kCount)> spans_{};
  std::array<std::int64_t, kMaxNetLayers> forward_layer_ns_{};
};

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, Site site) : tracer_(tracer.enabled() ? &tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->push(site);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->pop();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Layer decorator for the training networks: times forward() (per layer
/// index) and backward() around the wrapped layer. Only the training
/// entry points are forwarded — the networks it wraps never run the
/// batched or view-directed inference paths (those fall back to the
/// Layer defaults).
class TracedLayer final : public frlfi::Layer {
 public:
  TracedLayer(std::unique_ptr<frlfi::Layer> inner, std::size_t index,
              Tracer& tracer)
      : inner_(std::move(inner)), index_(index), tracer_(tracer) {}

  frlfi::Tensor forward(const frlfi::Tensor& input) override;
  frlfi::Tensor backward(const frlfi::Tensor& grad_output) override;
  std::vector<frlfi::Parameter*> parameters() override {
    return inner_->parameters();
  }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<frlfi::Layer> clone() const override {
    return std::make_unique<TracedLayer>(inner_->clone(), index_, tracer_);
  }

 private:
  std::unique_ptr<frlfi::Layer> inner_;
  std::size_t index_;
  Tracer& tracer_;
};

/// A copy of `plain` (same topology and parameters) whose layers are
/// wrapped in TracedLayer.
frlfi::Network traced_network(const frlfi::Network& plain, Tracer& tracer);

/// Environment decorator timing reset() and step() of the wrapped
/// environment under the given sites.
class TracedEnv final : public frlfi::Environment {
 public:
  TracedEnv(std::unique_ptr<frlfi::Environment> inner, Tracer& tracer,
            Site step_site, Site reset_site)
      : inner_(std::move(inner)),
        tracer_(tracer),
        step_site_(step_site),
        reset_site_(reset_site) {}

  frlfi::Tensor reset(frlfi::Rng& rng) override {
    const Span span(tracer_, reset_site_);
    return inner_->reset(rng);
  }
  frlfi::StepResult step(std::size_t action, frlfi::Rng& rng) override {
    const Span span(tracer_, step_site_);
    return inner_->step(action, rng);
  }
  std::size_t action_count() const override { return inner_->action_count(); }
  std::vector<std::size_t> observation_shape() const override {
    return inner_->observation_shape();
  }

  frlfi::Environment& inner() { return *inner_; }

 private:
  std::unique_ptr<frlfi::Environment> inner_;
  Tracer& tracer_;
  Site step_site_;
  Site reset_site_;
};

}  // namespace frlbench
