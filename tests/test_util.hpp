#pragma once

/// \file test_util.hpp
/// Miniature deterministic environments for exercising the RL and
/// evaluation machinery without the full navigation stacks, plus small
/// helpers that build test inputs and the scalar server-round oracle from
/// the library's public API.

#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "federated/server.hpp"
#include "nn/network.hpp"
#include "rl/env.hpp"
#include "tensor/gemm.hpp"

namespace frlfi::testing {

/// A 1-D tensor holding `values`.
inline Tensor tensor_of(std::vector<float> values) {
  Tensor t({values.size()});
  t.data() = std::move(values);
  return t;
}

/// A tensor of `shape` with every element `v`.
inline Tensor filled(std::vector<std::size_t> shape, float v) {
  Tensor t(std::move(shape));
  t.fill(v);
  return t;
}

/// Sum of a tensor's elements in storage order.
inline float sum_of(const Tensor& t) {
  return std::accumulate(t.data().begin(), t.data().end(), 0.0f);
}

/// True when this build reduces the packed-narrow GEMM's dot products with
/// the tree of the portable Release build the golden digests were recorded
/// on (see gemm.cpp). Sanitizer instrumentation keeps that reduction
/// sequential, so digests that cross a narrow kernel (the drone policy's
/// conv2 stage, 3 output positions) round differently there.
inline bool narrow_reduction_is_portable() {
  constexpr std::size_t k = 64;
  std::vector<float> a(k), b(k);
  for (std::size_t p = 0; p < k; ++p) {
    a[p] = 1.0f + 0.001f * static_cast<float>(p);
    b[p] = (p % 3 == 0 ? 3.0e3f : 1.7e-2f) * (p % 2 ? -1.0f : 1.0f);
  }
  const float bias = 0.0f;
  float c = 0.0f;
  gemm_bias_rows(a.data(), b.data(), &bias, &c, 1, k, 1);
  std::uint32_t bits;
  std::memcpy(&bits, &c, sizeof bits);
  return bits == 0xC2C5FF00u;  // the sequential chain gives 0xC2C5FF60
}

/// FNV-1a over raw bytes: the golden digests' hash.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001B3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f32(float v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void floats(std::span<const float> v) {
    bytes(v.data(), v.size() * sizeof(float));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// dLoss/dInput of the last cached net.forward(): every layer's cached
/// backward, last layer first. (Network's training backward skips layer
/// 0's input gradient, so this is where the input gradient comes from.)
inline Tensor backward_through_layers(Network& net, Tensor grad_output) {
  for (std::size_t i = net.layer_count(); i-- > 0;)
    grad_output = net.layer(i).backward(grad_output);
  return grad_output;
}

/// One round with every agent Present (the plan-free engine's round):
/// `rows` holds agent i's upload in row i on entry and its downlink
/// payload on return.
inline RoundParticipationReport full_round(ParameterServer& srv,
                                           std::span<float> rows, Rng& rng) {
  const std::vector<AgentRoundStatus> status(srv.agent_count(),
                                             AgentRoundStatus::Present);
  return srv.communicate_round(rows, status, ParticipationPlan{}, rng);
}

/// The synchronous round composed from the scalar primitives
/// (CommChannel::transmit, smoothing_average, mean_parameters, hook,
/// downlink transmits), each pinned independently — the oracle the
/// all-Present communicate_round is locked against.
inline std::vector<std::vector<float>> frozen_scalar_round(
    const std::vector<std::vector<float>>& uploads, CommChannel& channel,
    double alpha, Rng& rng, std::vector<float>* consensus_out,
    const std::function<void(std::vector<std::vector<float>>&)>& hook =
        nullptr) {
  std::vector<std::vector<float>> up;
  up.reserve(uploads.size());
  for (const auto& p : uploads) up.push_back(channel.transmit(p, rng));
  std::vector<std::vector<float>> agg = smoothing_average(up, alpha);
  if (consensus_out != nullptr) *consensus_out = mean_parameters(agg);
  if (hook) hook(agg);
  std::vector<std::vector<float>> down;
  down.reserve(agg.size());
  for (const auto& p : agg) down.push_back(channel.transmit(p, rng));
  return down;
}

/// A length-N chain: state x in [0, N]; action 1 moves right (+1), action
/// 0 moves left (-1, floored at 0). Reaching N is success (+1 reward);
/// every other step costs -0.01. Observation: x/N as a single feature.
class ChainEnv final : public Environment {
 public:
  explicit ChainEnv(std::size_t length = 6) : length_(length) {}

  Tensor reset(Rng& /*rng*/) override {
    pos_ = 0;
    return observe();
  }

  StepResult step(std::size_t action, Rng& /*rng*/) override {
    if (action == 1) {
      ++pos_;
    } else if (pos_ > 0) {
      --pos_;
    }
    StepResult r;
    if (pos_ >= length_) {
      r.reward = 1.0f;
      r.done = true;
      r.success = true;
    } else {
      r.reward = -0.01f;
    }
    r.observation = observe();
    return r;
  }

  std::size_t action_count() const override { return 2; }
  std::vector<std::size_t> observation_shape() const override { return {1}; }

  std::size_t position() const { return pos_; }

 private:
  Tensor observe() const {
    Tensor t({1});
    t[0] = static_cast<float>(pos_) / static_cast<float>(length_);
    return t;
  }
  std::size_t length_;
  std::size_t pos_ = 0;
};

/// A one-step bandit with `arms` actions; pulling arm `best` yields +1,
/// anything else 0. The episode ends after one pull.
class BanditEnv final : public Environment {
 public:
  BanditEnv(std::size_t arms, std::size_t best) : arms_(arms), best_(best) {}

  Tensor reset(Rng& /*rng*/) override { return filled({1}, 1.0f); }

  StepResult step(std::size_t action, Rng& /*rng*/) override {
    StepResult r;
    r.reward = action == best_ ? 1.0f : 0.0f;
    r.done = true;
    r.success = action == best_;
    r.observation = filled({1}, 1.0f);
    return r;
  }

  std::size_t action_count() const override { return arms_; }
  std::vector<std::size_t> observation_shape() const override { return {1}; }

 private:
  std::size_t arms_, best_;
};

}  // namespace frlfi::testing

// The golden digests pin the portable build's rounding; an FMA-contracting
// native build computes different (equally valid) bits.
#ifdef __FMA__
#define SKIP_ON_FMA() \
  GTEST_SKIP() << "digests are recorded for the portable (no-FMA) build"
#else
#define SKIP_ON_FMA() (void)0
#endif

// Digests that cross the conv stack's narrow GEMM kernels, whose reduction
// tree sanitizer builds do not share.
#define SKIP_UNLESS_PORTABLE_NARROW_REDUCTION()                          \
  if (!::frlfi::testing::narrow_reduction_is_portable())                \
  GTEST_SKIP() << "digests are recorded for the portable build's "      \
                  "narrow-GEMM reduction tree"
