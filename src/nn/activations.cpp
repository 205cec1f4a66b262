#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "tensor/gemm.hpp"  // FRLFI_TARGET_CLONES

namespace frlfi {
namespace {

// Branchless in-place clamp for the batched path: the per-sample loop's
// `if (v < 0)` store-under-branch mispredicts on random activations, while
// the ternary compiles to a vector max. Elementwise, so the AVX2 clone is
// bit-identical (see gemm.hpp).
FRLFI_TARGET_CLONES
void relu_inplace(float* FRLFI_RESTRICT v, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) v[i] = v[i] < 0.0f ? 0.0f : v[i];
}

}  // namespace

ReLU::ReLU(std::string layer_name) : label_(std::move(layer_name)) {}

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out = input;
  for (auto& v : out.data())
    if (v < 0.0f) v = 0.0f;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  FRLFI_CHECK_MSG(!cached_input_.empty(), label_ << ": backward before forward");
  FRLFI_CHECK(grad_output.size() == cached_input_.size());
  Tensor grad_input = grad_output;
  for (std::size_t i = 0; i < grad_input.size(); ++i)
    if (cached_input_[i] <= 0.0f) grad_input[i] = 0.0f;
  return grad_input;
}

Tensor ReLU::infer(Tensor input, std::size_t batch, const ParamSource&) {
  FRLFI_CHECK(batch >= 1 && input.size() % batch == 0);
  relu_inplace(input.data().data(), input.size());
  return input;
}

std::string ReLU::name() const { return label_ + "(ReLU)"; }

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>(label_);
}

Tensor softmax(const Tensor& logits) {
  FRLFI_CHECK(!logits.empty());
  Tensor out = logits;
  const float m = logits.max();
  float total = 0.0f;
  for (auto& v : out.data()) {
    v = std::exp(v - m);
    total += v;
  }
  // total >= 1 because the max element contributes exp(0) = 1.
  for (auto& v : out.data()) v /= total;
  return out;
}

float log_softmax_at(const Tensor& logits, std::size_t index) {
  FRLFI_CHECK(index < logits.size());
  const float m = logits.max();
  float total = 0.0f;
  for (std::size_t i = 0; i < logits.size(); ++i)
    total += std::exp(logits[i] - m);
  return (logits[index] - m) - std::log(total);
}

}  // namespace frlfi
