#include "nn/activations.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/codegen.hpp"  // FRLFI_TARGET_CLONES

namespace frlfi {
namespace {

// Branchless in-place clamp for the batched path: the per-sample loop's
// `if (v < 0)` store-under-branch mispredicts on random activations, while
// the ternary compiles to a vector max. Elementwise, so the AVX2 clone is
// bit-identical (see core/codegen.hpp).
FRLFI_TARGET_CLONES
void relu_inplace(float* FRLFI_RESTRICT v, std::size_t n) {
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) v[i] = v[i] < 0.0f ? 0.0f : v[i];
}

}  // namespace

ReLU::ReLU(std::string layer_name) : label_(std::move(layer_name)) {}

Tensor ReLU::forward(const Tensor& input, Tape& tape) {
  tape.record(input);
  Tensor out = input;
  relu_inplace(out.data().data(), out.size());
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output, Tape& tape,
                      bool need_input_grad) {
  const Tape::Record& r = tape.pop();
  FRLFI_CHECK(grad_output.size() == r.size());
  if (!need_input_grad) return {};
  Tensor grad_input = grad_output;
  float* g = grad_input.data().data();
  const float* x = r.values();
  // A select, not a branch: the signs are unpredictable. NaN inputs pass
  // the gradient, both zeros block it.
  for (std::size_t i = 0; i < grad_input.size(); ++i)
    g[i] = x[i] <= 0.0f ? 0.0f : g[i];
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
