#include "nn/optimizer.hpp"

#include <cmath>

#include "core/error.hpp"
#include "tensor/gemm.hpp"

namespace frlfi {
namespace {

// Sum of g·g over one gradient in sixteen independent double lanes, so
// in no fixed order: enough lanes to hide the add latency, and a constant
// count the compiler keeps in vector registers. The vector width sets the
// summation tree, which is why this reduction may take the wider-vector
// clones: its only use is the bound below, which holds for every tree.
FRLFI_TARGET_CLONES
double lane_sum_squares(const float* FRLFI_RESTRICT g, std::size_t n) {
  double lanes[16] = {};
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
#pragma GCC unroll 16
    for (std::size_t l = 0; l < 16; ++l)
      lanes[l] += static_cast<double>(g[i + l]) * g[i + l];
  }
  for (std::size_t l = 0; i < n; ++i, ++l)
    lanes[l] += static_cast<double>(g[i]) * g[i];
  double sum = 0.0;
  for (const double lane : lanes) sum += lane;
  return sum;
}

// Upper bound on the ordered double sum of squares the clip norm uses.
// Every term g·g is exact in double (a float's 24-bit significand squared
// fits in 53 bits, and its exponent stays in the normal range) and
// non-negative. Any summation tree over K such terms, rounded to nearest,
// lies within a factor (1 ± u)^(K-1) of the exact sum, u = 2^-53. So the
// ordered chain is at most screen · ((1+u)/(1-u))^(K-1) <= screen ·
// (1 + 3Ku), and the rounded product screen · (1 + 4Ku) stays above that
// for every K < 2^51 (1 + 4Ku = 1 + K·2^-51 is exact there). A NaN or
// infinite gradient makes the bound NaN or infinite, which no comparison
// accepts.
double sum_squares_upper_bound(const std::vector<Parameter*>& params) {
  double screen = 0.0;
  std::size_t terms = 0;
  for (const Parameter* p : params) {
    screen += lane_sum_squares(p->grad.data().data(), p->grad.size());
    terms += p->grad.size();
  }
  return screen * (1.0 + static_cast<double>(terms) * 0x1p-51);
}

// Global-norm clip factor: clip_norm / ||g|| when the norm exceeds
// clip_norm, else 1. The norm comes from the ordered double chain, whose
// bits set the factor; the screen only skips that chain when even its
// upper bound leaves the norm at or below clip_norm (c·c is exact in
// double, and sqrt is monotone and correctly rounded, so sum <= c·c
// implies sqrt(sum) <= c).
float clip_scale(const std::vector<Parameter*>& params, float clip_norm) {
  if (!(clip_norm > 0.0f)) return 1.0f;
  const double c = clip_norm;
  if (sum_squares_upper_bound(params) <= c * c) return 1.0f;
  double sq = 0.0;
  for (const Parameter* p : params)
    for (float g : p->grad.data()) sq += static_cast<double>(g) * g;
  const double norm = std::sqrt(sq);
  return norm > clip_norm ? static_cast<float>(clip_norm / norm) : 1.0f;
}

}  // namespace

SgdOptimizer::SgdOptimizer(Network& net, Options opts)
    : net_(&net), opts_(opts) {
  FRLFI_CHECK(opts_.learning_rate > 0.0f && std::isfinite(opts_.learning_rate));
  FRLFI_CHECK(opts_.momentum >= 0.0f && opts_.momentum < 1.0f);
  FRLFI_CHECK(opts_.clip_norm >= 0.0f);  // NaN fails too
  if (opts_.momentum > 0.0f)
    for (Parameter* p : net_->parameters()) velocity_.emplace_back(p->value.shape());
}

// step() takes the wider-vector clones: its update loops are elementwise
// and the clip norm's ordered chain is scalar, so every clone computes the
// same bits. No aligned(32): placing step() on a 32-byte boundary read the
// same as not doing so (frlbench grid_train, 8 alternating pairs, per-pair
// median ratio 0.99, 4-thread x86-64 host).
FRLFI_TARGET_CLONES
void SgdOptimizer::step() {
  auto params = net_->parameters();
  // The update multiplies (lr · scale) · g: the association the golden
  // training trajectories pin.
  const float step_size = opts_.learning_rate * clip_scale(params, opts_.clip_norm);
  const float momentum = opts_.momentum;

  // One pass per parameter: update, then clear the gradient it read.
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    float* FRLFI_RESTRICT w = p->value.data().data();
    float* FRLFI_RESTRICT g = p->grad.data().data();
    const std::size_t n = p->value.size();
    if (momentum > 0.0f) {
      float* FRLFI_RESTRICT v = velocity_[pi].data().data();
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = momentum * v[i] - step_size * g[i];
        w[i] += v[i];
        g[i] = 0.0f;
      }
    } else {
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i) {
        w[i] -= step_size * g[i];
        g[i] = 0.0f;
      }
    }
  }
}

}  // namespace frlfi
