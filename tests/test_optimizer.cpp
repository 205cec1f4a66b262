#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "nn/dense.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

Network one_dense(Rng& rng) {
  Network net;
  net.add(std::make_unique<Dense>(1, 1, rng));
  return net;
}

TEST(Sgd, PlainStepMovesAgainstGradient) {
  Rng rng(1);
  Network net = one_dense(rng);
  auto params = net.parameters();
  params[0]->value[0] = 1.0f;
  params[0]->grad[0] = 2.0f;
  params[1]->grad[0] = -1.0f;
  SgdOptimizer opt(net, {.learning_rate = 0.1f, .momentum = 0.0f, .clip_norm = 0.0f});
  opt.step();
  EXPECT_FLOAT_EQ(params[0]->value[0], 0.8f);
  EXPECT_FLOAT_EQ(params[1]->value[0], 0.1f);
  // Gradients cleared after the step.
  EXPECT_EQ(params[0]->grad[0], 0.0f);
}

TEST(Sgd, MomentumAccumulatesVelocity) {
  Rng rng(2);
  Network net = one_dense(rng);
  auto params = net.parameters();
  params[0]->value[0] = 0.0f;
  SgdOptimizer opt(net, {.learning_rate = 0.1f, .momentum = 0.5f, .clip_norm = 0.0f});
  params[0]->grad[0] = 1.0f;
  opt.step();
  EXPECT_FLOAT_EQ(params[0]->value[0], -0.1f);  // v = -0.1
  params[0]->grad[0] = 1.0f;
  opt.step();
  // v = 0.5*(-0.1) - 0.1 = -0.15; w = -0.25
  EXPECT_FLOAT_EQ(params[0]->value[0], -0.25f);
}

TEST(Sgd, ClippingBoundsUpdateNorm) {
  Rng rng(3);
  Network net = one_dense(rng);
  auto params = net.parameters();
  params[0]->value[0] = 0.0f;
  params[1]->value[0] = 0.0f;
  params[0]->grad[0] = 300.0f;
  params[1]->grad[0] = 400.0f;  // norm 500
  SgdOptimizer opt(net, {.learning_rate = 1.0f, .momentum = 0.0f, .clip_norm = 5.0f});
  opt.step();
  // Scaled by 5/500: updates -3, -4 -> norm 5.
  EXPECT_FLOAT_EQ(params[0]->value[0], -3.0f);
  EXPECT_FLOAT_EQ(params[1]->value[0], -4.0f);
}

TEST(Sgd, NoClippingBelowThreshold) {
  Rng rng(4);
  Network net = one_dense(rng);
  auto params = net.parameters();
  params[0]->value[0] = 0.0f;
  params[1]->value[0] = 0.0f;
  params[0]->grad[0] = 1.0f;
  SgdOptimizer opt(net, {.learning_rate = 1.0f, .momentum = 0.0f, .clip_norm = 5.0f});
  opt.step();
  EXPECT_FLOAT_EQ(params[0]->value[0], -1.0f);
}

TEST(Sgd, RejectsBadHyperparameters) {
  Rng rng(5);
  Network net = one_dense(rng);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(SgdOptimizer(net, {.learning_rate = 0.0f, .momentum = 0.0f,
                                  .clip_norm = 0.0f}),
               Error);
  EXPECT_THROW(SgdOptimizer(net, {.learning_rate = inf, .momentum = 0.0f,
                                  .clip_norm = 0.0f}),
               Error);
  EXPECT_THROW(SgdOptimizer(net, {.learning_rate = nan, .momentum = 0.0f,
                                  .clip_norm = 0.0f}),
               Error);
  EXPECT_THROW(SgdOptimizer(net, {.learning_rate = 0.1f, .momentum = 1.0f,
                                  .clip_norm = 0.0f}),
               Error);
  // A negative or NaN clip norm would silently turn clipping off.
  EXPECT_THROW(SgdOptimizer(net, {.learning_rate = 0.1f, .momentum = 0.0f,
                                  .clip_norm = -1.0f}),
               Error);
  EXPECT_THROW(SgdOptimizer(net, {.learning_rate = 0.1f, .momentum = 0.0f,
                                  .clip_norm = nan}),
               Error);
  EXPECT_NO_THROW(SgdOptimizer(net, {.learning_rate = 0.1f, .momentum = 0.9f,
                                     .clip_norm = 5.0f}));
}

// The step() of earlier builds: the clip norm as one ordered double chain
// over every gradient, then per parameter an update loop and a separate
// zero_grad fill. The shipped step() must match it bit for bit.
void oracle_step(const std::vector<Parameter*>& params,
                 std::vector<Tensor>& velocity,
                 const SgdOptimizer::Options& opts) {
  float scale = 1.0f;
  if (opts.clip_norm > 0.0f) {
    double sq = 0.0;
    for (Parameter* p : params)
      for (float g : p->grad.data()) sq += static_cast<double>(g) * g;
    const double norm = std::sqrt(sq);
    if (norm > opts.clip_norm)
      scale = static_cast<float>(opts.clip_norm / norm);
  }
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    Parameter* p = params[pi];
    auto& w = p->value.data();
    auto& g = p->grad.data();
    if (opts.momentum > 0.0f) {
      auto& v = velocity[pi].data();
      for (std::size_t i = 0; i < w.size(); ++i) {
        v[i] = opts.momentum * v[i] - opts.learning_rate * scale * g[i];
        w[i] += v[i];
      }
    } else {
      for (std::size_t i = 0; i < w.size(); ++i)
        w[i] -= opts.learning_rate * scale * g[i];
    }
    p->zero_grad();
  }
}

// Dense chain through `widths`; parameter sizes like 35 and 5 are not
// multiples of any vector lane count.
Network dense_chain(const std::vector<std::size_t>& widths) {
  Rng rng(11);
  Network net;
  for (std::size_t l = 0; l + 1 < widths.size(); ++l)
    net.add(std::make_unique<Dense>(widths[l], widths[l + 1], rng));
  return net;
}

void set_flat(const std::vector<Parameter*>& params, const std::vector<float>& flat,
              bool grad) {
  std::size_t k = 0;
  for (Parameter* p : params)
    for (float& x : (grad ? p->grad : p->value).data()) x = flat[k++];
}

void expect_same_bits(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " element " << i << ": " << got[i] << " vs " << want[i];
}

// The ordered norm the oracle computes, for aiming gradients at it.
double ordered_norm(const std::vector<float>& g) {
  double sq = 0.0;
  for (float x : g) sq += static_cast<double>(x) * x;
  return std::sqrt(sq);
}

// `dir` rescaled (in float) so its norm lands on `target`, up to rounding.
std::vector<float> aimed(const std::vector<float>& dir, double target) {
  const double s = target / ordered_norm(dir);
  std::vector<float> g(dir.size());
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = static_cast<float>(static_cast<double>(dir[i]) * s);
  return g;
}

float ulps_from(float x, int k) {
  const float toward = k < 0 ? -std::numeric_limits<float>::infinity()
                             : std::numeric_limits<float>::infinity();
  for (int i = 0; i < std::abs(k); ++i) x = std::nextafter(x, toward);
  return x;
}

// Gradient sets around a clip norm c for a network of `size` scalars.
std::vector<std::pair<std::string, std::vector<float>>> gradient_cases(
    std::size_t size, float c, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> dir(size);
  for (float& x : dir) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<std::pair<std::string, std::vector<float>>> cases;
  cases.emplace_back("below", aimed(dir, 0.5 * c));
  cases.emplace_back("above", aimed(dir, 3.0 * c));
  for (int k = -2; k <= 2; ++k) {
    const std::string tag = " ulp " + std::to_string(k);
    // Spread over every entry: the norm lands within rounding of c ± k ulp.
    cases.emplace_back("spread" + tag, aimed(dir, ulps_from(c, k)));
    // One entry: the norm is exactly c ± k ulp. At k = 0 the screen's
    // bound lands just above c², so the ordered chain decides.
    std::vector<float> one(size, 0.0f);
    one[size / 2] = ulps_from(c, k);
    cases.emplace_back("one-hot" + tag, one);
    // Four equal entries whose squares sum to exactly c², the last one
    // moved by k ulp.
    if (size >= 4) {
      std::vector<float> quad(size, 0.0f);
      for (std::size_t i = size - 4; i < size; ++i) quad[i] = c / 2.0f;
      quad[size - 1] = ulps_from(c / 2.0f, k);
      cases.emplace_back("quad" + tag, quad);
    }
  }
  std::vector<float> zeros(size);
  for (std::size_t i = 0; i < size; ++i) zeros[i] = i % 2 ? -0.0f : 0.0f;
  cases.emplace_back("signed zeros", zeros);
  for (const auto& [name, specials] :
       {std::pair<std::string, std::vector<float>>{"NaN", {nan}},
        {"+Inf", {inf}},
        {"-Inf", {-inf}},
        {"+Inf -Inf", {inf, -inf}},
        {"NaN +Inf", {nan, inf}}}) {
    std::vector<float> g = aimed(dir, 0.5 * c);
    for (std::size_t i = 0; i < specials.size(); ++i)
      g[(i * 7 + 1) % size] = specials[i];
    cases.emplace_back(name, g);
  }
  return cases;
}

TEST(Sgd, StepMatchesOracleBits) {
  const std::vector<std::vector<std::size_t>> nets = {
      {1, 1}, {7, 5, 3}, {10, 32, 32, 4}};
  for (const auto& widths : nets) {
    for (const float momentum : {0.0f, 0.9f}) {
      for (const float clip : {5.0f, 0.0f}) {
        const SgdOptimizer::Options opts{
            .learning_rate = 0.03f, .momentum = momentum, .clip_norm = clip};
        const std::size_t size = dense_chain(widths).parameter_count();
        Rng rng(size);
        std::vector<float> values(size), warmup(size);
        for (std::size_t i = 0; i < size; ++i) {
          values[i] = i % 5 == 0 ? -0.0f : static_cast<float>(rng.uniform(-1.0, 1.0));
          warmup[i] = static_cast<float>(rng.uniform(-0.1, 0.1));
        }
        for (const auto& [name, grads] : gradient_cases(size, 5.0f, rng)) {
          const std::string what = name + " net " + std::to_string(size) +
                                   " momentum " + std::to_string(momentum) +
                                   " clip " + std::to_string(clip);
          Network net = dense_chain(widths);
          Network ref = dense_chain(widths);
          auto params = net.parameters();
          auto ref_params = ref.parameters();
          set_flat(params, values, false);
          set_flat(ref_params, values, false);
          SgdOptimizer opt(net, opts);
          std::vector<Tensor> ref_velocity;
          if (momentum > 0.0f)
            for (Parameter* p : ref_params) ref_velocity.emplace_back(p->value.shape());
          // A warm-up step first, so momentum runs carry a velocity.
          for (const std::vector<float>* g : {&std::as_const(warmup), &grads}) {
            set_flat(params, *g, true);
            set_flat(ref_params, *g, true);
            opt.step();
            oracle_step(ref_params, ref_velocity, opts);
          }
          for (std::size_t pi = 0; pi < params.size(); ++pi) {
            expect_same_bits(params[pi]->value, ref_params[pi]->value, what + " value");
            expect_same_bits(params[pi]->grad, ref_params[pi]->grad, what + " grad");
            if (momentum > 0.0f)
              expect_same_bits(opt.velocity()[pi], ref_velocity[pi], what + " velocity");
          }
        }
      }
    }
  }
}

TEST(Sgd, ConvergesOnQuadratic) {
  // Minimize (w*x - 3)^2 with x = 1: w should approach 3.
  Rng rng(6);
  Network net = one_dense(rng);
  SgdOptimizer opt(net, {.learning_rate = 0.1f, .momentum = 0.0f, .clip_norm = 0.0f});
  const Tensor x = testing::filled({1}, 1.0f);
  Tape tape;
  for (int i = 0; i < 200; ++i) {
    tape.clear();
    const Tensor y = net.forward(x, tape);
    Tensor grad({1});
    grad[0] = 2.0f * (y[0] - 3.0f);
    net.backward(grad, tape, 0);
    opt.step();
  }
  EXPECT_NEAR(net.forward(x)[0], 3.0f, 1e-3);
}

}  // namespace
}  // namespace frlfi
