/// \file test_tape.cpp
/// The activation tape: each layer's tape entries against its cached
/// forward()/backward() (bit for bit, parameter and input gradients, many
/// steps recorded before any is differentiated), the need_input_grad skip,
/// the Layer defaults a forward()/backward()-only decorator runs on, and
/// Network's tape pass against the cached per-layer pass.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/error.hpp"
#include "frl/policies.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

// Bit patterns, so NaN and signed zeros compare exactly.
std::vector<std::uint32_t> bits_of(const Tensor& t) {
  std::vector<std::uint32_t> out;
  out.reserve(t.size());
  for (float v : t.data()) out.push_back(std::bit_cast<std::uint32_t>(v));
  return out;
}

std::vector<std::vector<std::uint32_t>> grad_bits(Layer& layer) {
  std::vector<std::vector<std::uint32_t>> out;
  for (Parameter* p : layer.parameters()) out.push_back(bits_of(p->grad));
  return out;
}

void zero_grads(Layer& layer) {
  for (Parameter* p : layer.parameters()) p->zero_grad();
}

// Records `xs.size()` steps of `taped` on one tape, then differentiates
// them in order; `cached` (a clone) runs forward+backward per step through
// the cached pair, and `skipping` (another clone) replays the same tape
// steps with need_input_grad = false. Outputs, input gradients and the
// accumulated parameter gradients must match bit for bit.
void expect_tape_matches_cached(const Layer& proto,
                                const std::vector<Tensor>& xs,
                                const std::vector<Tensor>& gs) {
  std::unique_ptr<Layer> taped = proto.clone();
  std::unique_ptr<Layer> cached = proto.clone();
  std::unique_ptr<Layer> skipping = proto.clone();
  zero_grads(*taped);
  zero_grads(*cached);
  zero_grads(*skipping);
  Tape tape, skip_tape;
  std::vector<Tensor> ys;
  for (const Tensor& x : xs) {
    tape.begin_step();
    ys.push_back(taped->forward(x, tape));
    skip_tape.begin_step();
    skipping->forward(x, skip_tape);
  }
  ASSERT_EQ(tape.steps(), xs.size());
  ASSERT_EQ(tape.records(), xs.size());
  for (std::size_t t = 0; t < xs.size(); ++t) {
    SCOPED_TRACE(proto.name() + " step " + std::to_string(t));
    const Tensor y = cached->forward(xs[t]);
    EXPECT_EQ(bits_of(ys[t]), bits_of(y));
    EXPECT_EQ(ys[t].shape(), y.shape());
    const Tensor gx_cached = cached->backward(gs[t]);
    tape.rewind(t);
    const Tensor gx_tape = taped->backward(gs[t], tape, true);
    EXPECT_TRUE(tape.step_consumed());
    EXPECT_EQ(gx_tape.shape(), xs[t].shape());
    EXPECT_EQ(gx_tape.shape(), gx_cached.shape());
    EXPECT_EQ(bits_of(gx_tape), bits_of(gx_cached));
    skip_tape.rewind(t);
    EXPECT_TRUE(skipping->backward(gs[t], skip_tape, false).empty());
  }
  EXPECT_EQ(grad_bits(*taped), grad_bits(*cached));
  EXPECT_EQ(grad_bits(*skipping), grad_bits(*cached));
}

// Forward inputs of `shape` and output gradients of `out_shape`.
void random_steps(std::size_t steps, const std::vector<std::size_t>& shape,
                  const std::vector<std::size_t>& out_shape,
                  std::uint64_t seed, std::vector<Tensor>& xs,
                  std::vector<Tensor>& gs) {
  Rng rng(seed);
  for (std::size_t t = 0; t < steps; ++t) {
    xs.push_back(Tensor::random_uniform(shape, rng, -1.0f, 1.0f));
    gs.push_back(Tensor::random_uniform(out_shape, rng, -1.0f, 1.0f));
  }
}

TEST(Tape, Conv2DMatchesCachedAcrossStrideAndPadding) {
  struct Geometry {
    std::size_t in_c, out_c, k, stride, pad, h, w;
  };
  // The drone policy's conv0, a padded stride-1 conv, a padded stride-2
  // conv whose padding exceeds what the last window reaches, and a conv
  // with a 1x1 output (the packed narrow GEMM kernel).
  for (const Geometry& g :
       {Geometry{3, 6, 4, 3, 0, 18, 32}, Geometry{3, 4, 3, 1, 1, 6, 7},
        Geometry{2, 3, 3, 2, 2, 5, 6}, Geometry{4, 5, 2, 1, 0, 2, 2}}) {
    Rng rng(g.in_c * 100 + g.k * 10 + g.pad);
    const Conv2D conv(g.in_c, g.out_c, g.k, g.stride, g.pad, rng, "conv");
    const std::size_t oh = conv.out_extent(g.h), ow = conv.out_extent(g.w);
    std::vector<Tensor> xs, gs;
    random_steps(5, {g.in_c, g.h, g.w}, {g.out_c, oh, ow}, g.h * g.w, xs, gs);
    expect_tape_matches_cached(conv, xs, gs);
  }
}

TEST(Tape, DenseMatchesCached) {
  Rng rng(3);
  const Dense dense(48, 32, rng, "fc");
  std::vector<Tensor> xs, gs;
  random_steps(6, {48}, {32}, 4, xs, gs);
  expect_tape_matches_cached(dense, xs, gs);
}

TEST(Tape, ReluMatchesCachedOnSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const std::vector<float> special = {nan,  -nan, 0.0f, -0.0f, inf,
                                      -inf, tiny, -tiny, 1.0f, -1.0f};
  const ReLU relu("relu");
  // Sizes below, at and across a few SIMD vector widths.
  for (const std::size_t n : {1u, 10u, 63u, 64u, 65u, 130u}) {
    std::vector<Tensor> xs, gs;
    random_steps(3, {n}, {n}, n, xs, gs);
    for (std::size_t t = 0; t < xs.size(); ++t)
      for (std::size_t i = 0; i < n; ++i)
        if ((i + t) % 3 == 0) xs[t][i] = special[(i + t) % special.size()];
    expect_tape_matches_cached(relu, xs, gs);

    // And against the definition: y = x < 0 ? 0 : x (NaN and -0 pass),
    // dx = x <= 0 ? 0 : dy (NaN passes the gradient, both zeros block it).
    Tape tape;
    ReLU layer("relu");
    tape.begin_step();
    const Tensor y = layer.forward(xs[0], tape);
    tape.rewind(0);
    const Tensor gx = layer.backward(gs[0], tape, true);
    for (std::size_t i = 0; i < n; ++i) {
      const float x = xs[0][i];
      EXPECT_EQ(std::bit_cast<std::uint32_t>(y[i]),
                std::bit_cast<std::uint32_t>(x < 0.0f ? 0.0f : x))
          << "x=" << x;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(gx[i]),
                std::bit_cast<std::uint32_t>(x <= 0.0f ? 0.0f : gs[0][i]))
          << "x=" << x;
    }
  }
}

TEST(Tape, FlattenMatchesCached) {
  const Flatten flat("flat");
  std::vector<Tensor> xs, gs;
  random_steps(3, {4, 2, 3}, {24}, 5, xs, gs);
  expect_tape_matches_cached(flat, xs, gs);
  xs.clear();
  gs.clear();
  random_steps(2, {2, 2, 3, 2}, {24}, 6, xs, gs);
  expect_tape_matches_cached(flat, xs, gs);
}

TEST(Tape, DenseStepsReplayInAnyOrder) {
  // Differentiating recorded steps last-first equals the cached pair run
  // last-first: every record stays intact until the tape is cleared.
  Rng rng(9);
  const Dense proto(5, 3, rng, "fc");
  std::vector<Tensor> xs, gs;
  random_steps(7, {5}, {3}, 10, xs, gs);
  auto taped = proto.clone(), cached = proto.clone();
  Tape tape;
  for (const Tensor& x : xs) {
    tape.begin_step();
    taped->forward(x, tape);
  }
  for (std::size_t t = xs.size(); t-- > 0;) {
    cached->forward(xs[t]);
    const Tensor want = cached->backward(gs[t]);
    tape.rewind(t);
    EXPECT_EQ(bits_of(taped->backward(gs[t], tape, true)), bits_of(want));
  }
  EXPECT_EQ(grad_bits(*taped), grad_bits(*cached));
}

/// The shape of a benchmark-side timing decorator: overrides only the
/// cached forward()/backward() and counts the forwards it wraps, so the
/// tape entries come from the Layer defaults.
class CountingLayer final : public Layer {
 public:
  CountingLayer(std::unique_ptr<Layer> inner, std::size_t& forwards)
      : inner_(std::move(inner)), forwards_(forwards) {}
  Tensor forward(const Tensor& input) override {
    ++forwards_;
    return inner_->forward(input);
  }
  Tensor backward(const Tensor& grad_output) override {
    return inner_->backward(grad_output);
  }
  std::vector<Parameter*> parameters() override {
    return inner_->parameters();
  }
  std::string name() const override { return inner_->name(); }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<CountingLayer>(inner_->clone(), forwards_);
  }

 private:
  std::unique_ptr<Layer> inner_;
  std::size_t& forwards_;
};

TEST(Tape, CachedOnlyDecoratorRunsThroughLayerDefaults) {
  Rng rng(11);
  Network plain = make_drone_policy(rng);
  std::size_t forwards = 0;
  Network wrapped;
  for (std::size_t i = 0; i < plain.layer_count(); ++i)
    wrapped.add(
        std::make_unique<CountingLayer>(plain.layer(i).clone(), forwards));
  plain.zero_grad();
  wrapped.zero_grad();

  constexpr std::size_t kSteps = 4;
  std::vector<Tensor> xs, gs;
  random_steps(kSteps, {3, 18, 32}, {25}, 12, xs, gs);
  Tape plain_tape, wrapped_tape;
  for (const Tensor& x : xs) {
    EXPECT_EQ(bits_of(plain.forward(x, plain_tape)),
              bits_of(wrapped.forward(x, wrapped_tape)));
  }
  EXPECT_EQ(forwards, kSteps * plain.layer_count());
  for (std::size_t t = 0; t < kSteps; ++t) {
    plain.backward(gs[t], plain_tape, t);
    wrapped.backward(gs[t], wrapped_tape, t);
  }
  // The default backward re-runs each layer's forward from its record.
  EXPECT_EQ(forwards, 2 * kSteps * plain.layer_count());
  const auto pp = plain.parameters(), pw = wrapped.parameters();
  ASSERT_EQ(pp.size(), pw.size());
  for (std::size_t i = 0; i < pp.size(); ++i)
    EXPECT_EQ(bits_of(pp[i]->grad), bits_of(pw[i]->grad)) << pp[i]->name;
}

TEST(Tape, NetworkPassMatchesCachedPerLayerPass) {
  // What a REINFORCE learn pass used to do (forward each step again, then
  // backward through every layer) equals the tape pass over the acting
  // forwards, with layer 0's input gradient skipped.
  Rng rng_a(21), rng_b(21);
  Network taped = make_drone_policy(rng_a);
  Network cached = make_drone_policy(rng_b);
  taped.zero_grad();
  cached.zero_grad();
  std::vector<Tensor> xs, gs;
  random_steps(6, {3, 18, 32}, {25}, 22, xs, gs);
  Tape tape;
  for (const Tensor& x : xs) taped.forward(x, tape);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    EXPECT_EQ(bits_of(cached.forward(xs[t])), bits_of(taped.forward(xs[t])));
    testing::backward_through_layers(cached, gs[t]);
    taped.backward(gs[t], tape, t);
  }
  const auto pa = taped.parameters(), pb = cached.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(bits_of(pa[i]->grad), bits_of(pb[i]->grad)) << pa[i]->name;
}

TEST(Tape, StorageSurvivesGrowthAndClearReusesIt) {
  // Enough steps to span many blocks, including records larger than the
  // first block; every record must read back intact, before and after a
  // clear() that reuses the storage.
  Rng rng(31);
  for (int pass = 0; pass < 2; ++pass) {
    Tape tape;
    for (int round = 0; round < 2; ++round) {
      tape.clear();
      std::vector<Tensor> xs;
      const std::size_t steps = 150 + 40 * static_cast<std::size_t>(round);
      for (std::size_t t = 0; t < steps; ++t) {
        const std::size_t n = 1 + (t * 37 + static_cast<std::size_t>(pass)) % 3000;
        xs.push_back(Tensor::random_uniform({n}, rng, -1.0f, 1.0f));
        tape.begin_step();
        tape.record(xs.back());
      }
      for (std::size_t t = steps; t-- > 0;) {
        tape.rewind(t);
        const Tape::Record& r = tape.pop();
        ASSERT_EQ(r.size(), xs[t].size());
        ASSERT_EQ(r.shape(), xs[t].shape());
        EXPECT_TRUE(std::equal(r.values(), r.values() + r.size(),
                               xs[t].data().begin()))
            << "step " << t;
        EXPECT_TRUE(tape.step_consumed());
      }
    }
  }
}

TEST(Tape, MisuseThrows) {
  Tape tape;
  const Tensor x = testing::filled({2}, 1.0f);
  EXPECT_THROW(tape.record(x), Error);  // before begin_step
  EXPECT_THROW(tape.rewind(0), Error);  // nothing recorded
  tape.begin_step();
  tape.record(x);
  EXPECT_THROW(tape.rewind(1), Error);
  tape.rewind(0);
  tape.pop();
  EXPECT_THROW(tape.pop(), Error);  // the step holds one record
  const Tensor rank5({1, 1, 1, 1, 1});
  EXPECT_THROW(tape.record(rank5), Error);

  // A network step must be consumed by exactly its own layers.
  Rng rng(41);
  Network net = make_gridworld_policy(rng);
  Tape net_tape;
  net.forward(testing::filled({10}, 0.5f), net_tape);
  net_tape.begin_step();
  net_tape.record(x);  // a stray record in a second step
  EXPECT_THROW(net.backward(testing::filled({4}, 1.0f), net_tape, 1), Error);
  net.backward(testing::filled({4}, 1.0f), net_tape, 0);
  EXPECT_TRUE(net_tape.step_consumed());
}

}  // namespace
}  // namespace frlfi
