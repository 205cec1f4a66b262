/// \file test_batched_forward.cpp
/// Batched-vs-single equivalence for the inference path: every layer
/// type, odd batch sizes, whole policies, fault-injected weights, the
/// base-class infer default, and source validation.
///
/// Contract under test (see Layer::infer): column b of a batch-inner
/// inference equals forward() of sample b — bit-identical wherever the
/// GEMM ordering contract holds (Dense always; Conv2D when a sample has
/// >= 8 output positions; elementwise/flatten always), and within 1e-5
/// relative tolerance at tiny conv outputs where the single-sample path
/// runs the reassociating packed narrow kernel.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "fault/overlay.hpp"
#include "frl/policies.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "test_util.hpp"

namespace frlfi {
namespace {

const std::size_t kBatches[] = {1, 3, 64};

/// Stack `batch` random samples of `sample_shape` into one tensor.
Tensor random_batch(const std::vector<std::size_t>& sample_shape,
                    std::size_t batch, std::uint64_t seed) {
  std::vector<std::size_t> shape{batch};
  shape.insert(shape.end(), sample_shape.begin(), sample_shape.end());
  Rng rng(seed);
  return Tensor::random_uniform(shape, rng, -1.0f, 1.0f);
}

/// Slice sample b back out of a batched tensor.
Tensor slice_sample(const Tensor& batched, std::size_t batch, std::size_t b) {
  const std::size_t sample = batched.size() / batch;
  Tensor out(std::vector<std::size_t>(batched.shape().begin() + 1,
                                      batched.shape().end()));
  for (std::size_t i = 0; i < sample; ++i) out[i] = batched[b * sample + i];
  return out;
}

/// Per-sample forwards must match the corresponding rows of one batched
/// infer() over the same samples.
void expect_rows_match(Layer& layer, const Tensor& batched, bool exact,
                       const char* what) {
  const std::size_t batch = batched.dim(0);
  const Tensor out = batch_to_major(
      layer.infer(batch_to_inner(batched, batch), batch, {}), batch);
  ASSERT_EQ(out.dim(0), batch) << what;
  for (std::size_t b = 0; b < batch; ++b) {
    const Tensor single = layer.forward(slice_sample(batched, batch, b));
    const Tensor row = slice_sample(out, batch, b);
    ASSERT_EQ(row.shape(), single.shape()) << what;
    for (std::size_t i = 0; i < single.size(); ++i) {
      if (exact) {
        EXPECT_EQ(row[i], single[i])
            << what << " batch " << batch << " sample " << b << " elem " << i;
      } else {
        EXPECT_NEAR(row[i], single[i],
                    1e-5f * std::max(1.0f, std::fabs(single[i])))
            << what << " batch " << batch << " sample " << b << " elem " << i;
      }
    }
  }
}

TEST(BatchedForward, DenseBitIdentical) {
  Rng rng(1);
  Dense dense(48, 32, rng, "fc");
  for (const std::size_t batch : kBatches)
    expect_rows_match(dense, random_batch({48}, batch, 10 + batch), true,
                      "dense");
}

TEST(BatchedForward, ConvWideOutputBitIdentical) {
  // Drone conv0 geometry: 60 output positions per sample -> both paths run
  // the ordered wide kernel.
  Rng rng(2);
  Conv2D conv(3, 6, 4, 3, 0, rng, "conv0");
  for (const std::size_t batch : kBatches)
    expect_rows_match(conv, random_batch({3, 18, 32}, batch, 20 + batch), true,
                      "conv wide");
}

TEST(BatchedForward, ConvTinyOutputWithinTolerance) {
  // Drone conv2 geometry: 3 output positions per sample -> the
  // single-sample path reassociates through the packed narrow kernel while
  // the batched GEMM is wide, so rows agree to tolerance, not bits.
  Rng rng(3);
  Conv2D conv(12, 16, 2, 1, 0, rng, "conv2");
  for (const std::size_t batch : kBatches)
    expect_rows_match(conv, random_batch({12, 2, 4}, batch, 30 + batch), false,
                      "conv tiny");
}

TEST(BatchedForward, ConvStridePaddingGrid) {
  const struct {
    std::size_t in_c, out_c, h, w, k, stride, pad;
  } cases[] = {
      {1, 2, 6, 6, 3, 1, 1}, {2, 3, 7, 9, 3, 2, 1}, {6, 12, 5, 10, 3, 2, 0},
  };
  for (const auto& c : cases) {
    Rng rng(40 + c.k);
    Conv2D conv(c.in_c, c.out_c, c.k, c.stride, c.pad, rng, "conv");
    for (const std::size_t batch : kBatches) {
      const std::size_t ncols = conv.out_extent(c.h) * conv.out_extent(c.w);
      expect_rows_match(conv,
                        random_batch({c.in_c, c.h, c.w}, batch, 50 + batch),
                        ncols >= 8, "conv grid");
    }
  }
}

TEST(BatchedForward, ElementwiseAndShapeLayersBitIdentical) {
  ReLU relu("relu");
  Flatten flat("flat");
  for (const std::size_t batch : kBatches) {
    const Tensor x = random_batch({4, 6, 8}, batch, 60 + batch);
    expect_rows_match(relu, x, true, "relu");
    expect_rows_match(flat, x, true, "flatten");
  }
}

/// A layer that deliberately lacks an infer override, to pin the
/// base-class default (per-sample loop, bit-identical) — the path a
/// forward()-only decorator layer relies on.
class HalfLayer final : public Layer {
 public:
  Tensor forward(const Tensor& input) override { return input * 0.5f; }
  Tensor backward(const Tensor& grad_output) override {
    return grad_output * 0.5f;
  }
  std::string name() const override { return "half"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<HalfLayer>();
  }
};

TEST(BatchedForward, DefaultFallbackLoopsPerSample) {
  HalfLayer half;
  for (const std::size_t batch : kBatches)
    expect_rows_match(half, random_batch({4, 6, 8}, batch, 70 + batch), true,
                      "default fallback");
}

/// A parameterized layer without an infer override: forward() only.
class ScaleLayer final : public Layer {
 public:
  ScaleLayer() : scale_("scale", testing::filled({1}, 2.0f)) {}
  Tensor forward(const Tensor& input) override {
    return input * scale_.value[0];
  }
  Tensor backward(const Tensor& grad_output) override {
    return grad_output * scale_.value[0];
  }
  std::vector<Parameter*> parameters() override { return {&scale_}; }
  std::string name() const override { return "scale"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<ScaleLayer>();
  }

 private:
  Parameter scale_;
};

TEST(BatchedForward, DefaultRejectsViewsOnParameterizedLayers) {
  // The default cannot read parameters through a view: it would silently
  // run the layer's own weights instead, so it throws.
  ScaleLayer layer;
  const Tensor xb = random_batch({5}, 3, 75);
  expect_rows_match(layer, xb, true, "own weights");
  const Tensor x = batch_to_inner(xb, 3);
  const std::vector<float> base(1, 3.0f);
  const WeightView view{base.data(), base.size(), nullptr};
  EXPECT_THROW(layer.infer(x, 3, {&view, 0}), Error);
  // A parameterless layer on the default accepts any source: there is
  // nothing to read from it.
  HalfLayer half;
  EXPECT_NO_THROW(half.infer(x, 3, {&view, 0}));
}

TEST(BatchedForward, GridworldPolicyBitIdentical) {
  // All-Dense stack: the batched network forward is bit-identical to the
  // per-sample path at every batch size.
  Rng rng(5);
  Network net = make_gridworld_policy(rng);
  for (const std::size_t batch : kBatches) {
    const Tensor x = random_batch({10}, batch, 71 + batch);
    const Tensor out = net.forward_batch(x, batch);
    for (std::size_t b = 0; b < batch; ++b) {
      const Tensor single = net.forward(slice_sample(x, batch, b));
      for (std::size_t i = 0; i < single.size(); ++i)
        EXPECT_EQ(out[b * single.size() + i], single[i])
            << "batch " << batch << " sample " << b;
    }
  }
}

TEST(BatchedForward, DronePolicyWithinTolerance) {
  // Full 3-Conv + 2-FC stack; the tiny conv2 stage makes this a tolerance
  // (not bit) comparison.
  Rng rng(6);
  Network net = make_drone_policy(rng);
  for (const std::size_t batch : kBatches) {
    const Tensor x = random_batch({3, 18, 32}, batch, 80 + batch);
    const Tensor out = net.forward_batch(x, batch);
    ASSERT_EQ(out.dim(0), batch);
    for (std::size_t b = 0; b < batch; ++b) {
      const Tensor single = net.forward(slice_sample(x, batch, b));
      ASSERT_EQ(out.size() / batch, single.size());
      for (std::size_t i = 0; i < single.size(); ++i)
        EXPECT_NEAR(out[b * single.size() + i], single[i],
                    1e-4f * std::max(1.0f, std::fabs(single[i])))
            << "batch " << batch << " sample " << b << " elem " << i;
    }
  }
}

TEST(BatchedForward, FaultInjectedWeightsStillMatch) {
  // Batched inference under weight corruption must track the per-sample
  // path through the same corrupted parameters.
  Rng rng(7);
  Network net = make_drone_policy(rng);
  FaultSpec spec;
  spec.model = FaultModel::TransientPersistent;
  spec.ber = 1e-3;
  Rng fault_rng(99);
  inject_network_weights(net, spec, fault_rng);
  const std::size_t batch = 5;
  const Tensor x = random_batch({3, 18, 32}, batch, 90);
  const Tensor out = net.forward_batch(x, batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const Tensor single = net.forward(slice_sample(x, batch, b));
    for (std::size_t i = 0; i < single.size(); ++i)
      EXPECT_NEAR(out[b * single.size() + i], single[i],
                  1e-4f * std::max(1.0f, std::fabs(single[i])))
          << "sample " << b << " elem " << i;
  }
}

TEST(BatchedForward, DoesNotDisturbTrainingCaches) {
  // forward() ... forward_batch() ... the layers' backward() must
  // differentiate the forward(), not the batched call.
  Rng rng_a(8), rng_b(8);
  Network a = make_drone_policy(rng_a);
  Network b = make_drone_policy(rng_b);
  Rng xr(100);
  const Tensor x = Tensor::random_uniform({3, 18, 32}, xr, -1.0f, 1.0f);
  const Tensor out = a.forward(x);
  b.forward(x);
  a.forward_batch(random_batch({3, 18, 32}, 4, 101), 4);  // must be inert
  const Tensor g = testing::filled(out.shape(), 1.0f);
  const Tensor ga = testing::backward_through_layers(a, g);
  const Tensor gb = testing::backward_through_layers(b, g);
  EXPECT_EQ(ga.data(), gb.data());
  const auto pa = a.parameters(), pb = b.parameters();
  for (std::size_t t = 0; t < pa.size(); ++t)
    EXPECT_EQ(pa[t]->grad.data(), pb[t]->grad.data()) << "tensor " << t;
}

TEST(BatchedForward, Validation) {
  Rng rng(11);
  Dense dense(8, 4, rng, "fc");
  Conv2D conv(2, 3, 3, 1, 0, rng, "conv");
  const Tensor flat2 = random_batch({8}, 2, 200);
  const Tensor inner2 = batch_to_inner(flat2, 2);
  EXPECT_THROW(dense.infer(inner2, 3, {}), Error);  // batch mismatch
  EXPECT_THROW(conv.infer(inner2, 2, {}), Error);   // not rank-4
  Network empty;
  EXPECT_THROW(empty.forward_batch(flat2, 2), Error);
}

}  // namespace
}  // namespace frlfi
