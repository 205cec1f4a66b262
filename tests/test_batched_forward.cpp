/// \file test_batched_forward.cpp
/// Batched-vs-single equivalence for the inference path: every layer
/// type, odd batch sizes, whole policies, fault-injected weights, the
/// base-class infer default, and source validation.
///
/// Contract under test (see Layer::infer): column b of a batch-inner
/// inference equals forward() of sample b bit for bit, for every in-tree
/// layer at every batch width — Conv2D included, at tiny outputs (where
/// forward() runs the reassociating packed narrow kernel) and padded
/// geometries with signed-zero and infinite weights.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
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

/// Every width from 1 to 20 (both sides of kBatchInnerWideKernelMin and
/// of the 16-lane strip, with ragged tails), then 31-33, 48, 50, 64 and
/// 120 (strip multiples and their neighbours).
std::vector<std::size_t> all_widths() {
  std::vector<std::size_t> w;
  for (std::size_t b = 1; b <= 20; ++b) w.push_back(b);
  w.insert(w.end(), {31, 32, 33, 48, 50, 64, 120});
  return w;
}

/// Bit equality; NaNs match any NaN (IEEE leaves unspecified which
/// operand's payload an add propagates).
bool same_bits(float a, float b) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

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
/// infer() over the same samples, bit for bit.
void expect_rows_match(Layer& layer, const Tensor& batched, const char* what) {
  const std::size_t batch = batched.dim(0);
  const Tensor out = batch_to_major(
      layer.infer(batch_to_inner(batched, batch), batch, {}), batch);
  ASSERT_EQ(out.dim(0), batch) << what;
  for (std::size_t b = 0; b < batch; ++b) {
    const Tensor single = layer.forward(slice_sample(batched, batch, b));
    const Tensor row = slice_sample(out, batch, b);
    ASSERT_EQ(row.shape(), single.shape()) << what;
    for (std::size_t i = 0; i < single.size(); ++i)
      EXPECT_TRUE(same_bits(row[i], single[i]))
          << what << " batch " << batch << " sample " << b << " elem " << i
          << ": " << row[i] << " vs " << single[i];
  }
}

TEST(BatchedForward, DenseBitIdentical) {
  Rng rng(1);
  Dense dense(48, 32, rng, "fc");
  for (const std::size_t batch : all_widths())
    expect_rows_match(dense, random_batch({48}, batch, 10 + batch),
                      "dense");
}

TEST(BatchedForward, DenseViewRunsOfWidthsTwoToSeven) {
  // Struck campaign lanes split a lockstep into runs: contiguous lanes
  // sharing one WeightView run as one sub-batch. Runs of every width from
  // 1 to 7 alternate between clean lanes and two struck int8 images; each
  // lane must equal forward() through its own effective weights.
  Rng init(12);
  Network net = make_gridworld_policy(init);
  const std::vector<float> clean = net.flat_parameters();
  const DeployedWeights image = DeployedWeights::int8_image(clean);
  FaultSpec spec;
  spec.model = FaultModel::TransientSingleStep;
  spec.ber = 0.02;
  WeightOverlay overlays[2];
  std::vector<WeightView> views;
  for (std::size_t v = 0; v < 2; ++v) {
    Rng strike(300 + v);
    image.inject(spec, strike, overlays[v]);
    ASSERT_FALSE(overlays[v].empty());
    views.push_back(image.view(&overlays[v]));
  }
  // Run widths and views in lane order (-1: clean).
  const std::size_t runs[] = {2, 1, 3, 2, 4, 1, 5, 6, 7};
  const int run_view[] = {-1, 0, -1, 1, -1, 0, -1, 1, -1};
  std::vector<int> view_of;
  for (std::size_t r = 0; r < std::size(runs); ++r)
    view_of.insert(view_of.end(), runs[r], run_view[r]);
  const std::size_t lanes = view_of.size();
  std::vector<const WeightView*> lane_views;
  for (const int v : view_of)
    lane_views.push_back(v < 0 ? nullptr
                               : &views[static_cast<std::size_t>(v)]);

  std::vector<std::size_t> seen;
  net.set_activation_hook([&](std::size_t layer, Tensor& act) {
    if (layer == 0) seen.push_back(act.dim(act.rank() - 1));
  });
  const Tensor xb = random_batch({10}, lanes, 77);
  const Tensor got = net.forward_batch(xb, lanes, nullptr, lane_views);
  net.set_activation_hook({});
  EXPECT_EQ(seen, std::vector<std::size_t>(std::begin(runs), std::end(runs)));

  const std::size_t width = got.size() / lanes;
  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<float> effective = clean;
    if (view_of[l] >= 0) {
      effective = image.base();
      overlays[static_cast<std::size_t>(view_of[l])].apply_to(effective);
    }
    net.set_flat_parameters(effective);
    const Tensor want = net.forward(slice_sample(xb, lanes, l));
    for (std::size_t j = 0; j < width; ++j)
      EXPECT_TRUE(same_bits(got[l * width + j], want[j]))
          << "lane " << l << " logit " << j;
  }
  net.set_flat_parameters(clean);
}

TEST(BatchedForward, ConvWideOutputBitIdentical) {
  // Drone conv0 geometry: 50 output positions per sample -> both paths run
  // the ordered wide kernel.
  Rng rng(2);
  Conv2D conv(3, 6, 4, 3, 0, rng, "conv0");
  for (const std::size_t batch : kBatches)
    expect_rows_match(conv, random_batch({3, 18, 32}, batch, 20 + batch),
                      "conv wide");
}

TEST(BatchedForward, ConvTinyOutputBitIdentical) {
  // Drone conv2 geometry: 3 output positions per sample -> forward() runs
  // the packed narrow kernel, so infer() runs it per sample at every width.
  Rng rng(3);
  Conv2D conv(12, 16, 2, 1, 0, rng, "conv2");
  for (const std::size_t batch : all_widths())
    expect_rows_match(conv, random_batch({12, 2, 4}, batch, 30 + batch),
                      "conv tiny");
}

/// Weight patterns for the padded grid cases.
enum class Weights { kRandom, kSignedZeros, kInfinities };

/// Set `conv`'s parameters per `pattern`. kSignedZeros: bias -0, each
/// kernel's top row positive and every other weight negative, so on an
/// all-zero sample the sign of an output on the top edge says whether the
/// padding taps above it joined its chain as +0.0f, as im2col's do.
/// kInfinities: +Inf and -Inf weights, which meet exact zeros in the
/// padding and the inputs and turn them into NaN.
void set_pattern(Conv2D& conv, Weights pattern, std::size_t k) {
  if (pattern == Weights::kRandom) return;
  Tensor& w = conv.weight().value;
  if (pattern == Weights::kSignedZeros) {
    conv.bias().value.fill(-0.0f);
    for (std::size_t i = 0; i < w.size(); ++i) {
      const float mag = std::fabs(w[i]) + 0.01f;
      w[i] = (i % (k * k) < k) ? mag : -mag;
    }
    return;
  }
  const float inf = std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < w.size(); i += 5) w[i] = (i % 2 == 0) ? inf : -inf;
}

TEST(BatchedForward, ConvStridePaddingGrid) {
  // Unpadded and padded geometries on both sides of the 8-position
  // threshold, including kernels wider than the input and outputs whose
  // taps are mostly padding. Padded cases also run with signed-zero and
  // infinite weights over inputs that hold exact zeros.
  const struct {
    std::size_t in_c, out_c, h, w, k, stride, pad;
  } cases[] = {
      {1, 2, 6, 6, 3, 1, 1}, {2, 3, 7, 9, 3, 2, 1}, {6, 12, 5, 10, 3, 2, 0},
      {3, 4, 3, 3, 3, 1, 1}, {2, 5, 2, 3, 2, 2, 1}, {1, 3, 4, 4, 5, 1, 2},
      {2, 2, 1, 9, 3, 1, 1}, {2, 3, 4, 7, 3, 3, 2},
  };
  for (const auto& c : cases) {
    for (const Weights pattern :
         {Weights::kRandom, Weights::kSignedZeros, Weights::kInfinities}) {
      if (c.pad == 0 && pattern != Weights::kRandom) continue;
      Rng rng(40 + c.k);
      Conv2D conv(c.in_c, c.out_c, c.k, c.stride, c.pad, rng, "conv");
      set_pattern(conv, pattern, c.k);
      for (const std::size_t batch : all_widths()) {
        Tensor x = random_batch({c.in_c, c.h, c.w}, batch, 50 + batch);
        if (pattern != Weights::kRandom) {
          // Every third sample all zeros, the rest with zeros sprinkled.
          const std::size_t sample = x.size() / batch;
          for (std::size_t i = 0; i < x.size(); ++i)
            if ((i / sample) % 3 == 0 || i % 4 == 0) x[i] = 0.0f;
        }
        expect_rows_match(conv, x, "conv grid");
      }
    }
  }
}

TEST(BatchedForward, ElementwiseAndShapeLayersBitIdentical) {
  ReLU relu("relu");
  Flatten flat("flat");
  for (const std::size_t batch : kBatches) {
    const Tensor x = random_batch({4, 6, 8}, batch, 60 + batch);
    expect_rows_match(relu, x, "relu");
    expect_rows_match(flat, x, "flatten");
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
    expect_rows_match(half, random_batch({4, 6, 8}, batch, 70 + batch),
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
  expect_rows_match(layer, xb, "own weights");
  const Tensor x = batch_to_inner(xb, 3);
  const std::vector<float> base(1, 3.0f);
  const WeightView view{base.data(), base.size(), nullptr};
  EXPECT_THROW(layer.infer(x, 3, {&view, 0}), Error);
  // A parameterless layer on the default accepts any source: there is
  // nothing to read from it.
  HalfLayer half;
  EXPECT_NO_THROW(half.infer(x, 3, {&view, 0}));
}

/// Rows of one forward_batch over `x` must be forward() of each sample,
/// bit for bit.
void expect_network_rows_match(Network& net, const Tensor& x,
                               const char* what) {
  const std::size_t batch = x.dim(0);
  const Tensor out = net.forward_batch(x, batch);
  ASSERT_EQ(out.dim(0), batch) << what;
  for (std::size_t b = 0; b < batch; ++b) {
    const Tensor single = net.forward(slice_sample(x, batch, b));
    ASSERT_EQ(out.size() / batch, single.size()) << what;
    for (std::size_t i = 0; i < single.size(); ++i)
      EXPECT_TRUE(same_bits(out[b * single.size() + i], single[i]))
          << what << " batch " << batch << " sample " << b << " elem " << i;
  }
}

TEST(BatchedForward, GridworldPolicyBitIdentical) {
  // All-Dense stack: the batched network forward is bit-identical to the
  // per-sample path at every batch size.
  Rng rng(5);
  Network net = make_gridworld_policy(rng);
  for (const std::size_t batch : all_widths())
    expect_network_rows_match(net, random_batch({10}, batch, 71 + batch),
                              "gridworld");
}

TEST(BatchedForward, DronePolicyBitIdentical) {
  // Full 3-Conv + 2-FC stack, tiny conv2 stage included: the batched
  // network forward is bit-identical to the per-sample path at every
  // width.
  Rng rng(6);
  Network net = make_drone_policy(rng);
  for (const std::size_t batch : all_widths())
    expect_network_rows_match(
        net, random_batch({3, 18, 32}, batch, 80 + batch), "drone");
}

TEST(BatchedForward, FaultInjectedWeightsStillMatch) {
  // Batched inference under weight corruption must reproduce the
  // per-sample path through the same corrupted parameters.
  Rng rng(7);
  Network net = make_drone_policy(rng);
  FaultSpec spec;
  spec.model = FaultModel::TransientPersistent;
  spec.ber = 1e-3;
  Rng fault_rng(99);
  inject_network_weights(net, spec, fault_rng);
  for (const std::size_t batch : {std::size_t{5}, std::size_t{19}})
    expect_network_rows_match(net, random_batch({3, 18, 32}, batch, 90),
                              "injected");

  // Large-magnitude "high-bit flip" outliers plus NaN and +-Inf weights.
  Rng outlier_rng(3);
  Network outliers = make_drone_policy(outlier_rng);
  std::vector<float> flat = outliers.flat_parameters();
  for (std::size_t i = 0; i < flat.size(); i += 97) flat[i] *= -1024.0f;
  flat[11] = std::numeric_limits<float>::quiet_NaN();
  flat[201] = std::numeric_limits<float>::infinity();
  flat[401] = -std::numeric_limits<float>::infinity();
  outliers.set_flat_parameters(flat);
  for (const std::size_t batch : {std::size_t{1}, std::size_t{3},
                                  std::size_t{16}, std::size_t{64}})
    expect_network_rows_match(outliers,
                              random_batch({3, 18, 32}, batch, 100 + batch),
                              "NaN/Inf outliers");
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
