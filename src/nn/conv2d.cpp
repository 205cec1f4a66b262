#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/error.hpp"
#include "fault/overlay.hpp"
#include "tensor/gemm.hpp"

namespace frlfi {
namespace {

// Direct batch-inner convolution kernel over an unpadded input (a padded
// layer's input is zero-padded into scratch first): x is (in_c, h, w, B),
// y is (out_c, oh, ow, B) — no im2col, no patch matrix. For each output
// (oc, oy, ox) the batch is processed in fixed 16-float chunks whose
// accumulator lives in registers across the whole tap loop, so y is
// written exactly once and each tap costs one x-vector load plus one
// mul/add — instead of a load+store of y per tap. Per output element the
// accumulation runs bias-first then every tap in increasing (ic, ky, kx)
// order, padding taps adding w·(+0.0f) just as im2col's zeros do: the
// chain of forward()'s ordered GEMM, so wherever forward() runs that
// kernel the results match it bit-for-bit, signed zeros and non-finite
// weights included. Reduction-free, so the wider-vector clones are
// bit-identical (core/codegen.hpp).
FRLFI_TARGET_CLONES
void conv_batch_inner(const float* FRLFI_RESTRICT x,
                      const float* FRLFI_RESTRICT wt,
                      const float* FRLFI_RESTRICT bias, const ConvShape& s,
                      std::size_t out_c, std::size_t batch,
                      float* FRLFI_RESTRICT y) {
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t taps = s.in_c * s.k * s.k;
  constexpr std::size_t kChunk = 16;
  // Offset of tap r = (ic, ky, kx) from its output's top-left input.
  std::vector<std::size_t> tap_off;
  tap_off.reserve(taps);
  for (std::size_t ic = 0; ic < s.in_c; ++ic)
    for (std::size_t ky = 0; ky < s.k; ++ky)
      for (std::size_t kx = 0; kx < s.k; ++kx)
        tap_off.push_back(((ic * s.h + ky) * s.w + kx) * batch);
  for (std::size_t oy = 0; oy < oh; ++oy) {
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      const float* FRLFI_RESTRICT wrow = wt + oc * taps;
      const float bv = bias[oc];
      float* FRLFI_RESTRICT yrow = y + (oc * oh + oy) * ow * batch;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float* FRLFI_RESTRICT xo =
            x + (oy * s.stride * s.w + ox * s.stride) * batch;
        float* FRLFI_RESTRICT yv = yrow + ox * batch;
        std::size_t b0 = 0;
        for (; b0 + kChunk <= batch; b0 += kChunk) {
          float acc[kChunk];
          for (std::size_t l = 0; l < kChunk; ++l) acc[l] = bv;
          for (std::size_t r = 0; r < taps; ++r) {
            const float wv = wrow[r];
            const float* FRLFI_RESTRICT xv = xo + tap_off[r] + b0;
#pragma omp simd
            for (std::size_t l = 0; l < kChunk; ++l) acc[l] += wv * xv[l];
          }
          for (std::size_t l = 0; l < kChunk; ++l) yv[b0 + l] = acc[l];
        }
        if (b0 == batch) continue;
        // Ragged tail chunk (batch not a multiple of 16).
        const std::size_t blen = batch - b0;
        float acc[kChunk];
        for (std::size_t l = 0; l < blen; ++l) acc[l] = bv;
        for (std::size_t r = 0; r < taps; ++r) {
          const float wv = wrow[r];
          const float* FRLFI_RESTRICT xv = xo + tap_off[r] + b0;
#pragma omp simd
          for (std::size_t l = 0; l < blen; ++l) acc[l] += wv * xv[l];
        }
        for (std::size_t l = 0; l < blen; ++l) yv[b0 + l] = acc[l];
      }
    }
  }
}

}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng, std::string layer_name)
    : in_c_(in_channels),
      out_c_(out_channels),
      k_(kernel),
      stride_(stride),
      pad_(padding),
      label_(std::move(layer_name)) {
  FRLFI_CHECK(in_c_ > 0 && out_c_ > 0 && k_ > 0 && stride_ > 0);
  const float fan_in = static_cast<float>(in_c_ * k_ * k_);
  const float fan_out = static_cast<float>(out_c_ * k_ * k_);
  const float bound = std::sqrt(6.0f / (fan_in + fan_out));
  weight_ = Parameter(
      label_ + ".weight",
      Tensor::random_uniform({out_c_, in_c_, k_, k_}, rng, -bound, bound));
  bias_ = Parameter(label_ + ".bias", Tensor({out_c_}));
}

std::size_t Conv2D::out_extent(std::size_t in_extent) const {
  FRLFI_CHECK_MSG(in_extent + 2 * pad_ >= k_,
                  label_ << ": input extent " << in_extent << " too small");
  return (in_extent + 2 * pad_ - k_) / stride_ + 1;
}

ConvShape Conv2D::shape_for(std::size_t h, std::size_t w) const {
  out_extent(h);  // validates extent >= kernel with the layer's message
  out_extent(w);
  return ConvShape{in_c_, h, w, k_, stride_, pad_};
}

void Conv2D::check_grad_shape(const Tensor& grad_output, std::size_t oh,
                              std::size_t ow) const {
  FRLFI_CHECK_MSG(grad_output.rank() == 3 && grad_output.dim(0) == out_c_ &&
                      grad_output.dim(1) == oh && grad_output.dim(2) == ow,
                  label_ << ": bad grad shape " << grad_output.shape_string());
}

Tensor Conv2D::forward(const Tensor& input, Tape& tape) {
  FRLFI_CHECK_MSG(input.rank() == 3 && input.dim(0) == in_c_,
                  label_ << ": bad input shape " << input.shape_string());
  const ConvShape s = shape_for(input.dim(1), input.dim(2));
  const std::size_t rows = s.rows(), ncols = s.cols();
  float* cols = tape.record_floats(input, rows * ncols);
  im2col(input.data().data(), s, cols);
  Tensor out({out_c_, s.out_h(), s.out_w()});
  // Bias-seeded fused GEMM: the per-element accumulation chain (bias first,
  // taps in increasing order) matches forward_naive exactly, so the two
  // paths agree bit-for-bit on wide outputs.
  gemm_bias_rows(weight_.value.data().data(), cols,
                 bias_.value.data().data(), out.data().data(), out_c_, rows,
                 ncols);
  return out;
}

Tensor Conv2D::batch_inner_with(Tensor input, std::size_t batch,
                                const float* wt, const float* bias) const {
  FRLFI_CHECK_MSG(batch >= 1 && input.rank() == 4 && input.dim(0) == in_c_ &&
                      input.dim(3) == batch,
                  label_ << ": bad batch-inner input " << input.shape_string()
                         << " for batch " << batch);
  const ConvShape s = shape_for(input.dim(1), input.dim(2));
  const std::size_t oh = s.out_h(), ow = s.out_w();
  const std::size_t ncols = oh * ow;
  Tensor out({out_c_, oh, ow, batch});
  const float* x = input.data().data();
  float* y = out.data().data();
  // The direct kernel runs forward()'s ordered chain, so it serves every
  // batch wide enough to pay for it whose samples forward() also runs
  // ordered (>= kGemmNarrowN output positions). Every other batch gathers
  // each sample out of the batch-inner layout and runs forward()'s
  // im2col+GEMM kernels on it — the exact forward() compute, minus its
  // caching. Either way every output bit is forward()'s, at every width.
  if (batch >= kBatchInnerWideKernelMin && ncols >= kGemmNarrowN) {
    if (s.pad == 0) {
      conv_batch_inner(x, wt, bias, s, out_c_, batch, y);
      return out;
    }
    // Zero-pad into scratch so the padding taps join the chain as the
    // +0.0f values im2col writes for them.
    thread_local std::vector<float> xpad;
    const ConvShape p{in_c_, s.h + 2 * s.pad, s.w + 2 * s.pad, k_, stride_, 0};
    xpad.assign(in_c_ * p.h * p.w * batch, 0.0f);
    for (std::size_t ic = 0; ic < in_c_; ++ic)
      for (std::size_t iy = 0; iy < s.h; ++iy)
        std::copy_n(x + (ic * s.h + iy) * s.w * batch, s.w * batch,
                    xpad.data() +
                        ((ic * p.h + iy + s.pad) * p.w + s.pad) * batch);
    conv_batch_inner(xpad.data(), wt, bias, p, out_c_, batch, y);
    return out;
  }
  thread_local std::vector<float> xs, cols, ys;
  cols.resize(s.rows() * ncols);
  // At width 1 the batch-inner tensors ARE the sample and its output, so
  // the kernels run on them in place.
  if (batch == 1) {
    im2col(x, s, cols.data());
    gemm_bias_rows(wt, cols.data(), bias, y, out_c_, s.rows(), ncols);
    return out;
  }
  const std::size_t sample = in_c_ * s.h * s.w;
  xs.resize(sample);
  ys.resize(out_c_ * ncols);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t f = 0; f < sample; ++f) xs[f] = x[f * batch + b];
    im2col(xs.data(), s, cols.data());
    gemm_bias_rows(wt, cols.data(), bias, ys.data(), out_c_, s.rows(), ncols);
    for (std::size_t f = 0; f < out_c_ * ncols; ++f) y[f * batch + b] = ys[f];
  }
  return out;
}

Tensor Conv2D::infer(Tensor input, std::size_t batch,
                     const ParamSource& src) {
  if (src.own())
    return batch_inner_with(std::move(input), batch,
                            weight_.value.data().data(),
                            bias_.value.data().data());
  thread_local std::vector<float> wbuf, bbuf;
  const auto wb = src.view->weight_bias(src.offset, weight_.value.size(),
                                        bias_.value.size(), wbuf, bbuf);
  return batch_inner_with(std::move(input), batch, wb.weight, wb.bias);
}

Tensor Conv2D::backward(const Tensor& grad_output, Tape& tape,
                        bool need_input_grad) {
  const Tape::Record& r = tape.pop();
  const ConvShape s = shape_for(r.dim(1), r.dim(2));
  check_grad_shape(grad_output, s.out_h(), s.out_w());
  const std::size_t rows = s.rows(), ncols = s.cols();
  FRLFI_CHECK_MSG(r.size() == rows * ncols,
                  label_ << ": record is not a forward() patch matrix");
  const auto& g = grad_output.data();
  // Bias gradient: row sums of the output gradient.
  for (std::size_t oc = 0; oc < out_c_; ++oc) {
    float acc = 0.0f;
    const float* grow = &g[oc * ncols];
    for (std::size_t j = 0; j < ncols; ++j) acc += grow[j];
    bias_.grad[oc] += acc;
  }
  // Weight gradient: dW (out_c x rows) += G (out_c x ncols) · colsᵀ.
  gemm_nt_accumulate(g.data(), r.values(), weight_.grad.data().data(),
                     out_c_, ncols, rows);
  if (!need_input_grad) return {};
  // Input gradient in patch space: gcols (rows x ncols) = Wᵀ · G, then
  // scatter back onto the image with col2im.
  gcols_.resize(rows * ncols);
  gemm_tn(weight_.value.data().data(), g.data(), gcols_.data(), rows, out_c_,
          ncols);
  Tensor grad_input(r.shape());
  col2im_accumulate(gcols_.data(), s, grad_input.data().data());
  return grad_input;
}

Tensor Conv2D::forward_naive(const Tensor& input) const {
  FRLFI_CHECK_MSG(input.rank() == 3 && input.dim(0) == in_c_,
                  label_ << ": bad input shape " << input.shape_string());
  const std::size_t h = input.dim(1), w = input.dim(2);
  const std::size_t oh = out_extent(h), ow = out_extent(w);
  Tensor out({out_c_, oh, ow});
  const auto& x = input.data();
  const auto& wt = weight_.value.data();
  for (std::size_t oc = 0; oc < out_c_; ++oc) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float acc = bias_.value[oc];
        for (std::size_t ic = 0; ic < in_c_; ++ic) {
          for (std::size_t ky = 0; ky < k_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                static_cast<std::ptrdiff_t>(pad_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < k_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              acc += wt[((oc * in_c_ + ic) * k_ + ky) * k_ + kx] *
                     x[(ic * h + static_cast<std::size_t>(iy)) * w +
                       static_cast<std::size_t>(ix)];
            }
          }
        }
        out[(oc * oh + oy) * ow + ox] = acc;
      }
    }
  }
  return out;
}

Tensor Conv2D::backward_naive(const Tensor& input,
                              const Tensor& grad_output) {
  FRLFI_CHECK_MSG(input.rank() == 3 && input.dim(0) == in_c_,
                  label_ << ": bad input shape " << input.shape_string());
  const std::size_t h = input.dim(1), w = input.dim(2);
  const std::size_t oh = out_extent(h), ow = out_extent(w);
  check_grad_shape(grad_output, oh, ow);
  Tensor grad_input(input.shape());
  const auto& x = input.data();
  const auto& wt = weight_.value.data();
  auto& gw = weight_.grad.data();
  auto& gx = grad_input.data();
  for (std::size_t oc = 0; oc < out_c_; ++oc) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const float g = grad_output[(oc * oh + oy) * ow + ox];
        if (g == 0.0f) continue;
        bias_.grad[oc] += g;
        for (std::size_t ic = 0; ic < in_c_; ++ic) {
          for (std::size_t ky = 0; ky < k_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                static_cast<std::ptrdiff_t>(pad_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < k_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              const std::size_t xi =
                  (ic * h + static_cast<std::size_t>(iy)) * w +
                  static_cast<std::size_t>(ix);
              const std::size_t wi = ((oc * in_c_ + ic) * k_ + ky) * k_ + kx;
              gw[wi] += g * x[xi];
              gx[xi] += g * wt[wi];
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::string Conv2D::name() const {
  std::ostringstream os;
  os << label_ << "(Conv2D " << in_c_ << "->" << out_c_ << " k" << k_ << " s"
     << stride_ << " p" << pad_ << ")";
  return os.str();
}

std::unique_ptr<Layer> Conv2D::clone() const {
  return std::make_unique<Conv2D>(*this);
}

}  // namespace frlfi
