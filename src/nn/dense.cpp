#include "nn/dense.hpp"

#include <cmath>
#include <sstream>

#include "core/error.hpp"
#include "fault/overlay.hpp"
#include "tensor/gemm.hpp"

namespace frlfi {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng,
             std::string layer_name)
    : in_(in_features), out_(out_features), label_(std::move(layer_name)) {
  FRLFI_CHECK(in_ > 0 && out_ > 0);
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_ + out_));  // Xavier uniform
  weight_ = Parameter(label_ + ".weight",
                      Tensor::random_uniform({out_, in_}, rng, -bound, bound));
  bias_ = Parameter(label_ + ".bias", Tensor({out_}));
}

Tensor Dense::forward(const Tensor& input, Tape& tape) {
  FRLFI_CHECK_MSG(input.size() == in_, label_ << ": input size " << input.size()
                                              << " != " << in_);
  tape.record(input);
  Tensor out({out_});
  gemv_bias(weight_.value.data().data(), input.data().data(),
            bias_.value.data().data(), out.data().data(), out_, in_);
  return out;
}

Tensor Dense::batch_inner_with(Tensor input, std::size_t batch,
                               const float* wt, const float* bias) const {
  FRLFI_CHECK_MSG(batch >= 1 && input.size() == batch * in_ &&
                      input.dim(input.rank() - 1) == batch,
                  label_ << ": bad batch-inner input " << input.shape_string()
                         << " for batch " << batch);
  Tensor out({out_, batch});
  if (batch == 1) {
    // A width-1 batch-inner tensor IS the sample: forward()'s kernel on
    // the operands in place.
    gemv_bias(wt, input.data().data(), bias, out.data().data(), out_, in_);
    return out;
  }
  // Every wider batch: one ordered strip kernel, whose per-element chain
  // is gemv_bias's.
  gemm_bias_rows_ordered(wt, input.data().data(), bias, out.data().data(),
                         out_, in_, batch);
  return out;
}

Tensor Dense::infer(Tensor input, std::size_t batch, const ParamSource& src) {
  if (src.own())
    return batch_inner_with(std::move(input), batch,
                            weight_.value.data().data(),
                            bias_.value.data().data());
  thread_local std::vector<float> wbuf, bbuf;
  const auto wb = src.view->weight_bias(src.offset, weight_.value.size(),
                                        bias_.value.size(), wbuf, bbuf);
  return batch_inner_with(std::move(input), batch, wb.weight, wb.bias);
}

Tensor Dense::backward(const Tensor& grad_output, Tape& tape,
                       bool need_input_grad) {
  FRLFI_CHECK_MSG(grad_output.size() == out_, label_ << ": grad size mismatch");
  const Tape::Record& r = tape.pop();
  const auto& g = grad_output.data();
  for (std::size_t o = 0; o < out_; ++o) bias_.grad[o] += g[o];
  // dW += g · xᵀ (rank-1 GEMM-accumulate); dx += Wᵀ · g. Both kernels keep
  // the reference accumulation order, so results match the old loops.
  ger_accumulate(g.data(), r.values(), weight_.grad.data().data(), out_, in_);
  if (!need_input_grad) return {};
  Tensor grad_input({in_});
  gemv_t_accumulate(weight_.value.data().data(), g.data(),
                    grad_input.data().data(), out_, in_);
  return grad_input;
}

std::string Dense::name() const {
  std::ostringstream os;
  os << label_ << "(Dense " << in_ << "->" << out_ << ")";
  return os.str();
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::make_unique<Dense>(*this);
}

}  // namespace frlfi
