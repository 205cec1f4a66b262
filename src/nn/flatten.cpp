#include "nn/flatten.hpp"

#include "core/error.hpp"

namespace frlfi {

Flatten::Flatten(std::string layer_name) : label_(std::move(layer_name)) {}

Tensor Flatten::forward(const Tensor& input, Tape& tape) {
  FRLFI_CHECK(!input.empty());
  tape.record_shape(input);
  return input.reshaped({input.size()});
}

Tensor Flatten::infer(Tensor input, std::size_t batch, const ParamSource&) {
  FRLFI_CHECK_MSG(batch >= 1 && input.rank() >= 2 &&
                      input.dim(input.rank() - 1) == batch,
                  label_ << ": bad batch-inner input " << input.shape_string());
  const std::size_t features = input.size() / batch;
  return std::move(input).reshaped({features, batch});
}

Tensor Flatten::backward(const Tensor& grad_output, Tape& tape,
                         bool need_input_grad) {
  const Tape::Record& r = tape.pop();
  if (!need_input_grad) return {};
  return grad_output.reshaped(r.shape());
}

std::string Flatten::name() const { return label_ + "(Flatten)"; }

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>(label_);
}

}  // namespace frlfi
