#include "nn/network.hpp"

#include <algorithm>
#include <vector>

#include "core/error.hpp"
#include "fault/overlay.hpp"

namespace frlfi {

Network& Network::add(std::unique_ptr<Layer> layer) {
  FRLFI_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  layer_offsets_.push_back(param_total_);
  for (Parameter* p : layers_.back()->parameters())
    param_total_ += p->value.size();
  param_cache_valid_ = false;
  return *this;
}

Layer& Network::layer(std::size_t i) {
  FRLFI_CHECK_MSG(i < layers_.size(), "layer index " << i);
  return *layers_[i];
}

const Layer& Network::layer(std::size_t i) const {
  FRLFI_CHECK_MSG(i < layers_.size(), "layer index " << i);
  return *layers_[i];
}

std::size_t Network::layer_offset(std::size_t i) const {
  FRLFI_CHECK_MSG(i < layer_offsets_.size(), "layer index " << i);
  return layer_offsets_[i];
}

void Network::set_activation_hook(
    std::function<void(std::size_t, Tensor&)> hook) {
  activation_hook_ = std::move(hook);
}

Tensor Network::forward(const Tensor& input) {
  FRLFI_CHECK_MSG(!layers_.empty(), "forward on empty network");
  Tensor x = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    x = layers_[i]->forward(x);
    if (activation_hook_) activation_hook_(i, x);
  }
  return x;
}

Tensor Network::forward(const Tensor& input, Tape& tape) {
  FRLFI_CHECK_MSG(!layers_.empty(), "forward on empty network");
  tape.begin_step();
  const std::size_t first = tape.records();
  Tensor x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    x = layers_[i]->forward(i == 0 ? input : x, tape);
    FRLFI_CHECK_MSG(tape.records() == first + i + 1,
                    layers_[i]->name() << ": tape forward must record once");
    if (activation_hook_) activation_hook_(i, x);
  }
  return x;
}

void Network::backward(const Tensor& grad_output, Tape& tape,
                       std::size_t step) {
  FRLFI_CHECK_MSG(!layers_.empty(), "backward on empty network");
  tape.rewind(step);
  Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;)
    g = layers_[i]->backward(g, tape, /*need_input_grad=*/i > 0);
  FRLFI_CHECK_MSG(tape.step_consumed(), "tape step " << step << " not consumed");
}

namespace {

// True when any lane view is set; checks the lane count and that every
// set view spans the network's flat parameter vector.
bool check_lane_views(std::span<const WeightView* const> lane_views,
                      std::size_t batch, std::size_t params) {
  if (lane_views.empty()) return false;
  FRLFI_CHECK_MSG(lane_views.size() == batch,
                  "lane_views " << lane_views.size() << " for batch "
                                << batch);
  bool any = false;
  for (const WeightView* v : lane_views) {
    if (v == nullptr) continue;
    FRLFI_CHECK_MSG(v->params == params, "view holds " << v->params
                                                       << " params, network "
                                                       << params);
    any = true;
  }
  return any;
}

}  // namespace

Tensor Network::infer_stack(Tensor x, std::size_t batch, ParamSource src) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    src.offset = layer_offsets_[i];
    x = layers_[i]->infer(std::move(x), batch, src);
    if (activation_hook_) activation_hook_(i, x);
  }
  return x;
}

Tensor Network::forward_batch(const Tensor& input, std::size_t batch,
                              std::nullptr_t,
                              std::span<const WeightView* const> lane_views) {
  FRLFI_CHECK_MSG(!layers_.empty(), "forward_batch on empty network");
  FRLFI_CHECK_MSG(batch >= 1 && input.dim(0) == batch,
                  "bad batch input " << input.shape_string());
  if (!check_lane_views(lane_views, batch, param_total_)) lane_views = {};
  // `nb` batch-major rows through one view: transpose to batch-inner, run
  // the stack, transpose back.
  const auto run = [&](const Tensor& rows, std::size_t nb,
                       const WeightView* view) {
    return batch_to_major(
        infer_stack(batch_to_inner(rows, nb), nb, ParamSource{view, 0}), nb);
  };
  const auto run_end = [&](std::size_t b0) {
    std::size_t b1 = b0 + 1;
    while (b1 < batch && lane_views[b1] == lane_views[b0]) ++b1;
    return b1;
  };
  // One view for the whole batch: no slice or stitch copies.
  if (lane_views.empty()) return run(input, batch, nullptr);
  if (run_end(0) == batch) return run(input, batch, lane_views[0]);
  // Contiguous rows sharing one view run as one sub-batch, each written
  // into its rows of the output.
  const std::size_t sample = input.size() / batch;
  std::vector<std::size_t> sub_shape = input.shape();
  Tensor out;
  std::size_t out_sample = 0;
  for (std::size_t b0 = 0; b0 < batch;) {
    const std::size_t b1 = run_end(b0);
    const std::size_t nb = b1 - b0;
    sub_shape[0] = nb;
    Tensor sub(sub_shape);
    std::copy_n(input.data().begin() + static_cast<std::ptrdiff_t>(b0 * sample),
                nb * sample, sub.data().begin());
    const Tensor part = run(sub, nb, lane_views[b0]);
    if (b0 == 0) {
      std::vector<std::size_t> out_shape = part.shape();
      out_shape[0] = batch;
      out = Tensor(std::move(out_shape));
      out_sample = part.size() / nb;
    }
    std::copy_n(part.data().begin(), part.size(),
                out.data().begin() +
                    static_cast<std::ptrdiff_t>(b0 * out_sample));
    b0 = b1;
  }
  return out;
}

std::vector<Parameter*> Network::parameters() {
  if (!param_cache_valid_) {
    param_cache_.clear();
    for (auto& l : layers_)
      for (Parameter* p : l->parameters()) param_cache_.push_back(p);
    param_cache_valid_ = true;
  }
  return param_cache_;
}

void Network::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

std::vector<float> Network::flat_parameters() const {
  std::vector<float> flat;
  flat.reserve(parameter_count());
  for (const auto& l : layers_)
    for (Parameter* p : const_cast<Layer&>(*l).parameters())
      flat.insert(flat.end(), p->value.data().begin(), p->value.data().end());
  return flat;
}

void Network::copy_flat_parameters(std::span<float> out) const {
  FRLFI_CHECK_MSG(out.size() == parameter_count(),
                  "flat size " << out.size() << " != " << parameter_count());
  std::size_t off = 0;
  for (const auto& l : layers_) {
    for (Parameter* p : const_cast<Layer&>(*l).parameters()) {
      const auto& src = p->value.data();
      std::copy(src.begin(), src.end(),
                out.begin() + static_cast<std::ptrdiff_t>(off));
      off += src.size();
    }
  }
}

void Network::set_flat_parameters(std::span<const float> flat) {
  FRLFI_CHECK_MSG(flat.size() == parameter_count(),
                  "flat size " << flat.size() << " != " << parameter_count());
  std::size_t off = 0;
  for (auto& l : layers_) {
    for (Parameter* p : l->parameters()) {
      auto& dst = p->value.data();
      std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
                flat.begin() + static_cast<std::ptrdiff_t>(off + dst.size()),
                dst.begin());
      off += dst.size();
    }
  }
}

Network Network::clone() const {
  Network copy;
  for (const auto& l : layers_) copy.add(l->clone());
  return copy;
}

}  // namespace frlfi
