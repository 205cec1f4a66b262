#include "nn/network.hpp"

#include <algorithm>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
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

std::size_t batch_shard_count(std::size_t batch, std::size_t lanes) {
  static_assert(kBatchShardMinPerShard % kBatchInnerWideKernelMin == 0,
                "every shard of a sharded batch must stay on the wide kernels");
  if (lanes <= 1) return 1;
  const std::size_t max_shards = batch / kBatchShardMinPerShard;
  return max_shards <= 1 ? 1 : std::min(lanes, max_shards);
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

// Row-range task engine of the batched forward: contiguous runs of rows
// sharing one view pointer (no lane views: the whole batch, effective view
// null), each run split by the
// width-preserving shard planner. Each task takes a contiguous slice of
// batch-major rows, transposes it to batch-inner, runs
// `run_stack(x, nb, view)` on its own tensors (per-task workspace; nothing
// below is shared but the read-only weights/views and the hook), and
// transposes back. Task outputs are stitched afterwards so no lane writes
// into a shared buffer; a single task skips the slice and stitch copies.
template <typename RunStack>
Tensor run_row_tasks(const Tensor& input, std::size_t batch,
                     std::size_t lanes, ThreadPool* pool,
                     std::span<const WeightView* const> lane_views,
                     RunStack&& run_stack) {
  struct RowTask {
    std::size_t b0, b1;
    const WeightView* view;
  };
  const bool grouped = !lane_views.empty();
  std::vector<RowTask> tasks;
  std::size_t run0 = 0;
  for (std::size_t b = 1; b <= batch; ++b) {
    if (b < batch && (!grouped || lane_views[b] == lane_views[run0])) continue;
    const std::size_t run = b - run0;
    const std::size_t shards = batch_shard_count(run, lanes);
    for (std::size_t s = 0; s < shards; ++s) {
      std::size_t r0, r1;
      shard_range(run, shards, s, r0, r1);
      tasks.push_back(
          {run0 + r0, run0 + r1, grouped ? lane_views[run0] : nullptr});
    }
    run0 = b;
  }
  if (tasks.size() == 1)
    return batch_to_major(
        run_stack(batch_to_inner(input, batch), batch, tasks[0].view), batch);
  const std::size_t sample = input.size() / batch;
  const std::vector<std::size_t> sample_shape(input.shape().begin() + 1,
                                              input.shape().end());
  std::vector<Tensor> task_out(tasks.size());
  const auto run_task = [&](std::size_t t_begin, std::size_t t_end) {
    for (std::size_t t = t_begin; t < t_end; ++t) {
      const RowTask& task = tasks[t];
      const std::size_t nb = task.b1 - task.b0;
      std::vector<std::size_t> sub_shape{nb};
      sub_shape.insert(sub_shape.end(), sample_shape.begin(),
                       sample_shape.end());
      Tensor sub(std::move(sub_shape));
      std::copy_n(
          input.data().begin() + static_cast<std::ptrdiff_t>(task.b0 * sample),
          nb * sample, sub.data().begin());
      Tensor x = run_stack(batch_to_inner(sub, nb), nb, task.view);
      task_out[t] = batch_to_major(x, nb);
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(tasks.size(), run_task);
  } else {
    run_task(0, tasks.size());
  }
  std::vector<std::size_t> out_shape = task_out[0].shape();
  out_shape[0] = batch;
  const std::size_t out_sample = task_out[0].size() / task_out[0].dim(0);
  Tensor out(std::move(out_shape));
  std::size_t row = 0;
  for (const Tensor& part : task_out) {
    std::copy_n(part.data().begin(), part.size(),
                out.data().begin() +
                    static_cast<std::ptrdiff_t>(row * out_sample));
    row += part.dim(0);
  }
  return out;
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
                              ThreadPool* pool,
                              std::span<const WeightView* const> lane_views) {
  FRLFI_CHECK_MSG(!layers_.empty(), "forward_batch on empty network");
  FRLFI_CHECK_MSG(batch >= 1 && input.dim(0) == batch,
                  "bad batch input " << input.shape_string());
  if (!check_lane_views(lane_views, batch, param_total_)) lane_views = {};
  return run_row_tasks(input, batch, pool ? pool->size() : 1, pool, lane_views,
                       [&](Tensor x, std::size_t nb, const WeightView* view) {
                         return infer_stack(std::move(x), nb,
                                            ParamSource{view, 0});
                       });
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
