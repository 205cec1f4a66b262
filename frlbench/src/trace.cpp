#include "trace.hpp"


namespace frlbench {

void Tracer::push(Site site) {
  stack_.push_back(Frame{site, Clock::now(), 0});
}

std::int64_t Tracer::pop() {
  const Clock::time_point end = Clock::now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - frame.start)
          .count();
  const std::int64_t self = duration - frame.child_ns;
  const auto slot = static_cast<std::size_t>(frame.site);
  self_ns_[slot] += self;
  ++spans_[slot];
  if (!stack_.empty()) stack_.back().child_ns += duration;
  return self;
}

frlfi::Tensor TracedLayer::forward(const frlfi::Tensor& input) {
  if (!tracer_.enabled()) return inner_->forward(input);
  if (index_ == 0) ++tracer_.forward_calls;
  tracer_.push(Site::kNnForward);
  frlfi::Tensor out = inner_->forward(input);
  tracer_.add_forward_layer_ns(index_, tracer_.pop());
  return out;
}

frlfi::Tensor TracedLayer::backward(const frlfi::Tensor& grad_output) {
  const Span span(tracer_, Site::kNnBackward);
  return inner_->backward(grad_output);
}

frlfi::Network traced_network(const frlfi::Network& plain, Tracer& tracer) {
  frlfi::Network net;
  for (std::size_t i = 0; i < plain.layer_count(); ++i)
    net.add(std::make_unique<TracedLayer>(plain.layer(i).clone(), i, tracer));
  return net;
}

}  // namespace frlbench
