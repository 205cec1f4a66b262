#include "rl/reinforce.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "nn/activations.hpp"
#include "nn/loss.hpp"

namespace frlfi {

ReinforceTrainer::ReinforceTrainer(Network& net, Options opts)
    : net_(&net),
      opts_(opts),
      optimizer_(net, {.learning_rate = opts.learning_rate,
                       .momentum = 0.0f,
                       .clip_norm = 10.0f}) {
  FRLFI_CHECK(opts_.gamma > 0.0f && opts_.gamma < 1.0f);
  FRLFI_CHECK(opts_.max_steps >= 1);
  FRLFI_CHECK(opts_.baseline_beta >= 0.0f && opts_.baseline_beta < 1.0f);
}

EpisodeStats ReinforceTrainer::run_episode(Environment& env, Rng& rng,
                                           bool learn) {
  // The acting forwards record the episode on the tape, and the learn pass
  // differentiates it from there. One tape per thread, shared by every
  // trainer on it and reused across episodes: it holds the longest
  // episode's records once per thread, not once per trainer.
  thread_local Tape tape;
  tape.clear();
  EpisodeStats stats;
  std::vector<float> step_logits;  // the acting logits, step after step
  std::vector<std::size_t> actions;
  std::vector<float> rewards;

  Tensor obs = env.reset(rng);
  for (std::size_t t = 0; t < opts_.max_steps; ++t) {
    const Tensor logits = learn ? net_->forward(obs, tape) : net_->forward(obs);
    std::size_t action;
    if (learn) {
      const Tensor probs = softmax(logits);
      std::vector<double> w(probs.data().begin(), probs.data().end());
      action = rng.categorical(w);
    } else {
      action = logits.argmax();
    }

    StepResult result = env.step(action, rng);
    stats.total_reward += result.reward;
    ++stats.steps;

    if (learn) {
      step_logits.insert(step_logits.end(), logits.data().begin(),
                         logits.data().end());
      actions.push_back(action);
      rewards.push_back(result.reward);
    }

    if (result.done) {
      stats.success = result.success;
      break;
    }
    obs = std::move(result.observation);
  }

  if (learn && !rewards.empty()) {
    // Discounted returns-to-go.
    std::vector<float> returns(rewards.size());
    float g = 0.0f;
    for (std::size_t t = rewards.size(); t-- > 0;) {
      g = rewards[t] + opts_.gamma * g;
      returns[t] = g;
    }
    // Running baseline on the episode's mean return for variance reduction.
    float mean_return = 0.0f;
    for (float r : returns) mean_return += r;
    mean_return /= static_cast<float>(returns.size());
    if (!baseline_init_) {
      reward_baseline_ = mean_return;
      baseline_init_ = true;
    } else {
      reward_baseline_ = opts_.baseline_beta * reward_baseline_ +
                         (1.0f - opts_.baseline_beta) * mean_return;
    }

    // Steps in order t = 0..T-1, so the gradients accumulate in the same
    // order as when each step was forwarded again here.
    net_->zero_grad();
    const float inv_t = 1.0f / static_cast<float>(returns.size());
    Tensor logits({step_logits.size() / returns.size()});
    for (std::size_t t = 0; t < returns.size(); ++t) {
      std::copy_n(step_logits.begin() +
                      static_cast<std::ptrdiff_t>(t * logits.size()),
                  logits.size(), logits.data().begin());
      const float advantage = (returns[t] - reward_baseline_) * inv_t;
      net_->backward(policy_gradient_grad(logits, actions[t], advantage), tape,
                     t);
    }
    optimizer_.step();
  }
  return stats;
}

}  // namespace frlfi
