#include "rl/qlearner.hpp"

#include "core/error.hpp"
#include "nn/loss.hpp"

namespace frlfi {

QLearner::QLearner(Network& net, Options opts)
    : net_(&net),
      opts_(opts),
      optimizer_(net, {.learning_rate = opts.learning_rate,
                       .momentum = 0.0f,
                       .clip_norm = 5.0f}) {
  FRLFI_CHECK(opts_.gamma > 0.0f && opts_.gamma < 1.0f);
  FRLFI_CHECK(opts_.max_steps >= 1);
}

EpisodeStats QLearner::run_episode(Environment& env, Rng& rng, double epsilon,
                                   bool learn) {
  // One step on the tape at a time; per thread, reused across steps,
  // episodes and learners.
  thread_local Tape tape;
  EpisodeStats stats;
  Tensor obs = env.reset(rng);
  const std::size_t n_actions = env.action_count();

  for (std::size_t t = 0; t < opts_.max_steps; ++t) {
    tape.clear();
    const Tensor q = learn ? net_->forward(obs, tape) : net_->forward(obs);
    std::size_t action;
    if (learn && rng.bernoulli(epsilon))
      action = static_cast<std::size_t>(rng.uniform_index(n_actions));
    else
      action = q.argmax();

    StepResult result = env.step(action, rng);
    stats.total_reward += result.reward;
    ++stats.steps;

    if (learn) {
      float target = result.reward;
      if (!result.done) {
        // Bootstrap from the current network (no target network: the
        // problems here are small enough for vanilla TD(0)).
        target += opts_.gamma * net_->forward(result.observation).max();
      }
      net_->backward(td_loss_grad(q, action, target), tape, 0);
      optimizer_.step();
    }

    if (result.done) {
      stats.success = result.success;
      return stats;
    }
    obs = std::move(result.observation);
  }
  // Step cap exceeded: failure by definition.
  stats.success = false;
  return stats;
}

}  // namespace frlfi
