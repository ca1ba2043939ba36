#include "nn/optimizer.h"

#include <cmath>

#include "util/check.h"

namespace sidco::nn {

SgdOptimizer::SgdOptimizer(const OptimizerConfig& config) : config_(config) {
  util::check(config.learning_rate > 0.0, "learning rate must be positive");
  util::check(config.momentum >= 0.0 && config.momentum < 1.0,
              "momentum must be in [0, 1)");
  util::check(!config.nesterov || config.momentum > 0.0,
              "Nesterov requires momentum > 0");
}

void SgdOptimizer::step(std::span<float> params, std::span<const float> grad) {
  util::check(params.size() == grad.size(), "optimizer size mismatch");
  const std::size_t n = params.size();

  // Effective gradient: `grad` itself, read in place, or grad +
  // weight_decay * params clipped by global norm, built in scratch_.
  std::span<const float> g = grad;
  if (config_.weight_decay > 0.0 || config_.clip_norm > 0.0) {
    scratch_.assign(grad.begin(), grad.end());
    if (config_.weight_decay > 0.0) {
      const auto wd = static_cast<float>(config_.weight_decay);
      for (std::size_t i = 0; i < n; ++i) scratch_[i] += wd * params[i];
    }
    if (config_.clip_norm > 0.0) {
      double norm_sq = 0.0;
      for (float v : scratch_) norm_sq += static_cast<double>(v) * v;
      const double norm = std::sqrt(norm_sq);
      if (norm > config_.clip_norm) {
        const auto scale = static_cast<float>(config_.clip_norm / norm);
        for (float& v : scratch_) v *= scale;
      }
    }
    g = scratch_;
  }

  const auto lr = static_cast<float>(config_.learning_rate);
  if (config_.momentum == 0.0) {
    for (std::size_t i = 0; i < n; ++i) params[i] -= lr * g[i];
    return;
  }
  if (velocity_.size() != n) velocity_.assign(n, 0.0F);
  const auto mu = static_cast<float>(config_.momentum);
  if (config_.nesterov) {
    for (std::size_t i = 0; i < n; ++i) {
      velocity_[i] = mu * velocity_[i] + g[i];
      params[i] -= lr * (g[i] + mu * velocity_[i]);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      velocity_[i] = mu * velocity_[i] + g[i];
      params[i] -= lr * velocity_[i];
    }
  }
}

}  // namespace sidco::nn
