// SGD family optimizers (vanilla / momentum / Nesterov momentum) with weight
// decay and global-norm gradient clipping — the local optimizers of Table 1.
#pragma once

#include <span>
#include <vector>

namespace sidco::nn {

struct OptimizerConfig {
  double learning_rate = 0.1;
  double momentum = 0.0;       ///< 0 = vanilla SGD
  bool nesterov = false;       ///< Nesterov momentum (requires momentum > 0)
  double weight_decay = 0.0;   ///< decoupled L2 added to the gradient
  double clip_norm = 0.0;      ///< 0 = no clipping; else clip ||g||_2
};

class SgdOptimizer {
 public:
  explicit SgdOptimizer(const OptimizerConfig& config);

  /// Applies one update with gradient `grad` to `params` (equal sizes, not
  /// overlapping).  `grad` is read in place unless weight decay or clipping
  /// needs a modified copy.  The velocity buffer is lazily sized on first
  /// use.
  void step(std::span<float> params, std::span<const float> grad);

  [[nodiscard]] double learning_rate() const { return config_.learning_rate; }
  [[nodiscard]] const OptimizerConfig& config() const { return config_; }

  /// Momentum state, exposed for replica handoff (a worker joining a running
  /// session mid-stream adopts the source replica's velocity so the replica
  /// invariant survives elastic membership).  Empty until the first momentum
  /// step, and always empty for vanilla SGD.
  [[nodiscard]] std::span<const float> velocity() const { return velocity_; }
  void overwrite_velocity(std::span<const float> velocity) {
    velocity_.assign(velocity.begin(), velocity.end());
  }

 private:
  OptimizerConfig config_;
  std::vector<float> velocity_;
  std::vector<float> scratch_;
};

}  // namespace sidco::nn
