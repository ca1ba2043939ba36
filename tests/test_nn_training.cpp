// Learning sanity: single-process SGD on the synthetic tasks must reduce the
// loss and beat chance accuracy; optimizer mechanics (momentum, Nesterov,
// clipping, the in-place gradient read) behave as specified.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "data/factory.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/zoo.h"
#include "util/check.h"
#include "util/rng.h"

namespace sidco {
namespace {

struct TrainOutcome {
  double first_loss = 0.0;
  double last_loss = 0.0;
  double final_accuracy = 0.0;
};

TrainOutcome train_locally(nn::Benchmark benchmark, std::size_t iterations,
                           std::size_t batch) {
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(benchmark);
  nn::Model model = nn::make_model(benchmark, 123);
  auto dataset = data::make_dataset(benchmark, 321);
  nn::SgdOptimizer optimizer(spec.optimizer);
  util::Rng rng(7);

  TrainOutcome outcome;
  std::vector<float> dlogits;
  for (std::size_t i = 0; i < iterations; ++i) {
    const data::Batch b = dataset->sample(batch, rng);
    model.zero_gradients();
    const std::span<const float> logits = model.forward(b.inputs, batch);
    dlogits.resize(logits.size());
    const nn::LossResult loss =
        nn::softmax_cross_entropy(logits, b.labels, spec.classes, dlogits);
    model.backward(dlogits);
    optimizer.step(model.parameters(), model.gradients());
    if (i == 0) outcome.first_loss = loss.loss;
    outcome.last_loss = loss.loss;
    outcome.final_accuracy = loss.accuracy;
  }
  return outcome;
}

class LearnsTask : public ::testing::TestWithParam<nn::Benchmark> {};

TEST_P(LearnsTask, LossDropsAndBeatsChance) {
  const nn::Benchmark benchmark = GetParam();
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(benchmark);
  // Recurrent models ramp slower at the tuned (stable) learning rates.
  const std::size_t iterations = spec.time_steps == 0 ? 120 : 280;
  const TrainOutcome outcome = train_locally(benchmark, iterations, 8);
  EXPECT_LT(outcome.last_loss, outcome.first_loss * 0.9)
      << spec.name << ": loss did not decrease";
  const double chance = 1.0 / static_cast<double>(spec.classes);
  EXPECT_GT(outcome.final_accuracy, chance * 1.5)
      << spec.name << ": accuracy not above chance";
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, LearnsTask,
                         ::testing::Values(nn::Benchmark::kResNet20,
                                           nn::Benchmark::kVgg16,
                                           nn::Benchmark::kLstmPtb,
                                           nn::Benchmark::kLstmAn4));

TEST(Optimizer, VanillaSgdStep) {
  nn::OptimizerConfig config;
  config.learning_rate = 0.5;
  nn::SgdOptimizer opt(config);
  std::vector<float> params = {1.0F, 2.0F};
  const std::vector<float> grad = {0.2F, -0.4F};
  opt.step(params, grad);
  EXPECT_FLOAT_EQ(params[0], 0.9F);
  EXPECT_FLOAT_EQ(params[1], 2.2F);
}

TEST(Optimizer, MomentumAccumulates) {
  nn::OptimizerConfig config;
  config.learning_rate = 1.0;
  config.momentum = 0.5;
  nn::SgdOptimizer opt(config);
  std::vector<float> params = {0.0F};
  const std::vector<float> grad = {1.0F};
  opt.step(params, grad);  // v = 1, p = -1
  EXPECT_FLOAT_EQ(params[0], -1.0F);
  opt.step(params, grad);  // v = 1.5, p = -2.5
  EXPECT_FLOAT_EQ(params[0], -2.5F);
}

TEST(Optimizer, NesterovLookahead) {
  nn::OptimizerConfig config;
  config.learning_rate = 1.0;
  config.momentum = 0.5;
  config.nesterov = true;
  nn::SgdOptimizer opt(config);
  std::vector<float> params = {0.0F};
  const std::vector<float> grad = {1.0F};
  opt.step(params, grad);  // v = 1; update = g + mu v = 1.5
  EXPECT_FLOAT_EQ(params[0], -1.5F);
}

TEST(Optimizer, ClippingBoundsGlobalNorm) {
  nn::OptimizerConfig config;
  config.learning_rate = 1.0;
  config.clip_norm = 1.0;
  nn::SgdOptimizer opt(config);
  std::vector<float> params = {0.0F, 0.0F};
  const std::vector<float> grad = {3.0F, 4.0F};  // norm 5 -> scaled by 1/5
  opt.step(params, grad);
  EXPECT_NEAR(params[0], -0.6F, 1e-6);
  EXPECT_NEAR(params[1], -0.8F, 1e-6);
}

TEST(Optimizer, WeightDecayAddsToGradient) {
  nn::OptimizerConfig config;
  config.learning_rate = 1.0;
  config.weight_decay = 0.1;
  nn::SgdOptimizer opt(config);
  std::vector<float> params = {2.0F};
  const std::vector<float> grad = {0.0F};
  opt.step(params, grad);  // effective grad = 0.2
  EXPECT_NEAR(params[0], 1.8F, 1e-6);
}

// Without weight decay or clipping the optimizer reads the gradient in place.
// The update must equal the copy-then-step loop it replaced, bit for bit:
// the same element operations on the same values, for momentum 0,
// heavy-ball and Nesterov, over several steps so the velocity carries over.
TEST(Optimizer, InPlaceGradientMatchesCopyThenStep) {
  constexpr std::size_t kN = 1031;
  util::Rng rng(5);
  std::normal_distribution<float> normal(0.0F, 1.0F);
  std::vector<std::vector<float>> grads(3, std::vector<float>(kN));
  for (auto& grad : grads) {
    for (float& g : grad) g = normal(rng);
    grad[0] = -0.0F;
    grad[1] = std::numeric_limits<float>::denorm_min();
  }
  std::vector<float> initial(kN);
  for (float& p : initial) p = normal(rng);

  for (const auto& [momentum, nesterov] :
       {std::pair{0.0, false}, std::pair{0.9, false}, std::pair{0.9, true}}) {
    SCOPED_TRACE("momentum " + std::to_string(momentum) +
                 (nesterov ? ", nesterov" : ""));
    nn::OptimizerConfig config;
    config.learning_rate = 0.05;
    config.momentum = momentum;
    config.nesterov = nesterov;
    nn::SgdOptimizer opt(config);
    std::vector<float> params = initial;

    // The replaced loop: copy the gradient into scratch, then step from it.
    std::vector<float> want = initial;
    std::vector<float> velocity(kN, 0.0F);
    const auto lr = static_cast<float>(config.learning_rate);
    const auto mu = static_cast<float>(config.momentum);
    for (const std::vector<float>& grad : grads) {
      opt.step(params, grad);
      const std::vector<float> scratch = grad;
      for (std::size_t i = 0; i < kN; ++i) {
        if (momentum == 0.0) {
          want[i] -= lr * scratch[i];
        } else if (nesterov) {
          velocity[i] = mu * velocity[i] + scratch[i];
          want[i] -= lr * (scratch[i] + mu * velocity[i]);
        } else {
          velocity[i] = mu * velocity[i] + scratch[i];
          want[i] -= lr * velocity[i];
        }
      }
      ASSERT_EQ(std::memcmp(params.data(), want.data(), kN * sizeof(float)),
                0);
    }
  }
}

TEST(Optimizer, RejectsBadConfig) {
  nn::OptimizerConfig config;
  config.learning_rate = 0.0;
  EXPECT_THROW(nn::SgdOptimizer{config}, util::CheckError);
  config.learning_rate = 0.1;
  config.nesterov = true;  // without momentum
  EXPECT_THROW(nn::SgdOptimizer{config}, util::CheckError);
}

TEST(Loss, PerfectPredictionHasLowLossAndFullAccuracy) {
  // Two rows, three classes; logits strongly favor the labels.
  const std::vector<float> logits = {10.0F, 0.0F, 0.0F, 0.0F, 0.0F, 10.0F};
  const std::vector<int> labels = {0, 2};
  const nn::LossResult r = nn::softmax_cross_entropy_eval(logits, labels, 3);
  EXPECT_LT(r.loss, 1e-3);
  EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  const std::vector<float> logits = {0.3F, -0.2F, 1.0F};
  const std::vector<int> labels = {1};
  std::vector<float> dlogits(3);
  nn::softmax_cross_entropy(logits, labels, 3, dlogits);
  EXPECT_NEAR(dlogits[0] + dlogits[1] + dlogits[2], 0.0, 1e-6);
  EXPECT_LT(dlogits[1], 0.0);  // true class pushes up
}

TEST(Loss, UniformLogitsGiveLogCClassLoss) {
  const std::vector<float> logits(8, 0.0F);
  const std::vector<int> labels = {3};
  const nn::LossResult r = nn::softmax_cross_entropy_eval(logits, labels, 8);
  EXPECT_NEAR(r.loss, std::log(8.0), 1e-6);
  EXPECT_NEAR(nn::perplexity(r.loss), 8.0, 1e-4);
}

}  // namespace
}  // namespace sidco
