// Finite-difference gradient checks for every layer type and for full models.
// The harness wraps a layer in the scalar loss L = 0.5 ||out||^2, so
// dL/d(out) = out and analytic parameter/input gradients can be compared
// against central differences.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/frame.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/model.h"
#include "nn/zoo.h"
#include "util/check.h"
#include "util/rng.h"

namespace sidco {
namespace {

constexpr float kStep = 1e-2F;
constexpr double kRelTol = 0.06;
constexpr double kAbsTol = 2e-3;

void expect_close(double analytic, double numeric, const std::string& what) {
  const double scale = std::max({std::fabs(analytic), std::fabs(numeric), 1.0});
  EXPECT_NEAR(analytic, numeric, kAbsTol + kRelTol * scale) << what;
}

double half_sq_loss(nn::Layer& layer, std::span<const float> in,
                    std::vector<float>& out, std::size_t batch) {
  layer.forward(in, out, batch);
  double loss = 0.0;
  for (float v : out) loss += 0.5 * static_cast<double>(v) * v;
  return loss;
}

/// Checks d(loss)/d(params) and optionally d(loss)/d(input) for `layer`.
void check_layer(nn::Layer& layer, std::size_t batch, std::uint64_t seed,
                 bool check_input_grads = true,
                 bool integer_inputs = false, std::size_t input_range = 0) {
  util::Rng rng(seed);
  const std::size_t n_params = layer.parameter_count();
  std::vector<float> params(n_params);
  std::vector<float> grads(n_params, 0.0F);
  layer.bind(params, grads);
  layer.init(rng);

  std::vector<float> input(batch * layer.in_features());
  for (float& x : input) {
    x = integer_inputs
            ? static_cast<float>(rng.uniform_index(input_range))
            : static_cast<float>(rng.normal(0.0, 1.0));
  }

  std::vector<float> out(batch * layer.out_features());
  (void)half_sq_loss(layer, input, out, batch);

  // Analytic gradients.
  std::vector<float> grad_in(input.size(), 0.0F);
  layer.backward(input, out, grad_in, batch);

  // Parameter gradients vs central differences (sampled indices).
  const std::size_t param_samples = std::min<std::size_t>(n_params, 24);
  for (std::size_t s = 0; s < param_samples; ++s) {
    const std::size_t idx =
        n_params <= 24 ? s : rng.uniform_index(n_params);
    const float saved = params[idx];
    params[idx] = saved + kStep;
    const double up = half_sq_loss(layer, input, out, batch);
    params[idx] = saved - kStep;
    const double down = half_sq_loss(layer, input, out, batch);
    params[idx] = saved;
    expect_close(grads[idx], (up - down) / (2.0 * kStep),
                 "param grad idx " + std::to_string(idx));
  }

  if (!check_input_grads) return;
  const std::size_t input_samples = std::min<std::size_t>(input.size(), 16);
  for (std::size_t s = 0; s < input_samples; ++s) {
    const std::size_t idx =
        input.size() <= 16 ? s : rng.uniform_index(input.size());
    const float saved = input[idx];
    input[idx] = saved + kStep;
    const double up = half_sq_loss(layer, input, out, batch);
    input[idx] = saved - kStep;
    const double down = half_sq_loss(layer, input, out, batch);
    input[idx] = saved;
    expect_close(grad_in[idx], (up - down) / (2.0 * kStep),
                 "input grad idx " + std::to_string(idx));
  }
  // Restore the cached forward state for any later use.
  (void)half_sq_loss(layer, input, out, batch);
}

TEST(GradCheck, Dense) {
  nn::Dense layer(7, 5);
  check_layer(layer, 3, 1);
}

TEST(GradCheck, ActivationRelu) {
  nn::Activation layer(nn::ActivationKind::kRelu, 11);
  check_layer(layer, 4, 2);
}

TEST(GradCheck, ActivationTanh) {
  nn::Activation layer(nn::ActivationKind::kTanh, 11);
  check_layer(layer, 4, 3);
}

TEST(GradCheck, ActivationSigmoid) {
  nn::Activation layer(nn::ActivationKind::kSigmoid, 11);
  check_layer(layer, 4, 4);
}

TEST(GradCheck, Conv2DStride1) {
  nn::Conv2D layer({.channels = 2, .height = 6, .width = 6}, 3, 3, 1, 1);
  check_layer(layer, 2, 5);
}

TEST(GradCheck, Conv2DStride2) {
  nn::Conv2D layer({.channels = 2, .height = 6, .width = 6}, 3, 3, 2, 1);
  check_layer(layer, 2, 6);
}

TEST(GradCheck, Conv2DOneByOne) {
  nn::Conv2D layer({.channels = 3, .height = 4, .width = 4}, 2, 1, 1, 0);
  check_layer(layer, 2, 7);
}

// A zero stride or kernel is a named error, not a division by zero (stride)
// or a bias-only layer larger than its input (kernel).
TEST(Conv2DShape, RejectsZeroStrideAndKernel) {
  const nn::ConvShape in{.channels = 2, .height = 6, .width = 6};
  EXPECT_THROW(nn::Conv2D(in, 3, 3, /*stride=*/0, 1), util::CheckError);
  EXPECT_THROW(nn::Conv2D(in, 3, /*kernel=*/0, 1, 1), util::CheckError);
  EXPECT_THROW(nn::ResidualBlock(in, 3, /*stride=*/0), util::CheckError);
}

TEST(GradCheck, MaxPool) {
  nn::MaxPool2D layer({.channels = 2, .height = 4, .width = 4});
  check_layer(layer, 2, 8);
}

TEST(GradCheck, GlobalAvgPool) {
  nn::GlobalAvgPool layer({.channels = 3, .height = 4, .width = 4});
  check_layer(layer, 2, 9);
}

TEST(GradCheck, ResidualBlockIdentitySkip) {
  nn::ResidualBlock layer({.channels = 3, .height = 4, .width = 4}, 3, 1);
  check_layer(layer, 2, 10);
}

TEST(GradCheck, ResidualBlockProjectionSkip) {
  nn::ResidualBlock layer({.channels = 2, .height = 4, .width = 4}, 4, 2);
  check_layer(layer, 2, 11);
}

TEST(GradCheck, Lstm) {
  nn::Lstm layer(/*time=*/4, /*input=*/3, /*hidden=*/5);
  check_layer(layer, 2, 12);
}

TEST(GradCheck, Embedding) {
  nn::Embedding layer(/*time=*/4, /*vocab=*/9, /*dim=*/5);
  check_layer(layer, 3, 13, /*check_input_grads=*/false,
              /*integer_inputs=*/true, /*input_range=*/9);
}

TEST(GradCheck, TimeDistributedDense) {
  nn::TimeDistributed layer(std::make_unique<nn::Dense>(4, 3), /*time=*/5);
  check_layer(layer, 2, 14);
}

// Model-level: loss gradient through a small CNN + softmax CE.
TEST(GradCheck, FullModelThroughCrossEntropy) {
  nn::Model model;
  model.add(std::make_unique<nn::Conv2D>(
      nn::ConvShape{.channels = 1, .height = 4, .width = 4}, 2, 3, 1, 1));
  model.add(std::make_unique<nn::Activation>(nn::ActivationKind::kRelu, 32));
  model.add(std::make_unique<nn::Dense>(32, 3));
  model.bind();
  model.init(77);

  util::Rng rng(21);
  const std::size_t batch = 2;
  std::vector<float> input(batch * model.in_features());
  for (float& x : input) x = static_cast<float>(rng.normal(0.0, 1.0));
  const std::vector<int> labels = {0, 2};

  auto loss_value = [&] {
    const std::span<const float> logits = model.forward(input, batch);
    return nn::softmax_cross_entropy_eval(logits, labels, 3).loss;
  };

  model.zero_gradients();
  const std::span<const float> logits = model.forward(input, batch);
  std::vector<float> dlogits(logits.size());
  nn::softmax_cross_entropy(logits, labels, 3, dlogits);
  model.backward(dlogits);
  const std::vector<float> analytic(model.gradients().begin(),
                                    model.gradients().end());

  const std::span<float> params = model.parameters();
  for (int s = 0; s < 30; ++s) {
    const std::size_t idx = rng.uniform_index(params.size());
    const float saved = params[idx];
    params[idx] = saved + kStep;
    const double up = loss_value();
    params[idx] = saved - kStep;
    const double down = loss_value();
    params[idx] = saved;
    expect_close(analytic[idx], (up - down) / (2.0 * kStep),
                 "model param " + std::to_string(idx));
  }
}

// Zoo construction sanity: every benchmark builds, has consistent dims, and a
// forward/backward round trip works at the spec batch size.
class ZooBuild : public ::testing::TestWithParam<nn::Benchmark> {};

TEST_P(ZooBuild, BuildsAndRoundTrips) {
  const nn::Benchmark benchmark = GetParam();
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(benchmark);
  nn::Model model = nn::make_model(benchmark, 1);
  EXPECT_GT(model.parameter_count(), 1000U);
  EXPECT_EQ(model.in_features(), spec.input_features);
  const std::size_t labels_per_sample =
      spec.time_steps == 0 ? 1 : spec.time_steps;
  EXPECT_EQ(model.out_features(), labels_per_sample * spec.classes);

  util::Rng rng(3);
  const std::size_t batch = 2;
  std::vector<float> input(batch * model.in_features());
  const bool token_input = benchmark == nn::Benchmark::kLstmPtb;
  for (float& x : input) {
    x = token_input ? static_cast<float>(rng.uniform_index(spec.classes))
                    : static_cast<float>(rng.normal(0.0, 1.0));
  }
  const std::span<const float> logits = model.forward(input, batch);
  for (float v : logits) ASSERT_TRUE(std::isfinite(v));
  std::vector<float> dlogits(logits.size(), 0.01F);
  model.zero_gradients();
  model.backward(dlogits);
  double grad_norm = 0.0;
  for (float g : model.gradients()) {
    ASSERT_TRUE(std::isfinite(g));
    grad_norm += static_cast<double>(g) * g;
  }
  EXPECT_GT(grad_norm, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ZooBuild,
                         ::testing::ValuesIn(nn::kAllBenchmarks));

TEST(Model, RejectsDimensionMismatch) {
  nn::Model model;
  model.add(std::make_unique<nn::Dense>(4, 5));
  model.add(std::make_unique<nn::Dense>(6, 2));  // 5 != 6
  EXPECT_THROW(model.bind(), util::CheckError);
}

// One seeded build per session: every other replica copies the seeded
// model's parameters, so a copy must be byte-identical to seeding.
class ZooCopy : public ::testing::TestWithParam<nn::Benchmark> {};

TEST_P(ZooCopy, CopiedParametersAreByteIdenticalToSeeding) {
  const nn::Model seeded = nn::make_model(GetParam(), 31);
  const nn::Model copied = nn::make_model(GetParam(), 31, seeded.parameters());
  ASSERT_EQ(copied.parameter_count(), seeded.parameter_count());
  EXPECT_EQ(std::memcmp(copied.parameters().data(), seeded.parameters().data(),
                        seeded.parameter_count() * sizeof(float)),
            0);
  for (float g : copied.gradients()) ASSERT_EQ(g, 0.0F);
}

TEST_P(ZooCopy, WrongSizedInitialIsANamedError) {
  const nn::Model seeded = nn::make_model(GetParam(), 31);
  const std::span<const float> params = seeded.parameters();
  std::vector<float> longer(params.begin(), params.end());
  longer.push_back(0.0F);
  for (const std::span<const float> wrong :
       {params.first(params.size() - 1), std::span<const float>(longer)}) {
    try {
      (void)nn::make_model(GetParam(), 31, wrong);
      ADD_FAILURE() << "a " << wrong.size() << "-value initial vector for a "
                    << params.size() << "-parameter model was accepted";
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "initial parameter vector does not match"),
                std::string::npos)
          << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ZooCopy,
                         ::testing::ValuesIn(nn::kAllBenchmarks));

// The seeded draws are pinned: FNV-1a of every proxy's parameter bytes at
// seed 7.  make_model binds every layer before initializing any, which must
// leave the draws exactly where layer-by-layer bind + init put them.
TEST(Model, SeededParametersArePinned) {
  const std::pair<nn::Benchmark, std::uint32_t> pinned[] = {
      {nn::Benchmark::kResNet20, 0x1e92d72fU},
      {nn::Benchmark::kVgg16, 0x4cf89d32U},
      {nn::Benchmark::kResNet50, 0xe70edb25U},
      {nn::Benchmark::kVgg19, 0xc3e47d31U},
      {nn::Benchmark::kLstmPtb, 0x23d10041U},
      {nn::Benchmark::kLstmAn4, 0x83500fbcU}};
  for (const auto& [benchmark, hash] : pinned) {
    const nn::Model model = nn::make_model(benchmark, 7);
    const std::span<const float> params = model.parameters();
    EXPECT_EQ(comm::fnv1a32(std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(params.data()),
                  params.size() * sizeof(float))),
              hash)
        << nn::benchmark_spec(benchmark).name;
  }
}

TEST(Model, IdenticalSeedsGiveIdenticalParameters) {
  nn::Model a = nn::make_model(nn::Benchmark::kResNet20, 9);
  nn::Model b = nn::make_model(nn::Benchmark::kResNet20, 9);
  ASSERT_EQ(a.parameter_count(), b.parameter_count());
  const std::span<const float> pa = a.parameters();
  const std::span<const float> pb = b.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) ASSERT_EQ(pa[i], pb[i]);
}

}  // namespace
}  // namespace sidco
