#include "nn/zoo.h"

#include <algorithm>
#include <memory>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "util/check.h"

namespace sidco::nn {

namespace {

// Optimizer settings follow Table 1 (momentum flavor per benchmark); learning
// rates are re-tuned for the proxy widths.
OptimizerConfig sgd(double lr) {
  OptimizerConfig config;
  config.learning_rate = lr;
  return config;
}

OptimizerConfig nesterov(double lr, double clip = 0.0) {
  OptimizerConfig config;
  config.learning_rate = lr;
  config.momentum = 0.9;
  config.nesterov = true;
  config.clip_norm = clip;
  return config;
}

Model make_resnet_proxy(std::size_t stages, std::size_t base_width,
                        std::size_t classes) {
  Model model;
  ConvShape shape{.channels = 3, .height = 16, .width = 16};
  auto stem = std::make_unique<Conv2D>(shape, base_width, 3, 1, 1);
  shape = stem->out_shape();
  model.add(std::move(stem));
  model.add(std::make_unique<Activation>(ActivationKind::kRelu,
                                         shape.features()));
  std::size_t width = base_width;
  for (std::size_t stage = 0; stage < stages; ++stage) {
    const std::size_t stride = stage == 0 ? 1 : 2;
    const std::size_t out_width = stage == 0 ? width : width * 2;
    auto block1 = std::make_unique<ResidualBlock>(shape, out_width, stride);
    shape = block1->out_shape();
    model.add(std::move(block1));
    auto block2 = std::make_unique<ResidualBlock>(shape, out_width, 1);
    shape = block2->out_shape();
    model.add(std::move(block2));
    width = out_width;
  }
  model.add(std::make_unique<GlobalAvgPool>(shape));
  model.add(std::make_unique<Dense>(width, classes));
  return model;
}

Model make_vgg_proxy(bool deep, std::size_t fc_width, std::size_t classes) {
  Model model;
  ConvShape shape{.channels = 3, .height = 16, .width = 16};
  auto add_conv = [&](std::size_t out_channels) {
    auto conv = std::make_unique<Conv2D>(shape, out_channels, 3, 1, 1);
    shape = conv->out_shape();
    model.add(std::move(conv));
    model.add(std::make_unique<Activation>(ActivationKind::kRelu,
                                           shape.features()));
  };
  auto add_pool = [&] {
    auto pool = std::make_unique<MaxPool2D>(shape);
    shape = pool->out_shape();
    model.add(std::move(pool));
  };
  add_conv(16);
  add_pool();
  add_conv(32);
  if (deep) add_conv(32);
  add_pool();
  add_conv(64);
  add_pool();
  // VGG keeps ~90% of its parameters in the FC head; the proxies do too.
  model.add(std::make_unique<Dense>(shape.features(), fc_width));
  model.add(std::make_unique<Activation>(ActivationKind::kRelu, fc_width));
  model.add(std::make_unique<Dense>(fc_width, fc_width));
  model.add(std::make_unique<Activation>(ActivationKind::kRelu, fc_width));
  model.add(std::make_unique<Dense>(fc_width, classes));
  return model;
}

Model make_lstm_lm_proxy(std::size_t time, std::size_t vocab,
                         std::size_t embed, std::size_t hidden) {
  Model model;
  model.add(std::make_unique<Embedding>(time, vocab, embed));
  model.add(std::make_unique<Lstm>(time, embed, hidden));
  model.add(std::make_unique<Lstm>(time, hidden, hidden));
  model.add(std::make_unique<TimeDistributed>(
      std::make_unique<Dense>(hidden, vocab), time));
  return model;
}

Model make_lstm_speech_proxy(std::size_t time, std::size_t features,
                             std::size_t frontend, std::size_t hidden,
                             std::size_t classes) {
  Model model;
  model.add(std::make_unique<TimeDistributed>(
      std::make_unique<Dense>(features, frontend), time));
  model.add(std::make_unique<Activation>(ActivationKind::kRelu,
                                         time * frontend));
  model.add(std::make_unique<Lstm>(time, frontend, hidden));
  model.add(std::make_unique<Lstm>(time, hidden, hidden));
  model.add(std::make_unique<TimeDistributed>(
      std::make_unique<Dense>(hidden, classes), time));
  return model;
}

/// The unbound layer stack of `benchmark`'s proxy.
Model proxy_layers(Benchmark benchmark) {
  const BenchmarkSpec& spec = benchmark_spec(benchmark);
  switch (benchmark) {
    case Benchmark::kResNet20:
      return make_resnet_proxy(/*stages=*/3, /*base_width=*/8, spec.classes);
    case Benchmark::kVgg16:
      return make_vgg_proxy(/*deep=*/false, /*fc_width=*/512, spec.classes);
    case Benchmark::kResNet50:
      return make_resnet_proxy(/*stages=*/4, /*base_width=*/8, spec.classes);
    case Benchmark::kVgg19:
      return make_vgg_proxy(/*deep=*/true, /*fc_width=*/1024, spec.classes);
    case Benchmark::kLstmPtb:
      return make_lstm_lm_proxy(spec.time_steps, spec.classes, /*embed=*/64,
                                /*hidden=*/96);
    case Benchmark::kLstmAn4:
      return make_lstm_speech_proxy(spec.time_steps, /*features=*/24,
                                    /*frontend=*/48, /*hidden=*/64,
                                    spec.classes);
  }
  util::check(false, "unknown benchmark");
  return Model();
}

}  // namespace

const BenchmarkSpec& benchmark_spec(Benchmark benchmark) {
  static const BenchmarkSpec kResNet20{
      .name = "ResNet20",
      .task = "Image Classification",
      .dataset = "synthetic-CIFAR10",
      .quality_metric = "Top-1 Accuracy",
      .classes = 10,
      .time_steps = 0,
      .input_features = 3 * 16 * 16,
      .batch_size = 16,
      .optimizer = sgd(0.03),
      .comm_overhead = 0.10,
      .paper_parameters = 269467};
  static const BenchmarkSpec kVgg16{
      .name = "VGG16",
      .task = "Image Classification",
      .dataset = "synthetic-CIFAR10",
      .quality_metric = "Top-1 Accuracy",
      .classes = 10,
      .time_steps = 0,
      .input_features = 3 * 16 * 16,
      .batch_size = 16,
      .optimizer = sgd(0.05),
      .comm_overhead = 0.60,
      .paper_parameters = 14982987};
  static const BenchmarkSpec kResNet50{
      .name = "ResNet50",
      .task = "Image Classification",
      .dataset = "synthetic-ImageNet",
      .quality_metric = "Top-1 Accuracy",
      .classes = 50,
      .time_steps = 0,
      .input_features = 3 * 16 * 16,
      .batch_size = 8,
      .optimizer = nesterov(0.05),
      .comm_overhead = 0.72,
      .paper_parameters = 25559081};
  static const BenchmarkSpec kVgg19{
      .name = "VGG19",
      .task = "Image Classification",
      .dataset = "synthetic-ImageNet",
      .quality_metric = "Top-1 Accuracy",
      .classes = 50,
      .time_steps = 0,
      .input_features = 3 * 16 * 16,
      .batch_size = 8,
      .optimizer = nesterov(0.02),
      .comm_overhead = 0.83,
      .paper_parameters = 143671337};
  static const BenchmarkSpec kLstmPtb{
      .name = "LSTM-PTB",
      .task = "Language Modeling",
      .dataset = "synthetic-PTB",
      .quality_metric = "Test Perplexity",
      .classes = 64,
      .time_steps = 16,
      .input_features = 16,
      .batch_size = 8,
      .optimizer = nesterov(0.5, /*clip=*/5.0),
      .comm_overhead = 0.94,
      .paper_parameters = 66034000};
  static const BenchmarkSpec kLstmAn4{
      .name = "LSTM-AN4",
      .task = "Speech Recognition",
      .dataset = "synthetic-AN4",
      .quality_metric = "CER",
      .classes = 30,
      .time_steps = 20,
      .input_features = 20 * 24,
      .batch_size = 8,
      .optimizer = nesterov(0.2, /*clip=*/5.0),
      .comm_overhead = 0.80,
      .paper_parameters = 43476256};
  switch (benchmark) {
    case Benchmark::kResNet20: return kResNet20;
    case Benchmark::kVgg16: return kVgg16;
    case Benchmark::kResNet50: return kResNet50;
    case Benchmark::kVgg19: return kVgg19;
    case Benchmark::kLstmPtb: return kLstmPtb;
    case Benchmark::kLstmAn4: return kLstmAn4;
  }
  util::check(false, "unknown benchmark");
  return kResNet20;
}

Model make_model(Benchmark benchmark, std::uint64_t seed,
                 std::span<const float> initial) {
  Model model = proxy_layers(benchmark);
  model.bind();
  if (initial.empty()) {
    model.init(seed);
  } else {
    util::check(initial.size() == model.parameter_count(),
                "initial parameter vector does not match the model's "
                "parameter count");
    std::copy(initial.begin(), initial.end(), model.parameters().begin());
  }
  return model;
}

}  // namespace sidco::nn
