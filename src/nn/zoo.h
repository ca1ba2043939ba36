// Model zoo: reduced-width proxies of the paper's six benchmarks (Table 1).
//
// Architectures match the paper's families (residual CNN, VGG-style CNN,
// multi-layer LSTM LM, conv/dense + LSTM speech model); widths are scaled so
// a full distributed-training session runs in seconds on CPU.  The paper-
// scale dimensions are retained in the spec for Table 1 and for the network
// timing model (which can be pointed at either the proxy or paper size).
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "nn/model.h"
#include "nn/optimizer.h"

namespace sidco::nn {

enum class Benchmark {
  kResNet20,  ///< CIFAR-proxy image classification
  kVgg16,     ///< CIFAR-proxy image classification (FC-heavy)
  kResNet50,  ///< ImageNet-proxy image classification
  kVgg19,     ///< ImageNet-proxy image classification (FC-heavy)
  kLstmPtb,   ///< language modeling (2-layer LSTM)
  kLstmAn4,   ///< speech recognition proxy (dense + 2-layer LSTM)
};

inline constexpr Benchmark kAllBenchmarks[] = {
    Benchmark::kResNet20, Benchmark::kVgg16,  Benchmark::kResNet50,
    Benchmark::kVgg19,    Benchmark::kLstmPtb, Benchmark::kLstmAn4};

struct BenchmarkSpec {
  std::string_view name;
  std::string_view task;
  std::string_view dataset;        ///< synthetic stand-in name
  std::string_view quality_metric;
  std::size_t classes = 0;
  std::size_t time_steps = 0;      ///< 0 for feedforward models
  std::size_t input_features = 0;  ///< per-sample flattened input size
  std::size_t batch_size = 0;      ///< per-worker batch
  OptimizerConfig optimizer;
  /// Fraction of iteration time spent communicating at paper scale
  /// (Table 1 "Comm Overhead"); drives the network timing model.
  double comm_overhead = 0.0;
  /// Paper-scale parameter count (Table 1), for reporting and for wire-volume
  /// scaling in the timing model.
  std::size_t paper_parameters = 0;
};

[[nodiscard]] const BenchmarkSpec& benchmark_spec(Benchmark benchmark);

/// Builds the proxy model for `benchmark`.  With `initial` empty its
/// parameters are drawn from `seed`; otherwise they are a copy of `initial`,
/// which must hold exactly parameter_count() values.  Copying a seeded
/// model's parameters gives a byte-identical model without redrawing them.
[[nodiscard]] Model make_model(Benchmark benchmark, std::uint64_t seed,
                               std::span<const float> initial = {});

}  // namespace sidco::nn
