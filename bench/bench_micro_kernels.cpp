// Kernel microbenchmarks (google-benchmark): the linear passes SIDCo's O(d)
// claim rests on, vs the selection kernels the baselines pay for.
//
// PR 2 additions — the fused/parallel kernel layer:
//  - BM_AbsMomentsFused vs BM_SeparateMomentPasses: one fused scan replacing
//    the mean/log/max pass stack the gamma fit used to make.
//  - BM_SidcoMultiStageCompress{,Legacy}: the end-to-end multi-stage compress
//    path, new (single full-gradient refinement scan + geometric buffer
//    filters, allocation-free) vs a faithful replica of the pre-PR algorithm
//    (per-stage full rescans with fresh allocations).
//  - BM_SidcoTailRefit{Fused,Legacy}: the stage-2..M refinement loop in
//    isolation — the part whose full rescans were eliminated.
//  - *Threads variants: same kernels under ThreadPool::set_threads(T); the
//    fixed-block partitioning keeps outputs bit-identical, so these measure
//    pure scaling.
//
// PR 8 additions — scalar-vs-SIMD dispatch pairs: the fused moments and
// selection kernels re-run under util::simd::set_active(kScalar) (the
// *Scalar twins).  The dispatched path computes bit-identical results (the
// differential suite enforces that), so the in-run scalar/simd time ratio
// is a pure speed measurement and is gated alongside the seed-vs-fused
// pairs.
//
// nn layer pairs: BM_ConvLayer{,Legacy} (ResNet20's 8->8 16x16 conv at
// batch 16) and BM_DenseLayer{,Legacy} (VGG19's 1024x1024 FC at batch 8) run
// one forward + backward through the vectorized nn::Conv2D / nn::Dense and
// through the frozen scalar loops in tests/legacy_nn_kernels.h, the same copy
// test_nn_kernels checks them against.  Results are bit-identical, so the
// in-run legacy/vectorized ratio is pure speed and gated like the pairs above.
//
// Replica construction pair: BM_MakeWorkers/vgg19 builds a session's 3 VGG19
// workers the way every engine does (dist::detail::make_workers: worker 0
// seeded, the others copying its parameters), BM_MakeWorkersSeeded/vgg19
// seeds every worker on its own (make_worker(config, w) with no initial
// parameters).  The replicas are byte-identical either way (test_dist), so
// the in-run seeded/copied ratio is pure speed, and only this gate sees a
// return to per-replica seeding.
//
// The CI bench-smoke job stores this binary's JSON output (merged with
// bench_codec's) as the committed baseline and
// tools/check_bench_regression.py gates regressions on the multi-stage and
// dispatch pairs (see README "Performance").
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/factory.h"
#include "core/sidco_compressor.h"
#include "core/threshold_estimator.h"
#include "dist/session.h"
#include "dist/session_detail.h"
#include "dist/worker.h"
#include "legacy_nn_kernels.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "stats/distributions.h"
#include "tensor/vector_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

std::vector<float> laplace_vector(std::size_t n) {
  sidco::util::Rng rng(17);
  const sidco::stats::Laplace d(0.0005);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(d.sample(rng));
  return v;
}

/// Shared large inputs so each size is generated once per process.  Fails
/// loudly on a size with no cached vector — silently benchmarking the wrong
/// input would corrupt the committed baseline comparisons.
const std::vector<float>& shared_vector(std::size_t n) {
  static const std::vector<float> big = laplace_vector(std::size_t{1} << 24);
  static const std::vector<float> mid = laplace_vector(std::size_t{1} << 22);
  static const std::vector<float> small = laplace_vector(std::size_t{1} << 18);
  if (n == (std::size_t{1} << 24)) return big;
  if (n == (std::size_t{1} << 22)) return mid;
  if (n == (std::size_t{1} << 18)) return small;
  std::fprintf(stderr, "shared_vector: unsupported size %zu\n", n);
  std::abort();
}

// ------------------------------------------------------------- basic kernels

void BM_MeanAbs(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sidco::tensor::mean_abs(v));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MeanAbs)->Arg(1 << 18)->Arg(1 << 22)->Arg(1 << 24);

void BM_MeanVarAbs(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sidco::tensor::mean_var_abs(v));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MeanVarAbs)->Arg(1 << 22);

void BM_CountAtLeast(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sidco::tensor::count_at_least(v, 0.003F));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CountAtLeast)->Arg(1 << 22);

void BM_ExactTopK(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  const std::size_t k = static_cast<std::size_t>(state.range(0)) / 100;
  sidco::tensor::Workspace ws;
  sidco::tensor::SparseGradient out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sidco::tensor::top_k(v, k, ws, out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExactTopK)->Arg(1 << 18)->Arg(1 << 22)->Arg(1 << 24);

void BM_ExtractAtLeast(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  sidco::tensor::Workspace ws;
  sidco::tensor::SparseGradient out;
  for (auto _ : state) {
    sidco::tensor::extract_at_least(v, 0.003F, ws, out);
    benchmark::DoNotOptimize(out.nnz());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExtractAtLeast)->Arg(1 << 22);

// ------------------------------------------------------------- fused moments

void BM_AbsMomentsFused(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  sidco::tensor::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sidco::tensor::abs_moments(
        v, std::numeric_limits<float>::infinity(), /*with_log=*/true, &ws));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AbsMomentsFused)->Arg(1 << 22)->Arg(1 << 24);

void BM_SeparateMomentPasses(benchmark::State& state) {
  // What the gamma fit + fallback used to cost: three independent scans.
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sidco::tensor::mean_abs(v));
    benchmark::DoNotOptimize(sidco::tensor::mean_log_abs(v));
    benchmark::DoNotOptimize(sidco::tensor::max_abs(v));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SeparateMomentPasses)->Arg(1 << 22)->Arg(1 << 24);

void BM_SidcoEstimateFirstStage(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sidco::core::estimate_first_stage(
        sidco::core::Sid::kExponential, v, 0.25));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SidcoEstimateFirstStage)->Arg(1 << 22)->Arg(1 << 24);

// ----------------------------------------------- multi-stage SIDCo pipeline

// Deep-compression operating point: delta = 1e-4 plans six stages
// (0.25^5 * 0.1024), so the legacy algorithm pays five full-gradient rescans
// per call where the fused pipeline pays zero.
constexpr double kTargetRatio = 1e-4;
constexpr double kFirstStageRatio = 0.25;
constexpr int kStages = 6;

// ---- seed-faithful kernel replicas -----------------------------------------
// The legacy benchmarks below measure the *pre-PR* implementation: the
// original serial kernels (simple loops, branchy conditional push_back,
// fresh allocations per call) verbatim from the seed vector_ops.cpp, driving
// the original per-stage full-rescan algorithm from the seed
// sidco_compressor.cpp.  This is the baseline the fused pipeline replaced.

double seed_mean_abs(std::span<const float> x) {
  double acc = 0.0;
  for (float v : x) acc += std::fabs(static_cast<double>(v));
  return x.empty() ? 0.0 : acc / static_cast<double>(x.size());
}

std::vector<float> seed_abs_exceedances(std::span<const float> x,
                                        float threshold,
                                        std::size_t reserve_hint) {
  std::vector<float> out;
  out.reserve(reserve_hint);
  for (float v : x) {
    const float a = std::fabs(v);
    if (a >= threshold) out.push_back(a);
  }
  return out;
}

sidco::tensor::SparseGradient seed_extract_at_least(std::span<const float> x,
                                                    float threshold,
                                                    std::size_t reserve_hint) {
  sidco::tensor::SparseGradient out;
  out.dense_dim = x.size();
  out.indices.reserve(reserve_hint);
  out.values.reserve(reserve_hint);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x[i]) >= threshold) {
      out.indices.push_back(static_cast<std::uint32_t>(i));
      out.values.push_back(x[i]);
    }
  }
  return out;
}

double seed_tail_threshold(std::span<const float> exceedances, double shift,
                           double delta) {
  // Seed estimate_tail_stage, exponential: beta = mean(m) - shift.
  const double beta =
      std::max(seed_mean_abs(exceedances) - shift, 1e-30);
  return beta * std::log(1.0 / delta) + shift;
}

/// The seed SidcoCompressor::do_compress multi-stage path: stage-1 fit scan,
/// then one full-gradient exceedance rescan per stage, then a full-gradient
/// extraction.
sidco::tensor::SparseGradient legacy_multi_stage_compress(
    std::span<const float> gradient) {
  using sidco::core::SidcoCompressor;
  const std::size_t d = gradient.size();
  const std::vector<double> ratios = SidcoCompressor::plan_stage_ratios(
      kTargetRatio, kFirstStageRatio, kStages);
  // Seed estimate_first_stage, exponential: beta = mean|g|.
  double eta = std::max(seed_mean_abs(gradient), 1e-30) *
               std::log(1.0 / ratios.front());
  for (std::size_t m = 1; m < ratios.size(); ++m) {
    const std::size_t expect = std::max<std::size_t>(
        16, static_cast<std::size_t>(
                static_cast<double>(d) *
                std::pow(kFirstStageRatio, static_cast<double>(m))));
    const std::vector<float> exceedances =
        seed_abs_exceedances(gradient, static_cast<float>(eta), expect);
    if (exceedances.size() < 4) break;
    const double next = seed_tail_threshold(exceedances, eta, ratios[m]);
    if (!(next > eta)) break;
    eta = next;
  }
  const auto k = static_cast<std::size_t>(kTargetRatio *
                                          static_cast<double>(d));
  return seed_extract_at_least(gradient, static_cast<float>(eta), k + k / 4);
}

std::unique_ptr<sidco::core::SidcoCompressor> fixed_stage_sidco(
    sidco::core::Sid sid) {
  sidco::core::SidcoConfig config;
  config.sid = sid;
  config.target_ratio = kTargetRatio;
  config.first_stage_ratio = kFirstStageRatio;
  config.controller.initial_stages = kStages;
  config.controller.period = 1U << 30;  // freeze the stage count
  return std::make_unique<sidco::core::SidcoCompressor>(config);
}

void BM_SidcoMultiStageCompress(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  auto compressor = fixed_stage_sidco(sidco::core::Sid::kExponential);
  sidco::compressors::CompressResult out;
  for (int warm = 0; warm < 3; ++warm) compressor->compress_into(v, out);
  for (auto _ : state) {
    compressor->compress_into_unchecked(v, out);
    benchmark::DoNotOptimize(out.sparse.nnz());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SidcoMultiStageCompress)->Arg(1 << 22)->Arg(1 << 24);

void BM_SidcoMultiStageCompressLegacy(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(legacy_multi_stage_compress(v));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SidcoMultiStageCompressLegacy)->Arg(1 << 22)->Arg(1 << 24);

/// The refinement loop alone (stages 2..M from a fixed stage-1 threshold):
/// legacy pays (M-1) full gradient rescans + allocations, the fused path one
/// rescan plus geometrically shrinking buffer filters.
void BM_SidcoTailRefitLegacy(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  const std::vector<double> ratios =
      sidco::core::SidcoCompressor::plan_stage_ratios(kTargetRatio,
                                                      kFirstStageRatio,
                                                      kStages);
  const double eta1 = std::max(seed_mean_abs(v), 1e-30) *
                      std::log(1.0 / ratios.front());
  for (auto _ : state) {
    double eta = eta1;
    for (std::size_t m = 1; m < ratios.size(); ++m) {
      const std::vector<float> exceedances = seed_abs_exceedances(
          v, static_cast<float>(eta), static_cast<std::size_t>(
              static_cast<double>(v.size()) *
              std::pow(kFirstStageRatio, static_cast<double>(m))));
      if (exceedances.size() < 4) break;
      const double next = seed_tail_threshold(exceedances, eta, ratios[m]);
      if (!(next > eta)) break;
      eta = next;
    }
    benchmark::DoNotOptimize(eta);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SidcoTailRefitLegacy)->Arg(1 << 22)->Arg(1 << 24);

void BM_SidcoTailRefitFused(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  const auto sid = sidco::core::Sid::kExponential;
  const std::vector<double> ratios =
      sidco::core::SidcoCompressor::plan_stage_ratios(kTargetRatio,
                                                      kFirstStageRatio,
                                                      kStages);
  const double eta1 =
      sidco::core::estimate_first_stage(sid, v, ratios.front()).threshold;
  sidco::tensor::Workspace ws;
  std::vector<float> buffers[2];
  for (auto _ : state) {
    double eta = eta1;
    int buffer = 0;
    for (std::size_t m = 1; m < ratios.size(); ++m) {
      if (m == 1) {
        sidco::tensor::abs_exceedances(v, static_cast<float>(eta), ws,
                                       buffers[buffer]);
      } else {
        sidco::tensor::abs_exceedances(buffers[buffer],
                                       static_cast<float>(eta), ws,
                                       buffers[1 - buffer]);
        buffer = 1 - buffer;
      }
      if (buffers[buffer].size() < 4) break;
      const auto est = sidco::core::estimate_tail_stage(sid, buffers[buffer],
                                                        eta, ratios[m]);
      if (!(est.threshold > eta)) break;
      eta = est.threshold;
    }
    benchmark::DoNotOptimize(eta);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SidcoTailRefitFused)->Arg(1 << 22)->Arg(1 << 24);

// ------------------------------------------------- scalar vs SIMD dispatch
// The same kernels with the dispatch forced to the scalar reference.  Paired
// against the entries above by tools/check_bench_regression.py: the in-run
// scalar/simd ratio gates, so runner speed cancels out.

// No sum-log: the with_log transcendental is scalar per element at every
// level and would drown the vectorized abs/sq/max/count reduction this pair
// exists to measure.
void BM_AbsMomentsPlain(benchmark::State& state) {
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  sidco::tensor::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sidco::tensor::abs_moments(v, 0.003F, /*with_log=*/false, &ws));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AbsMomentsPlain)->Arg(1 << 22);

void BM_AbsMomentsPlainScalar(benchmark::State& state) {
  const sidco::bench::ScalarDispatch scalar;
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  sidco::tensor::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sidco::tensor::abs_moments(v, 0.003F, /*with_log=*/false, &ws));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AbsMomentsPlainScalar)->Arg(1 << 22);

void BM_ExtractAtLeastScalar(benchmark::State& state) {
  const sidco::bench::ScalarDispatch scalar;
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  sidco::tensor::Workspace ws;
  sidco::tensor::SparseGradient out;
  for (auto _ : state) {
    sidco::tensor::extract_at_least(v, 0.003F, ws, out);
    benchmark::DoNotOptimize(out.nnz());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExtractAtLeastScalar)->Arg(1 << 22);

void BM_CountAtLeastScalar(benchmark::State& state) {
  const sidco::bench::ScalarDispatch scalar;
  const auto& v = shared_vector(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sidco::tensor::count_at_least(v, 0.003F));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CountAtLeastScalar)->Arg(1 << 22);

// ---------------------------------------------------------- nn layer kernels

/// Normal values with about 40% exact zeros, like post-ReLU activations and
/// their gradients.
std::vector<float> relu_like(std::size_t n, sidco::util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.uniform() < 0.4 ? 0.0F : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return v;
}

/// A bound layer plus one batch of input and output gradient.
template <typename LayerT>
struct LayerBench {
  LayerT layer;
  std::size_t batch;
  std::vector<float> params;
  std::vector<float> grads;
  std::vector<float> in;
  std::vector<float> grad_out;
  std::vector<float> out;
  std::vector<float> grad_in;

  template <typename... Args>
  explicit LayerBench(std::size_t batch_size, Args... args)
      : layer(args...), batch(batch_size) {
    sidco::util::Rng rng(23);
    params.resize(layer.parameter_count());
    grads.assign(layer.parameter_count(), 0.0F);
    layer.bind(params, grads);
    layer.init(rng);
    in = relu_like(batch * layer.in_features(), rng);
    grad_out = relu_like(batch * layer.out_features(), rng);
    out.resize(batch * layer.out_features());
    grad_in.resize(batch * layer.in_features());
  }
};

/// ResNet20's stage-0 convolution: 8 -> 8 channels, 3x3, stride 1, pad 1.
constexpr sidco::nn::ConvShape kResNetStage0{8, 16, 16};

void BM_ConvLayer(benchmark::State& state) {
  LayerBench<sidco::nn::Conv2D> b(static_cast<std::size_t>(state.range(0)),
                                  kResNetStage0, 8, 3, 1, 1);
  for (auto _ : state) {
    b.layer.forward(b.in, b.out, b.batch);
    b.layer.backward(b.in, b.grad_out, b.grad_in, b.batch);
    benchmark::DoNotOptimize(b.grad_in.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConvLayer)->Arg(16);

void BM_ConvLayerLegacy(benchmark::State& state) {
  LayerBench<sidco::nn::Conv2D> b(static_cast<std::size_t>(state.range(0)),
                                  kResNetStage0, 8, 3, 1, 1);
  const std::size_t w = b.params.size() - 8;  // biases follow the weights
  const sidco::nn::legacy::ConvParams p{
      .in = kResNetStage0,
      .out = b.layer.out_shape(),
      .kernel = 3,
      .stride = 1,
      .pad = 1,
      .weight = std::span<const float>(b.params).subspan(0, w),
      .bias = std::span<const float>(b.params).subspan(w),
      .grad_weight = std::span<float>(b.grads).subspan(0, w),
      .grad_bias = std::span<float>(b.grads).subspan(w)};
  for (auto _ : state) {
    sidco::nn::legacy::conv2d_forward(p, b.in, b.out, b.batch);
    sidco::nn::legacy::conv2d_backward(p, b.in, b.grad_out, b.grad_in,
                                       b.batch);
    benchmark::DoNotOptimize(b.grad_in.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ConvLayerLegacy)->Arg(16);

/// VGG19's second fully connected layer: 1024 -> 1024.
constexpr std::size_t kVggFc = 1024;

void BM_DenseLayer(benchmark::State& state) {
  LayerBench<sidco::nn::Dense> b(static_cast<std::size_t>(state.range(0)),
                                 kVggFc, kVggFc);
  for (auto _ : state) {
    b.layer.forward(b.in, b.out, b.batch);
    b.layer.backward(b.in, b.grad_out, b.grad_in, b.batch);
    benchmark::DoNotOptimize(b.grad_in.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DenseLayer)->Arg(8);

void BM_DenseLayerLegacy(benchmark::State& state) {
  LayerBench<sidco::nn::Dense> b(static_cast<std::size_t>(state.range(0)),
                                 kVggFc, kVggFc);
  const std::size_t w = kVggFc * kVggFc;
  const sidco::nn::legacy::DenseParams p{
      .in_features = kVggFc,
      .out_features = kVggFc,
      .weight = std::span<const float>(b.params).subspan(0, w),
      .bias = std::span<const float>(b.params).subspan(w),
      .grad_weight = std::span<float>(b.grads).subspan(0, w),
      .grad_bias = std::span<float>(b.grads).subspan(w)};
  for (auto _ : state) {
    sidco::nn::legacy::dense_forward(p, b.in, b.out, b.batch);
    sidco::nn::legacy::dense_backward(p, b.in, b.grad_out, b.grad_in, b.batch);
    benchmark::DoNotOptimize(b.grad_in.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DenseLayerLegacy)->Arg(8);

// ------------------------------------------------------- replica construction

/// The worker set of the session benchmark's vgg19-sidco-ps workload.
sidco::dist::SessionConfig replica_config(sidco::nn::Benchmark benchmark) {
  sidco::dist::SessionConfig config;
  config.benchmark = benchmark;
  config.scheme = sidco::core::Scheme::kSidcoExponential;
  config.target_ratio = 0.01;
  config.workers = 3;
  return config;
}

void BM_MakeWorkers(benchmark::State& state, sidco::nn::Benchmark model) {
  const sidco::dist::SessionConfig config = replica_config(model);
  for (auto _ : state) {
    auto workers = sidco::dist::detail::make_workers(config);
    benchmark::DoNotOptimize(workers.data());
  }
}
BENCHMARK_CAPTURE(BM_MakeWorkers, vgg19, sidco::nn::Benchmark::kVgg19);

void BM_MakeWorkersSeeded(benchmark::State& state,
                          sidco::nn::Benchmark model) {
  const sidco::dist::SessionConfig config = replica_config(model);
  for (auto _ : state) {
    std::vector<std::unique_ptr<sidco::dist::Worker>> workers;
    for (std::size_t w = 0; w < config.workers; ++w) {
      workers.push_back(sidco::dist::detail::make_worker(config, w));
    }
    benchmark::DoNotOptimize(workers.data());
  }
}
BENCHMARK_CAPTURE(BM_MakeWorkersSeeded, vgg19, sidco::nn::Benchmark::kVgg19);

// ------------------------------------------------------------ thread scaling

void BM_AbsMomentsThreads(benchmark::State& state) {
  const int saved_threads = sidco::util::ThreadPool::instance().threads();
  sidco::util::ThreadPool::instance().set_threads(
      static_cast<int>(state.range(0)));
  const auto& v = shared_vector(std::size_t{1} << 24);
  sidco::tensor::Workspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sidco::tensor::abs_moments(
        v, std::numeric_limits<float>::infinity(), false, &ws));
  }
  sidco::util::ThreadPool::instance().set_threads(saved_threads);
  state.SetItemsProcessed(state.iterations() * (std::int64_t{1} << 24));
}
BENCHMARK(BM_AbsMomentsThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_SidcoMultiStageCompressThreads(benchmark::State& state) {
  const int saved_threads = sidco::util::ThreadPool::instance().threads();
  sidco::util::ThreadPool::instance().set_threads(
      static_cast<int>(state.range(0)));
  const auto& v = shared_vector(std::size_t{1} << 24);
  auto compressor = fixed_stage_sidco(sidco::core::Sid::kExponential);
  sidco::compressors::CompressResult out;
  for (int warm = 0; warm < 3; ++warm) compressor->compress_into(v, out);
  for (auto _ : state) {
    compressor->compress_into_unchecked(v, out);
    benchmark::DoNotOptimize(out.sparse.nnz());
  }
  sidco::util::ThreadPool::instance().set_threads(saved_threads);
  state.SetItemsProcessed(state.iterations() * (std::int64_t{1} << 24));
}
BENCHMARK(BM_SidcoMultiStageCompressThreads)->Arg(1)->Arg(2)->Arg(4);

// --------------------------------------------------------------- end to end

void BM_CompressorEndToEnd(benchmark::State& state) {
  const auto scheme = static_cast<sidco::core::Scheme>(state.range(0));
  const auto& v = shared_vector(std::size_t{1} << 22);
  auto compressor = sidco::core::make_compressor(scheme, 0.001);
  sidco::compressors::Compressor::validate_gradient(v);
  sidco::compressors::CompressResult out;
  for (int warm = 0; warm < 6; ++warm) {
    compressor->compress_into_unchecked(v, out);
  }
  for (auto _ : state) {
    compressor->compress_into_unchecked(v, out);
    benchmark::DoNotOptimize(out.sparse.nnz());
  }
  state.SetLabel(std::string(sidco::core::scheme_name(scheme)));
  state.SetItemsProcessed(state.iterations() * (1 << 22));
}
BENCHMARK(BM_CompressorEndToEnd)
    ->Arg(static_cast<int>(sidco::core::Scheme::kTopK))
    ->Arg(static_cast<int>(sidco::core::Scheme::kDgc))
    ->Arg(static_cast<int>(sidco::core::Scheme::kRedSync))
    ->Arg(static_cast<int>(sidco::core::Scheme::kGaussianKSgd))
    ->Arg(static_cast<int>(sidco::core::Scheme::kSidcoExponential))
    ->Arg(static_cast<int>(sidco::core::Scheme::kSidcoGammaPareto))
    ->Arg(static_cast<int>(sidco::core::Scheme::kSidcoPareto));

}  // namespace
