// Steady-state allocation contract: once a compressor's output object and
// internal scratch (tensor::Workspace, sample/exceedance buffers) have
// reached their high-water capacity, repeated compress_into() calls must
// perform ZERO heap allocations.  The same holds for a model's forward +
// backward once one step has grown its activation buffers and the per-thread
// kernel scratch, and a whole warm collective round (every replica's step,
// the decoded mean and the apply) allocates nothing gradient-sized.
// Verified two ways:
//   1. a counting global operator new/delete (this TU overrides the global
//      allocation functions, so every heap allocation in the process is
//      observed; allocations of at least a threshold are counted apart), and
//   2. buffer-pointer stability of the reused output across calls.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "compressors/compressor.h"
#include "core/factory.h"
#include "core/sidco_compressor.h"
#include "dist/session.h"
#include "dist/session_detail.h"
#include "dist/worker.h"
#include "nn/model.h"
#include "nn/zoo.h"
#include "stats/distributions.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {
std::atomic<std::size_t> g_allocations{0};
/// Allocations of at least g_large_bytes (none while it is SIZE_MAX).
std::atomic<std::size_t> g_large_allocations{0};
std::atomic<std::size_t> g_large_bytes{SIZE_MAX};

void count_allocation(std::size_t size) {
  ++g_allocations;
  if (size >= g_large_bytes.load()) ++g_large_allocations;
}
}  // namespace

// The replacement operator new allocates with std::malloc, so releasing with
// std::free in the replacement deletes below is well matched; GCC cannot see
// the pairing across the custom definitions.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sidco {
namespace {

std::vector<float> laplace_gradient(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const stats::Laplace dist(0.001);
  std::vector<float> g(n);
  for (float& x : g) x = static_cast<float>(dist.sample(rng));
  return g;
}

/// Multi-block so the parallel two-pass selection kernels are exercised.
constexpr std::size_t kDim = 200000;
// The adaptive stage controller re-plans every 5 iterations and tops out at
// 8 stages, so 60 calls (12 adaptations) guarantee every stage-dependent
// buffer has seen its high-water mark before measurement starts.
constexpr int kWarmupCalls = 60;
constexpr int kMeasuredCalls = 8;

std::size_t allocations_during_repeated_calls(compressors::Compressor& c) {
  const std::vector<float> g = laplace_gradient(kDim, 42);
  compressors::CompressResult out;
  // Warm-up: grow every buffer to its high-water mark (SIDCo's adaptive
  // controller re-plans stages every 5 iterations, so run well past that).
  for (int i = 0; i < kWarmupCalls; ++i) c.compress_into(g, out);
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < kMeasuredCalls; ++i) c.compress_into(g, out);
  return g_allocations.load() - before;
}

class SteadyStateAlloc : public ::testing::TestWithParam<core::Scheme> {};

TEST_P(SteadyStateAlloc, RepeatedCompressIntoAllocatesNothing) {
  auto compressor = core::make_compressor(GetParam(), 0.01, 7);
  EXPECT_EQ(allocations_during_repeated_calls(*compressor), 0U)
      << "scheme " << core::scheme_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    HotSchemes, SteadyStateAlloc,
    ::testing::Values(core::Scheme::kTopK, core::Scheme::kDgc,
                      core::Scheme::kRedSync, core::Scheme::kGaussianKSgd,
                      core::Scheme::kRandomK, core::Scheme::kSidcoExponential,
                      core::Scheme::kSidcoGammaPareto,
                      core::Scheme::kSidcoPareto));

TEST(SteadyStateAlloc, MultiStageSidcoWithFixedStagesAllocatesNothing) {
  // Freeze the controller at 4 stages so the full multi-stage filter chain
  // (stage-2 extraction + stage-3/4 buffer filtering) runs every call.
  core::SidcoConfig config;
  config.sid = core::Sid::kExponential;
  config.target_ratio = 0.001;
  config.controller.initial_stages = 4;
  config.controller.period = 1U << 30;  // never adapt
  core::SidcoCompressor compressor(config);
  EXPECT_EQ(allocations_during_repeated_calls(compressor), 0U);
}

TEST(SteadyStateAlloc, MultiThreadedKernelsAllocateNothing) {
  util::ThreadPool::instance().set_threads(4);
  core::SidcoConfig config;
  config.target_ratio = 0.001;
  config.controller.initial_stages = 4;
  config.controller.period = 1U << 30;
  core::SidcoCompressor compressor(config);
  const std::size_t allocs = allocations_during_repeated_calls(compressor);
  util::ThreadPool::instance().set_threads(1);
  EXPECT_EQ(allocs, 0U);
}

class ZooModelAlloc : public ::testing::TestWithParam<nn::Benchmark> {};

// After one warm-up step, a training step's forward + backward allocates
// nothing: layers keep their buffers as members and the Conv2D/Dense kernels
// share one per-thread scratch.
TEST_P(ZooModelAlloc, WarmForwardBackwardAllocatesNothing) {
  nn::Model model = nn::make_model(GetParam(), 7);
  const std::size_t batch = nn::benchmark_spec(GetParam()).batch_size;
  const std::vector<float> input =
      laplace_gradient(batch * model.in_features(), 11);
  const std::vector<float> grad_logits =
      laplace_gradient(batch * model.out_features(), 12);
  auto step = [&] {
    model.zero_gradients();
    model.forward(input, batch);
    model.backward(grad_logits);
  };
  step();
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 3; ++i) step();
  EXPECT_EQ(g_allocations.load() - before, 0U)
      << nn::benchmark_spec(GetParam()).name;
}

INSTANTIATE_TEST_SUITE_P(
    ConvModels, ZooModelAlloc,
    ::testing::Values(nn::Benchmark::kResNet20, nn::Benchmark::kVgg19),
    [](const ::testing::TestParamInfo<nn::Benchmark>& info) {
      return std::string(nn::benchmark_spec(info.param).name);
    });

class CollectiveRoundAlloc : public ::testing::TestWithParam<core::Scheme> {};

// After two warm-up rounds, a collective round over 3 VGG19 replicas makes no
// allocation of a gradient's size (4 bytes per parameter) or more: each step
// hands out its worker's own result, the mean reads the payloads in place
// and the optimizer reads the mean in place.  The batch Dataset::sample
// returns is far smaller and stays out of this contract.
TEST_P(CollectiveRoundAlloc, WarmRoundAllocatesNothingGradientSized) {
  dist::SessionConfig config;
  config.benchmark = nn::Benchmark::kVgg19;
  config.scheme = GetParam();
  config.target_ratio = GetParam() == core::Scheme::kNone ? 1.0 : 0.01;
  config.workers = 3;
  config.iterations = 100;  // no eval is due in the rounds run here
  const auto workers = dist::detail::make_workers(config);
  std::vector<dist::Worker*> replicas;
  for (const auto& worker : workers) replicas.push_back(worker.get());
  const std::size_t dim = workers.front()->gradient_dimension();
  const dist::detail::TimingContext timing =
      dist::detail::make_timing(config, dim);
  dist::SessionResult result;
  result.config = config;
  dist::detail::CollectiveRound round;

  std::size_t iter = 0;
  for (; iter < 2; ++iter) round.run(config, timing, replicas, iter, result);
  g_large_bytes = 4 * dim;
  const std::size_t before = g_large_allocations.load();
  for (; iter < 4; ++iter) round.run(config, timing, replicas, iter, result);
  const std::size_t large = g_large_allocations.load() - before;
  g_large_bytes = SIZE_MAX;
  EXPECT_EQ(large, 0U) << core::scheme_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    DenseAndSidco, CollectiveRoundAlloc,
    ::testing::Values(core::Scheme::kNone, core::Scheme::kSidcoExponential),
    [](const ::testing::TestParamInfo<core::Scheme>& info) {
      return info.param == core::Scheme::kNone ? std::string("NoComp")
                                               : std::string("SidcoE");
    });

TEST(SteadyStateAlloc, OutputBuffersAreReusedAcrossCalls) {
  auto compressor = core::make_compressor(core::Scheme::kSidcoExponential,
                                          0.01, 3);
  const std::vector<float> g = laplace_gradient(kDim, 5);
  compressors::CompressResult out;
  for (int i = 0; i < kWarmupCalls; ++i) compressor->compress_into(g, out);
  const std::uint32_t* indices_data = out.sparse.indices.data();
  const float* values_data = out.sparse.values.data();
  const std::size_t indices_cap = out.sparse.indices.capacity();
  const std::size_t values_cap = out.sparse.values.capacity();
  for (int i = 0; i < kMeasuredCalls; ++i) compressor->compress_into(g, out);
  EXPECT_EQ(out.sparse.indices.data(), indices_data);
  EXPECT_EQ(out.sparse.values.data(), values_data);
  EXPECT_EQ(out.sparse.indices.capacity(), indices_cap);
  EXPECT_EQ(out.sparse.values.capacity(), values_cap);
}

}  // namespace
}  // namespace sidco
