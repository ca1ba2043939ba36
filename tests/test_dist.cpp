// Distributed simulator: network/device timing formulas, worker mechanics
// (error feedback), session determinism, convergence, and the aggregation
// equivalence between sparse allgather and dense allreduce.
#include <gtest/gtest.h>

#include <cmath>

#include "dist/device_model.h"
#include "dist/network_model.h"
#include "dist/session.h"
#include "dist/worker.h"
#include "util/check.h"

namespace sidco {
namespace {

TEST(NetworkModel, RingAllreduceFormula) {
  dist::NetworkConfig config;
  config.workers = 8;
  config.bandwidth_gbps = 10.0;
  config.latency_us = 25.0;
  const dist::NetworkModel net(config);
  // 100 MB dense: 2 * 7/8 * 1e8 bytes / 1.25e9 B/s + 14 * 25us.
  const double expected = 2.0 * 7.0 / 8.0 * 1e8 / 1.25e9 + 14.0 * 25e-6;
  EXPECT_NEAR(net.dense_allreduce_seconds(100000000), expected, 1e-9);
}

TEST(NetworkModel, AllgatherScalesWithWorkers) {
  dist::NetworkConfig config;
  config.workers = 4;
  const dist::NetworkModel net4(config);
  config.workers = 8;
  const dist::NetworkModel net8(config);
  EXPECT_LT(net4.sparse_allgather_seconds(1000000),
            net8.sparse_allgather_seconds(1000000));
}

TEST(NetworkModel, SingleWorkerCommunicatesNothing) {
  dist::NetworkConfig config;
  config.workers = 1;
  const dist::NetworkModel net(config);
  EXPECT_DOUBLE_EQ(net.dense_allreduce_seconds(1000000), 0.0);
  EXPECT_DOUBLE_EQ(net.sparse_allgather_seconds(1000000), 0.0);
}

TEST(NetworkModel, WireSizes) {
  EXPECT_EQ(dist::NetworkModel::dense_bytes(1000), 4000U);
  EXPECT_EQ(dist::NetworkModel::sparse_bytes(1000), 8000U);
}

TEST(NetworkModel, ParameterServerSerializesOnServerLink) {
  dist::NetworkConfig config;
  config.workers = 8;
  config.bandwidth_gbps = 10.0;
  config.latency_us = 25.0;
  const dist::NetworkModel net(config);
  // push + pull: 2 * 8 * bytes / BW + 2 hops.
  const double expected = 2.0 * 8.0 * 1e6 / 1.25e9 + 2.0 * 25e-6;
  EXPECT_NEAR(net.parameter_server_seconds(1000000), expected, 1e-12);
  // For the same volume, the PS central link is slower than ring allreduce
  // once N is large enough — the reason collectives win (Appendix A).
  EXPECT_GT(net.parameter_server_seconds(1000000),
            net.dense_allreduce_seconds(1000000));
  config.workers = 1;
  const dist::NetworkModel solo(config);
  EXPECT_DOUBLE_EQ(solo.parameter_server_seconds(1000000), 0.0);
}

TEST(DeviceModel, GpuTopkSlowerThanThresholdSchemes) {
  const dist::DeviceModel gpu(dist::Device::kGpuModel);
  const std::size_t d = 15000000;
  const double topk = gpu.gpu_seconds(core::Scheme::kTopK, d, 0.001);
  const double dgc = gpu.gpu_seconds(core::Scheme::kDgc, d, 0.001);
  const double sidco =
      gpu.gpu_seconds(core::Scheme::kSidcoExponential, d, 0.001, 3);
  EXPECT_GT(topk, dgc);   // sampling beats full selection on GPU
  EXPECT_GT(topk, sidco); // threshold estimation beats both
  EXPECT_GT(dgc, sidco);
}

TEST(DeviceModel, GpuCostGrowsWithDimension) {
  const dist::DeviceModel gpu(dist::Device::kGpuModel);
  for (core::Scheme scheme :
       {core::Scheme::kTopK, core::Scheme::kDgc,
        core::Scheme::kSidcoExponential}) {
    EXPECT_LT(gpu.gpu_seconds(scheme, 260000, 0.01),
              gpu.gpu_seconds(scheme, 260000000, 0.01));
  }
}

TEST(DeviceModel, CpuMeasuredScalesLinearly) {
  const dist::DeviceModel cpu(dist::Device::kCpuMeasured);
  const double t = cpu.compression_seconds(core::Scheme::kTopK,
                                           /*model_dim=*/20000000, 0.01,
                                           /*measured=*/0.002,
                                           /*measured_dim=*/2000000);
  EXPECT_NEAR(t, 0.02, 1e-12);
}

TEST(Worker, ErrorFeedbackAccumulatesResidual) {
  dist::Worker worker(nn::Benchmark::kResNet20, /*model_seed=*/5,
                      /*stream_seed=*/6, core::Scheme::kTopK,
                      /*ratio=*/0.01, /*error_feedback=*/true);
  const dist::WorkerStepResult r1 = worker.step(4);
  EXPECT_GT(r1.selected, 0U);
  // Residual must be nonzero off the selected support and zero on it.
  const std::span<const float> memory = worker.error_memory();
  double norm = 0.0;
  for (float m : memory) norm += static_cast<double>(m) * m;
  EXPECT_GT(norm, 0.0);
  for (std::size_t j = 0; j < r1.sparse.nnz(); ++j) {
    EXPECT_EQ(memory[r1.sparse.indices[j]], 0.0F);
  }
}

TEST(Worker, NoErrorFeedbackKeepsMemoryZero) {
  dist::Worker worker(nn::Benchmark::kResNet20, 5, 6, core::Scheme::kTopK,
                      0.01, /*error_feedback=*/false);
  (void)worker.step(4);
  for (float m : worker.error_memory()) EXPECT_EQ(m, 0.0F);
}

dist::SessionConfig small_session(core::Scheme scheme, double ratio) {
  dist::SessionConfig config;
  config.benchmark = nn::Benchmark::kResNet20;
  config.scheme = scheme;
  config.target_ratio = ratio;
  config.workers = 4;
  config.iterations = 30;
  config.eval_every = 15;
  config.eval_batches = 2;
  config.seed = 99;
  return config;
}

TEST(Session, RunsAndRecordsEverything) {
  const dist::SessionResult r = dist::run_session(small_session(
      core::Scheme::kSidcoExponential, 0.01));
  ASSERT_EQ(r.iterations.size(), 30U);
  ASSERT_GE(r.evals.size(), 2U);
  EXPECT_GT(r.gradient_dimension, 0U);
  EXPECT_GT(r.total_modeled_seconds, 0.0);
  for (const auto& it : r.iterations) {
    EXPECT_TRUE(std::isfinite(it.train_loss));
    EXPECT_GT(it.achieved_ratio, 0.0);
    EXPECT_GT(it.wall_seconds(), 0.0);
  }
}

TEST(Session, DeterministicAcrossRepeatedRuns) {
  dist::SessionConfig config = small_session(core::Scheme::kTopK, 0.01);
  config.iterations = 10;
  const dist::SessionResult a = dist::run_session(config);
  const dist::SessionResult b = dist::run_session(config);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.iterations[i].train_loss, b.iterations[i].train_loss);
    EXPECT_DOUBLE_EQ(a.iterations[i].achieved_ratio,
                     b.iterations[i].achieved_ratio);
  }
}

TEST(Session, TrainingReducesLoss) {
  dist::SessionConfig config = small_session(core::Scheme::kTopK, 0.1);
  config.iterations = 80;
  const dist::SessionResult r = dist::run_session(config);
  const double first = r.iterations.front().train_loss;
  const double last = r.iterations.back().train_loss;
  EXPECT_LT(last, first * 0.9);
}

TEST(Session, NoCompressionUsesDenseAllreduceTiming) {
  dist::SessionConfig config = small_session(core::Scheme::kNone, 1.0);
  config.iterations = 5;
  const dist::SessionResult r = dist::run_session(config);
  for (const auto& it : r.iterations) {
    EXPECT_DOUBLE_EQ(it.compression_seconds, 0.0);
    EXPECT_NEAR(it.achieved_ratio, 1.0, 1e-12);
  }
}

TEST(Session, CompressionShrinksCommunicationTime) {
  dist::SessionConfig none = small_session(core::Scheme::kNone, 1.0);
  none.iterations = 5;
  dist::SessionConfig sidco =
      small_session(core::Scheme::kSidcoExponential, 0.001);
  sidco.iterations = 40;  // leave room for Adapt_Stages to settle
  const dist::SessionResult rn = dist::run_session(none);
  const dist::SessionResult rs = dist::run_session(sidco);
  double tail_comm = 0.0;
  for (std::size_t i = 30; i < 40; ++i) {
    tail_comm += rs.iterations[i].communication_seconds;
  }
  tail_comm /= 10.0;
  EXPECT_LT(tail_comm, 0.2 * rn.iterations.back().communication_seconds);
}

TEST(Session, PaperScaleTimingUsesTableOneDimensions) {
  dist::SessionConfig config = small_session(core::Scheme::kNone, 1.0);
  config.iterations = 3;
  config.paper_scale_timing = true;
  const dist::SessionResult paper = dist::run_session(config);
  config.paper_scale_timing = false;
  const dist::SessionResult proxy = dist::run_session(config);
  // Paper-scale ResNet20 has ~270k params vs the ~60k proxy: more comm time.
  EXPECT_GT(paper.iterations[0].communication_seconds,
            proxy.iterations[0].communication_seconds);
}

TEST(Session, CommOverheadFractionMatchesSpec) {
  // For the uncompressed run, comm / (comm + compute) must equal Table 1's
  // overhead fraction by construction.
  dist::SessionConfig config = small_session(core::Scheme::kNone, 1.0);
  config.benchmark = nn::Benchmark::kVgg16;
  config.workers = 8;
  config.iterations = 2;
  const dist::SessionResult r = dist::run_session(config);
  const auto& it = r.iterations[0];
  const double overhead =
      it.communication_seconds / (it.communication_seconds + it.compute_seconds);
  EXPECT_NEAR(overhead, nn::benchmark_spec(nn::Benchmark::kVgg16).comm_overhead,
              1e-9);
}

TEST(Session, SparseAggregationMatchesDenseForNoCompression) {
  // With the identity compressor, the sparse-allgather aggregation path must
  // reproduce exact dense averaging: run two workers manually.
  dist::Worker w0(nn::Benchmark::kResNet20, 7, 100, core::Scheme::kNone, 1.0,
                  false);
  dist::Worker w1(nn::Benchmark::kResNet20, 7, 200, core::Scheme::kNone, 1.0,
                  false);
  const dist::WorkerStepResult r0 = w0.step(2);
  const dist::WorkerStepResult r1 = w1.step(2);
  const std::vector<tensor::SparseGradient> parts = {r0.sparse, r1.sparse};
  const std::vector<float> mean =
      tensor::aggregate_mean(parts, w0.gradient_dimension(), 2.0);
  const std::vector<float> d0 = r0.sparse.to_dense();
  const std::vector<float> d1 = r1.sparse.to_dense();
  for (std::size_t i = 0; i < mean.size(); ++i) {
    EXPECT_NEAR(mean[i], (d0[i] + d1[i]) / 2.0F, 1e-6);
  }
}

TEST(QualityMetric, DirectionsPerBenchmark) {
  const dist::QualityMetric acc =
      dist::benchmark_quality(nn::Benchmark::kVgg16, 1.0, 0.8);
  EXPECT_TRUE(acc.higher_is_better);
  EXPECT_DOUBLE_EQ(acc.value, 0.8);
  const dist::QualityMetric ppl =
      dist::benchmark_quality(nn::Benchmark::kLstmPtb, std::log(20.0), 0.3);
  EXPECT_FALSE(ppl.higher_is_better);
  EXPECT_NEAR(ppl.value, 20.0, 1e-6);
  const dist::QualityMetric cer =
      dist::benchmark_quality(nn::Benchmark::kLstmAn4, 1.0, 0.75);
  EXPECT_FALSE(cer.higher_is_better);
  EXPECT_NEAR(cer.value, 0.25, 1e-12);
}

TEST(Session, RejectsInvalidConfig) {
  dist::SessionConfig config = small_session(core::Scheme::kTopK, 0.01);
  config.workers = 0;
  EXPECT_THROW(dist::run_session(config), util::CheckError);
  config.workers = 2;
  config.iterations = 0;
  EXPECT_THROW(dist::run_session(config), util::CheckError);
}

}  // namespace
}  // namespace sidco
