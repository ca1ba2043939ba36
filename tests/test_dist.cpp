// Distributed simulator: network/device timing formulas, worker mechanics
// (error feedback), session determinism, convergence, and the aggregation
// equivalence between sparse allgather and dense allreduce.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "comm/aggregate.h"
#include "comm/frame.h"
#include "dist/device_model.h"
#include "dist/network_model.h"
#include "dist/session.h"
#include "dist/session_detail.h"
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

std::uint32_t fnv_of(std::span<const std::uint8_t> bytes) {
  return comm::fnv1a32(bytes);
}

std::uint32_t fnv_of(std::span<const float> values) {
  return comm::fnv1a32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(values.data()),
      values.size() * sizeof(float)));
}

/// FNV-1a of one round's push payload, residual and applied parameters.
struct PinnedRound {
  std::uint32_t encoded = 0;
  std::uint32_t memory = 0;
  std::uint32_t params = 0;
  bool operator==(const PinnedRound&) const = default;
};

constexpr std::size_t kPinnedRounds = 4;

struct PinnedCell {
  nn::Benchmark benchmark;
  core::Scheme scheme;
  bool error_feedback;
  std::array<PinnedRound, kPinnedRounds> rounds;
};

/// `rounds` as the pinned table spells them.
std::string pinned_rounds(
    const std::array<PinnedRound, kPinnedRounds>& rounds) {
  std::string text = "{{";
  char hex[48];
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    std::snprintf(hex, sizeof(hex), "%s{0x%08xU, 0x%08xU, 0x%08xU}",
                  r == 0 ? "" : ", ", rounds[r].encoded, rounds[r].memory,
                  rounds[r].params);
    text += hex;
  }
  return text + "}}";
}

// A worker's step is pinned byte for byte.  The differential suites compare
// drivers that all run this same step, and the scenario goldens compare
// losses at a tolerance on ResNet20 with EC on, so neither would see a
// rewrite of the step's own passes (error-feedback add, validation, residual
// keep, encode) or of the optimizer and dense accumulate change a bit.  Each
// cell runs 4 rounds of step, then the decoded payload applied through
// decoded_mean, on the dense path, EC off and both optimizer paths: ResNet20
// (vanilla SGD), VGG19 (Nesterov, gradient read in place) and LSTM-PTB
// (Nesterov with clipping, through the optimizer's scratch).
TEST(Worker, StepAndApplyArePinnedByteForByte) {
  using nn::Benchmark;
  using core::Scheme;
  // Recorded before the step's passes were fused and its copies dropped; an
  // exact rewrite reproduces every value.
  const PinnedCell cells[] = {
      {Benchmark::kResNet20, Scheme::kNone, true,
       {{{0x67b9b5a7U, 0x17af8ee5U, 0x95308ec8U},
         {0x1e9452cdU, 0x17af8ee5U, 0x785d7824U},
         {0x57e5e671U, 0x17af8ee5U, 0xe50fab61U},
         {0xca0905deU, 0x17af8ee5U, 0x4c3286d9U}}}},
      {Benchmark::kResNet20, Scheme::kNone, false,
       {{{0x67b9b5a7U, 0x17af8ee5U, 0x95308ec8U},
         {0x1e9452cdU, 0x17af8ee5U, 0x785d7824U},
         {0x57e5e671U, 0x17af8ee5U, 0xe50fab61U},
         {0xca0905deU, 0x17af8ee5U, 0x4c3286d9U}}}},
      {Benchmark::kResNet20, Scheme::kTopK, true,
       {{{0x622b1081U, 0x5b7db20bU, 0xac9fb869U},
         {0xdf1fa8f3U, 0x1dd7b8ebU, 0x0b0a60d2U},
         {0x053d39a9U, 0x470e604cU, 0x9f3b86d1U},
         {0xc5ba87edU, 0x63d36f8cU, 0x7fb3839cU}}}},
      {Benchmark::kResNet20, Scheme::kTopK, false,
       {{{0x622b1081U, 0x17af8ee5U, 0xac9fb869U},
         {0xbea4a305U, 0x17af8ee5U, 0x3a39a579U},
         {0x2eba125cU, 0x17af8ee5U, 0x4afa7a44U},
         {0xeec70b68U, 0x17af8ee5U, 0x753cfea5U}}}},
      {Benchmark::kResNet20, Scheme::kSidcoExponential, true,
       {{{0x5fedc8c3U, 0x01b13c95U, 0xd5073f23U},
         {0x6495a81fU, 0xcfec08e9U, 0x9fbec54eU},
         {0x730d3b07U, 0xe4af1002U, 0x6277202eU},
         {0xf626233bU, 0xa6e089beU, 0xb42346f8U}}}},
      {Benchmark::kResNet20, Scheme::kSidcoExponential, false,
       {{{0x5fedc8c3U, 0x17af8ee5U, 0xd5073f23U},
         {0xe2f7e777U, 0x17af8ee5U, 0xb17293c6U},
         {0xcb055fe7U, 0x17af8ee5U, 0x0d604295U},
         {0x0786d093U, 0x17af8ee5U, 0x4a06afe2U}}}},
      {Benchmark::kVgg19, Scheme::kNone, true,
       {{{0x6fce849aU, 0x12d06c65U, 0xbefb56d8U},
         {0xba66b5aaU, 0x12d06c65U, 0x5e318fe7U},
         {0xa0ccd2c3U, 0x12d06c65U, 0x166fdda9U},
         {0x02975079U, 0x12d06c65U, 0xabb73ce3U}}}},
      {Benchmark::kVgg19, Scheme::kNone, false,
       {{{0x6fce849aU, 0x12d06c65U, 0xbefb56d8U},
         {0xba66b5aaU, 0x12d06c65U, 0x5e318fe7U},
         {0xa0ccd2c3U, 0x12d06c65U, 0x166fdda9U},
         {0x02975079U, 0x12d06c65U, 0xabb73ce3U}}}},
      {Benchmark::kVgg19, Scheme::kTopK, true,
       {{{0x64fb490eU, 0x56f14e2cU, 0x93a153aeU},
         {0x7e33e27bU, 0xe947a785U, 0xf7fa93b0U},
         {0x42281050U, 0x64c8e10bU, 0x9aaf7b8eU},
         {0x694ce88cU, 0x4cc79f98U, 0xf4f6257eU}}}},
      {Benchmark::kVgg19, Scheme::kTopK, false,
       {{{0x64fb490eU, 0x12d06c65U, 0x93a153aeU},
         {0xca20bccaU, 0x12d06c65U, 0x59022d6cU},
         {0x6846fbb7U, 0x12d06c65U, 0x847d4f08U},
         {0xf001caa0U, 0x12d06c65U, 0xf7b48137U}}}},
      {Benchmark::kVgg19, Scheme::kSidcoExponential, true,
       {{{0xab3ef02bU, 0x66f5b88bU, 0xdae4ec66U},
         {0x9474bf4dU, 0x904d23e2U, 0x3f9be894U},
         {0x5b99d85aU, 0xed7809cfU, 0x78183ae2U},
         {0x390f8b6aU, 0x41638f3cU, 0xb51accf5U}}}},
      {Benchmark::kVgg19, Scheme::kSidcoExponential, false,
       {{{0xab3ef02bU, 0x12d06c65U, 0xdae4ec66U},
         {0x0d51ebd5U, 0x12d06c65U, 0x58b786c9U},
         {0xdcc6e9c7U, 0x12d06c65U, 0xd3405910U},
         {0xb220998aU, 0x12d06c65U, 0x7b31069aU}}}},
      {Benchmark::kLstmPtb, Scheme::kNone, true,
       {{{0xad6f5a96U, 0xc86dc1c5U, 0x625227adU},
         {0xe8fbb1b8U, 0xc86dc1c5U, 0xb68cbeb5U},
         {0xd2196d4bU, 0xc86dc1c5U, 0x02002efaU},
         {0x5e8226d8U, 0xc86dc1c5U, 0x88e849f8U}}}},
      {Benchmark::kLstmPtb, Scheme::kNone, false,
       {{{0xad6f5a96U, 0xc86dc1c5U, 0x625227adU},
         {0xe8fbb1b8U, 0xc86dc1c5U, 0xb68cbeb5U},
         {0xd2196d4bU, 0xc86dc1c5U, 0x02002efaU},
         {0x5e8226d8U, 0xc86dc1c5U, 0x88e849f8U}}}},
      {Benchmark::kLstmPtb, Scheme::kTopK, true,
       {{{0xfe3f1ca5U, 0xf320e9f8U, 0xa21878ecU},
         {0x8b521fbaU, 0xf5d4f486U, 0x5ca41402U},
         {0x242469efU, 0x8a6dcdd9U, 0xae2c1807U},
         {0x80b57924U, 0x7e8b8b6aU, 0x83f53161U}}}},
      {Benchmark::kLstmPtb, Scheme::kTopK, false,
       {{{0xfe3f1ca5U, 0xc86dc1c5U, 0xa21878ecU},
         {0x6dede6adU, 0xc86dc1c5U, 0x770d82b6U},
         {0x7a291662U, 0xc86dc1c5U, 0x75f19d5dU},
         {0x3d2433daU, 0xc86dc1c5U, 0x90edc0cbU}}}},
      {Benchmark::kLstmPtb, Scheme::kSidcoExponential, true,
       {{{0x4ff540b4U, 0x5ce37ee6U, 0xc6afc499U},
         {0x3f4f2fdaU, 0x48791e14U, 0xff9a8b9cU},
         {0xa8f6083fU, 0xd7ed7c60U, 0x84f881c0U},
         {0xc8cc0ed6U, 0x29d438d9U, 0xe2f51b8fU}}}},
      {Benchmark::kLstmPtb, Scheme::kSidcoExponential, false,
       {{{0x4ff540b4U, 0xc86dc1c5U, 0xc6afc499U},
         {0x50cd0052U, 0xc86dc1c5U, 0xbb477be4U},
         {0xf35bafd1U, 0xc86dc1c5U, 0x29c07b82U},
         {0x03972ab2U, 0xc86dc1c5U, 0x2b48da24U}}}},
  };
  for (const PinnedCell& cell : cells) {
    SCOPED_TRACE(std::string(nn::benchmark_spec(cell.benchmark).name) + ", " +
                 std::string(core::scheme_name(cell.scheme)) +
                 (cell.error_feedback ? ", EC on" : ", EC off"));
    const double ratio = cell.scheme == Scheme::kNone ? 1.0 : 0.01;
    dist::Worker worker(cell.benchmark, /*model_seed=*/21, /*stream_seed=*/22,
                        cell.scheme, ratio, cell.error_feedback);
    const std::size_t batch = nn::benchmark_spec(cell.benchmark).batch_size;
    comm::SparseAccumulator accumulator;
    std::array<PinnedRound, kPinnedRounds> got;
    for (PinnedRound& round : got) {
      const dist::WorkerStepResult& step = worker.step(batch);
      const std::span<const std::uint8_t> payloads[] = {step.encoded};
      worker.apply_update(comm::decoded_mean(accumulator, payloads,
                                             worker.gradient_dimension()));
      round = {.encoded = fnv_of(step.encoded),
               .memory = fnv_of(worker.error_memory()),
               .params = fnv_of(worker.parameters())};
    }
    EXPECT_TRUE(got == cell.rounds)
        << "step bytes moved; this build records " << pinned_rounds(got);
  }
}

// One seeded build per session: make_workers draws worker 0's model and
// builds the other replicas from its parameters.  Each copy must train and
// evaluate exactly like a replica seeded on its own, and an eval head built
// from parameters exactly like a seeded one.
dist::SessionConfig replica_session(nn::Benchmark benchmark) {
  dist::SessionConfig config;
  config.benchmark = benchmark;
  config.scheme = core::Scheme::kSidcoExponential;
  config.target_ratio = 0.01;
  config.workers = 3;
  config.seed = 77;
  return config;
}

bool same_bytes(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class ReplicaCopy : public ::testing::TestWithParam<nn::Benchmark> {};

TEST_P(ReplicaCopy, CopiedReplicasTrainLikeSeededOnes) {
  const dist::SessionConfig config = replica_session(GetParam());
  const std::size_t batch = nn::benchmark_spec(config.benchmark).batch_size;
  const auto copied = dist::detail::make_workers(config);
  ASSERT_EQ(copied.size(), config.workers);
  for (std::size_t w = 1; w < config.workers; ++w) {
    SCOPED_TRACE("worker " + std::to_string(w));
    dist::Worker& copy = *copied[w];
    const auto seeded = dist::detail::make_worker(config, w);
    ASSERT_TRUE(same_bytes(copy.parameters(), seeded->parameters()));
    for (int step = 0; step < 2; ++step) {
      const dist::WorkerStepResult a = copy.step(batch);
      const dist::WorkerStepResult b = seeded->step(batch);
      EXPECT_EQ(a.train_loss, b.train_loss);
      EXPECT_EQ(a.encoded, b.encoded);
      const std::vector<float> update = a.sparse.to_dense();
      copy.apply_update(update);
      seeded->apply_update(update);
      EXPECT_TRUE(same_bytes(copy.parameters(), seeded->parameters()));
    }
    const nn::LossResult ea = copy.evaluate(batch, 2);
    const nn::LossResult eb = seeded->evaluate(batch, 2);
    EXPECT_EQ(ea.loss, eb.loss);
    EXPECT_EQ(ea.accuracy, eb.accuracy);
  }
}

TEST_P(ReplicaCopy, EvalHeadFromParametersEvaluatesLikeASeededHead) {
  const dist::SessionConfig config = replica_session(GetParam());
  const std::size_t batch = nn::benchmark_spec(config.benchmark).batch_size;
  const auto workers = dist::detail::make_workers(config);
  dist::Worker& trainer = *workers.front();
  const std::vector<float> initial(trainer.parameters().begin(),
                                   trainer.parameters().end());
  trainer.apply_update(trainer.step(batch).sparse.to_dense());

  // Both heads take the trained parameters, as a PS eval head does before
  // every eval; one was built from the initial parameters, one seeded.
  const std::uint64_t stream = dist::detail::eval_head_stream_seed(config);
  dist::Worker seeded(config.benchmark, config.seed, stream,
                      core::Scheme::kNone, 1.0, false);
  dist::Worker copied(config.benchmark, config.seed, stream,
                      core::Scheme::kNone, 1.0, false, initial);
  ASSERT_TRUE(same_bytes(copied.parameters(), seeded.parameters()));
  seeded.overwrite_parameters(trainer.parameters());
  copied.overwrite_parameters(trainer.parameters());
  const nn::LossResult es = seeded.evaluate(batch, 2);
  const nn::LossResult ec = copied.evaluate(batch, 2);
  EXPECT_EQ(ec.loss, es.loss);
  EXPECT_EQ(ec.accuracy, es.accuracy);
}

INSTANTIATE_TEST_SUITE_P(Models, ReplicaCopy,
                         ::testing::Values(nn::Benchmark::kResNet20,
                                           nn::Benchmark::kVgg19,
                                           nn::Benchmark::kLstmPtb));

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
