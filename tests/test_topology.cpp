// Topology protocol bodies (runtime/topology.h) against hostile parameter
// snapshots, and the parameter server's part store (dist::detail::PsServer)
// driven by hand.  A kGrant snapshot (parameter server) or a kParams body
// (allgather final parameters) must be a comm dense fp32 message of exactly
// the model's dimension; anything else ends the receiving body with one
// named CheckError.  The bodies run on the test thread over an
// InMemoryTransport, and the peer's side of the exchange is scripted.  A
// push the protocol cannot produce (duplicate, applied round, past the last
// round, from an evicted worker, beyond the staleness bound) is a named
// CheckError from PsServer, and staged parts land in the staleness bin of
// the rounds their worker missed.  Runs under ASan/UBSan in CI (labels
// `unit;runtime`).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/codec.h"
#include "comm/frame.h"
#include "dist/session.h"
#include "dist/session_detail.h"
#include "dist/worker.h"
#include "runtime/topology.h"
#include "runtime/transport.h"
#include "tensor/sparse.h"
#include "util/check.h"

namespace sidco {
namespace {

namespace topo = runtime::topo;
using Body = std::shared_ptr<const std::vector<std::uint8_t>>;

constexpr const char* kSnapshotError =
    "parameter snapshot is not a dense fp32 message";

dist::SessionConfig one_worker(dist::Topology topology) {
  dist::SessionConfig config;
  config.benchmark = nn::Benchmark::kResNet20;
  config.scheme = core::Scheme::kSidcoExponential;
  config.target_ratio = 0.01;
  config.workers = 1;
  config.eval_batches = 1;
  config.topology = topology;
  config.seed = 5;
  return config;
}

Body freeze(std::vector<std::uint8_t> bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

Body dense_message(std::span<const float> values, comm::ValueMode mode) {
  std::vector<std::uint8_t> bytes;
  comm::encode_dense(values, mode, bytes);
  return freeze(std::move(bytes));
}

/// Snapshot bodies a receiver must reject: the raw little-endian fp32 image
/// snapshots used to travel as, a dense message one value short, and an fp16
/// dense message of the right dimension.
std::vector<std::pair<std::string, Body>> hostile_snapshots(
    std::span<const float> params) {
  std::vector<std::uint8_t> raw;
  for (float v : params) comm::put_f32_le(raw, v);
  return {
      {"raw fp32 bytes", freeze(std::move(raw))},
      {"dense fp32, one value short",
       dense_message(params.first(params.size() - 1), comm::ValueMode::kFp32)},
      {"dense fp16", dense_message(params, comm::ValueMode::kFp16)},
  };
}

void expect_snapshot_error(const std::function<void()>& body) {
  try {
    body();
    ADD_FAILURE() << "a hostile snapshot was accepted";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(kSnapshotError), std::string::npos)
        << e.what();
  }
}

/// Runs a two-round parameter-server worker whose round-1 admission is
/// `grant`, queued before the worker starts; no server body runs.
void run_ps_worker_with_grant(Body grant, dist::Worker& worker) {
  dist::SessionConfig config = one_worker(dist::Topology::kParameterServer);
  config.iterations = 2;
  runtime::InMemoryTransport transport(2, 8);
  ASSERT_TRUE(transport.endpoint(1).send(0, {.kind = topo::kGrantKind,
                                             .from = 1,
                                             .seq = 1,
                                             .payload = std::move(grant)}));
  topo::run_ps_worker(config, 0, worker, transport.endpoint(0));
}

TEST(PsWorkerSnapshot, DenseFp32SnapshotOverwritesTheReplica) {
  const dist::SessionConfig config =
      one_worker(dist::Topology::kParameterServer);
  const auto worker = dist::detail::make_worker(config, 0);
  std::vector<float> fresh(worker->parameters().begin(),
                           worker->parameters().end());
  for (float& v : fresh) v = v * 0.5F + 0.25F;
  run_ps_worker_with_grant(dense_message(fresh, comm::ValueMode::kFp32),
                           *worker);
  ASSERT_EQ(worker->parameters().size(), fresh.size());
  EXPECT_EQ(std::memcmp(worker->parameters().data(), fresh.data(),
                        fresh.size() * sizeof(float)),
            0);
}

TEST(PsWorkerSnapshot, HostileGrantSnapshotsAreANamedError) {
  const dist::SessionConfig config =
      one_worker(dist::Topology::kParameterServer);
  const auto seeded = dist::detail::make_worker(config, 0);
  for (auto& [name, body] : hostile_snapshots(seeded->parameters())) {
    SCOPED_TRACE(name);
    const auto worker = dist::detail::make_worker(config, 0);
    expect_snapshot_error([&] { run_ps_worker_with_grant(body, *worker); });
  }
}

/// Forwards to `inner`; a non-null `params_body` replaces the body of every
/// kParams message sent through it.
class ParamsBodySwap final : public runtime::Endpoint {
 public:
  ParamsBodySwap(runtime::Endpoint& inner, Body params_body)
      : inner_(inner), params_body_(std::move(params_body)) {}

  bool send(std::size_t to, runtime::TransportMessage message) override {
    if (message.kind == topo::kParamsKind && params_body_) {
      message.payload = params_body_;
    }
    return inner_.send(to, std::move(message));
  }

  std::optional<runtime::TransportMessage> recv_for(
      std::chrono::milliseconds timeout, bool& timed_out) override {
    return inner_.recv_for(timeout, timed_out);
  }

 private:
  runtime::Endpoint& inner_;
  Body params_body_;
};

/// Runs a one-worker, one-iteration allgather session on the test thread:
/// the worker body first (its report, kParams and kDone queue in the
/// coordinator's inbox), then the coordinator body.  Returns the worker's
/// final parameters.
std::vector<float> run_collective(Body params_body,
                                  dist::SessionResult& result) {
  dist::SessionConfig config = one_worker(dist::Topology::kAllreduce);
  config.iterations = 1;
  const auto worker = dist::detail::make_worker(config, 0);
  runtime::InMemoryTransport transport(2, 8);
  ParamsBodySwap endpoint(transport.endpoint(0), std::move(params_body));
  topo::run_collective_worker(config, 0, *worker, endpoint);
  std::vector<topo::MeasuredSeconds> measured;
  topo::run_collective_coordinator(config, worker->gradient_dimension(),
                                   transport.endpoint(1), result, measured);
  return {worker->parameters().begin(), worker->parameters().end()};
}

TEST(CoordinatorParams, DenseFp32ParamsBecomeTheFinalParameters) {
  dist::SessionResult result;
  const std::vector<float> params = run_collective(nullptr, result);
  ASSERT_EQ(result.final_parameters.size(), params.size());
  EXPECT_EQ(std::memcmp(result.final_parameters.data(), params.data(),
                        params.size() * sizeof(float)),
            0);
}

TEST(CoordinatorParams, HostileParamsBodiesAreANamedError) {
  const dist::SessionConfig config = one_worker(dist::Topology::kAllreduce);
  const auto seeded = dist::detail::make_worker(config, 0);
  for (auto& [name, body] : hostile_snapshots(seeded->parameters())) {
    SCOPED_TRACE(name);
    dist::SessionResult result;
    expect_snapshot_error([&] { (void)run_collective(body, result); });
  }
}

// ---------------------------------------------------------------------------
// The parameter server's part store, driven by hand.
// ---------------------------------------------------------------------------

/// A 4-round parameter-server session of `workers` ResNet20 workers.
dist::SessionConfig ps_config(std::size_t workers, std::size_t bound) {
  dist::SessionConfig config = one_worker(dist::Topology::kParameterServer);
  config.workers = workers;
  config.iterations = 4;
  config.staleness_bound = bound;
  return config;
}

std::vector<float> seeded_parameters(const dist::SessionConfig& config) {
  const auto worker = dist::detail::make_worker(config, 0);
  return {worker->parameters().begin(), worker->parameters().end()};
}

/// A PsServer and the session state it writes to.
struct ServerUnderTest {
  explicit ServerUnderTest(const dist::SessionConfig& c)
      : config(c),
        initial(seeded_parameters(c)),
        timing(dist::detail::make_timing(c, initial.size())),
        server(config, timing, initial, result) {}

  /// Stages worker w's part of round r: one small coordinate, encoded as
  /// the worker would push it.
  void stage(std::size_t w, std::size_t r) {
    const tensor::SparseGradient g{.indices = {static_cast<std::uint32_t>(w)},
                                   .values = {1e-3F},
                                   .dense_dim = initial.size()};
    std::vector<std::uint8_t> bytes;
    comm::encode_sparse(g, comm::ValueMode::kFp32, bytes);
    const dist::detail::StepScalars step{.nnz = 1, .wire_bytes = bytes.size()};
    server.stage(w, r, step, freeze(std::move(bytes)));
  }

  dist::SessionConfig config;
  std::vector<float> initial;
  dist::detail::TimingContext timing;
  dist::SessionResult result;
  dist::detail::PsServer server;
};

void expect_push_error(const std::function<void()>& push,
                       const std::string& why) {
  try {
    push();
    ADD_FAILURE() << "an out-of-protocol push was staged (" << why << ")";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("parameter server: out-of-protocol push"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
}

TEST(PsServerParts, OutOfProtocolPushesAreNamedErrors) {
  ServerUnderTest s(ps_config(2, 1));
  s.stage(0, 0);
  expect_push_error([&] { s.stage(0, 0); }, "duplicate");
  s.stage(1, 0);
  ASSERT_TRUE(s.server.ready());
  s.server.apply_next(s.result);
  expect_push_error([&] { s.stage(0, 0); }, "round already applied");
  expect_push_error([&] { s.stage(0, 4); }, "past the last round");
  // Worker 0 last pulled version 0: round 2 would miss 2 > 1 rounds.
  expect_push_error([&] { s.stage(0, 2); }, "beyond the staleness bound");
  ASSERT_TRUE(s.server.evict(1, s.result));
  expect_push_error([&] { s.stage(1, 1); }, "worker was evicted");
  // None of them was staged: round 1 still waits for worker 0.
  EXPECT_FALSE(s.server.ready());
}

TEST(PsServerParts, StalenessIsTheRoundsMissedSinceTheLastPull) {
  // Bound 2, two workers: worker 0 runs ahead on the version it pulled
  // after round 0, worker 1 pulls before each of its rounds.
  ServerUnderTest s(ps_config(2, 2));
  EXPECT_TRUE(s.server.admits(2));
  EXPECT_FALSE(s.server.admits(3));
  EXPECT_FALSE(s.server.pull(0, s.result).has_value());  // nothing applied
  s.stage(0, 0);
  s.stage(1, 0);
  s.server.apply_next(s.result);

  const std::optional<std::size_t> pulled = s.server.pull(0, s.result);
  ASSERT_TRUE(pulled.has_value());
  EXPECT_GT(*pulled, 0U);  // round 0's encoded mean
  s.stage(0, 1);           // staleness 0
  for (std::size_t r : {2, 3}) {
    ASSERT_TRUE(s.server.admits(r));
    EXPECT_FALSE(s.server.pull(0, s.result).has_value());  // still current
    s.stage(0, r);  // staleness r - 1
  }
  for (std::size_t r = 1; r < 4; ++r) {
    EXPECT_FALSE(s.server.ready());
    ASSERT_TRUE(s.server.pull(1, s.result).has_value());
    s.stage(1, r);  // staleness 0
    ASSERT_TRUE(s.server.ready());
    s.server.apply_next(s.result);
  }
  EXPECT_EQ(s.server.version(), 4U);
  EXPECT_EQ(s.result.staleness_histogram,
            (std::vector<std::size_t>{6, 1, 1}));
}

TEST(PsServerParts, EvictionCompletesRoundsAtTheSurvivorCount) {
  ServerUnderTest s(ps_config(3, 1));
  s.stage(0, 0);
  s.stage(1, 0);
  s.stage(2, 0);
  s.server.apply_next(s.result);
  ASSERT_TRUE(s.server.pull(1, s.result).has_value());
  s.stage(1, 1);
  s.stage(2, 1);
  EXPECT_FALSE(s.server.ready());  // waits for worker 0
  ASSERT_TRUE(s.server.evict(1, s.result));
  EXPECT_FALSE(s.server.evict(1, s.result));  // once
  ASSERT_EQ(s.result.evictions.size(), 1U);
  EXPECT_EQ(s.result.evictions[0].worker, 1U);
  EXPECT_EQ(s.result.evictions[0].round, 1U);
  ASSERT_TRUE(s.server.pull(0, s.result).has_value());
  s.stage(0, 1);
  ASSERT_TRUE(s.server.ready());  // worker 1's part was stripped
  s.server.apply_next(s.result);
  std::size_t applied = 0;
  for (std::size_t count : s.result.staleness_histogram) applied += count;
  EXPECT_EQ(applied, 3U + 2U);
}

}  // namespace
}  // namespace sidco
