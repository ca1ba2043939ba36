// Topology protocol bodies (runtime/topology.h) against hostile parameter
// snapshots.  A kGrant snapshot (parameter server) or a kParams body
// (allgather final parameters) must be a comm dense fp32 message of exactly
// the model's dimension; anything else ends the receiving body with one
// named CheckError.  The bodies run on the test thread over an
// InMemoryTransport, and the peer's side of the exchange is scripted.  Runs
// under ASan/UBSan in CI (labels `unit;runtime`).
#include <gtest/gtest.h>

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

  std::optional<runtime::TransportMessage> recv() override {
    return inner_.recv();
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

}  // namespace
}  // namespace sidco
