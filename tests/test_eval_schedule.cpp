// The eval schedule, pinned to its spec on every driver: an eval follows
// every `eval_every`-th iteration and the last one, each exactly once.  The
// drivers share one schedule (dist::detail::eval_due); this suite checks
// what each of them records: the simulated allgather and parameter-server
// drivers, the threads and sockets engines in both topologies, and a
// one-tenant fleet.
#include <gtest/gtest.h>

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "dist/session.h"
#include "sched/scheduler.h"

namespace sidco {
namespace {

struct EvalDriver {
  const char* name;
  dist::Engine engine;
  dist::Topology topology;
  std::size_t staleness_bound;
  bool fleet;  ///< a one-tenant sched::run_fleet instead of run_session
};

void PrintTo(const EvalDriver& driver, std::ostream* os) { *os << driver.name; }

std::vector<std::size_t> eval_iterations(const dist::SessionConfig& config,
                                         bool fleet) {
  dist::SessionResult result;
  if (fleet) {
    sched::FleetConfig fleet_config;
    sched::TenantSpec tenant;
    tenant.session = config;
    fleet_config.tenants.push_back(tenant);
    fleet_config.link_gbps = config.network.bandwidth_gbps;
    result = sched::run_fleet(fleet_config).tenants.front().session;
  } else {
    result = dist::run_session(config);
  }
  std::vector<std::size_t> iterations;
  for (const dist::EvalRecord& eval : result.evals) {
    iterations.push_back(eval.iteration);
  }
  return iterations;
}

class EvalSchedule : public ::testing::TestWithParam<EvalDriver> {};

TEST_P(EvalSchedule, FollowsEveryKthAndTheLastIterationOnce) {
  const EvalDriver& driver = GetParam();
  dist::SessionConfig config;
  config.benchmark = nn::Benchmark::kResNet20;
  config.scheme = core::Scheme::kSidcoExponential;
  config.target_ratio = 0.01;
  config.workers = 2;
  config.iterations = 7;
  config.eval_batches = 1;
  config.seed = 17;
  config.engine = driver.engine;
  config.topology = driver.topology;
  config.staleness_bound = driver.staleness_bound;

  const struct {
    std::size_t eval_every;
    std::vector<std::size_t> expected;
  } cases[] = {{0, {7}}, {3, {3, 6, 7}}, {7, {7}}};
  for (const auto& c : cases) {
    config.eval_every = c.eval_every;
    EXPECT_EQ(eval_iterations(config, driver.fleet), c.expected)
        << "eval_every = " << c.eval_every;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, EvalSchedule,
    ::testing::Values(
        EvalDriver{"SimulatedAllgather", dist::Engine::kSimulated,
                   dist::Topology::kAllreduce, 0, false},
        EvalDriver{"SimulatedPsStaleness0", dist::Engine::kSimulated,
                   dist::Topology::kParameterServer, 0, false},
        EvalDriver{"SimulatedPsStaleness2", dist::Engine::kSimulated,
                   dist::Topology::kParameterServer, 2, false},
        EvalDriver{"ThreadsAllgather", dist::Engine::kThreads,
                   dist::Topology::kAllreduce, 0, false},
        EvalDriver{"ThreadsPs", dist::Engine::kThreads,
                   dist::Topology::kParameterServer, 0, false},
        EvalDriver{"SocketsAllgather", dist::Engine::kSockets,
                   dist::Topology::kAllreduce, 0, false},
        EvalDriver{"SocketsPs", dist::Engine::kSockets,
                   dist::Topology::kParameterServer, 0, false},
        EvalDriver{"OneTenantFleet", dist::Engine::kSimulated,
                   dist::Topology::kAllreduce, 0, true}),
    [](const ::testing::TestParamInfo<EvalDriver>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sidco
