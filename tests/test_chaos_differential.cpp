// Chaos differential suite: seeded fault schedules through the real engines.
//
// The headline invariant (ISSUE 7): under ANY lossy-but-connected fault
// schedule — drops, delays, duplicates, reorders, corruptions, one-shot link
// cuts — the session's *results* (final parameters, per-iteration losses and
// metrics, evals, push wire bytes) must be **bit-identical** to the
// fault-free threads oracle.  Faults may only change wall-clock time and the
// fault/recovery counters.  Anything else is a reliable-delivery bug: a lost
// frame the retransmitter did not repair, a duplicate applied twice, a
// corruption the checksum missed.
//
// Disconnecting faults (permanent partition, SIGKILLed worker) cannot
// preserve results by definition; their contract is *graceful degradation*:
// fail-fast sessions must end in a structured error naming the dead peer,
// evict-mode parameter-server sessions must record the eviction and finish
// on the survivors, and nothing may hang — the session watchdog deadline is
// itself one of the features under test.
//
// Seed count scales with SIDCO_CHAOS_SEEDS (default 2; CI's chaos lane runs
// 8).  Every schedule is a pure function of (fault_seed, link, send index),
// so any failing cell replays locally by pasting its SCOPED_TRACE config.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "dist/scenario.h"
#include "dist/session.h"
#include "dist/session_detail.h"
#include "util/check.h"

namespace sidco {
namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kIterations = 3;

std::size_t chaos_seed_count() {
  if (const char* env = std::getenv("SIDCO_CHAOS_SEEDS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n >= 1) return static_cast<std::size_t>(n);
  }
  return 2;
}

dist::SessionConfig base_config(dist::Topology topology) {
  dist::SessionConfig config;
  config.benchmark = nn::Benchmark::kResNet20;
  config.scheme = core::Scheme::kSidcoExponential;
  config.target_ratio = 0.01;
  config.workers = kWorkers;
  config.iterations = kIterations;
  config.eval_every = 2;
  config.eval_batches = 2;
  config.seed = 91;
  config.error_feedback = true;
  config.topology = topology;
  config.staleness_bound = 0;
  return config;
}

/// Short recovery fuses so confirmed-dead peers are detected in seconds, not
/// the production 30 s silence window; lossy cells never hit these limits.
void arm_fast_detection(dist::SessionConfig& config) {
  config.reliability.enabled = true;
  config.reliability.silence_timeout_seconds = 2.0;
  config.reliability.heartbeat_interval_seconds = 0.2;
  config.deadline_seconds = 60.0;  // backstop far above any expected path
}

/// Fault-free threads-engine oracle, memoized per topology (the only knob
/// the lossy sweeps vary besides the fault schedule itself).
const dist::SessionResult& clean_oracle(dist::Topology topology) {
  static std::map<int, dist::SessionResult> cache;
  const int key = static_cast<int>(topology);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  dist::SessionConfig config = base_config(topology);
  config.engine = dist::Engine::kThreads;
  return cache.emplace(key, dist::run_session(config)).first->second;
}

/// EXPECT_EQ (never near-equality) on everything the fault schedule must not
/// touch.  Mirrors test_socket_differential's core.
void expect_bit_identical(const dist::SessionResult& chaotic,
                          const dist::SessionResult& oracle) {
  ASSERT_EQ(chaotic.iterations.size(), oracle.iterations.size());
  for (std::size_t i = 0; i < chaotic.iterations.size(); ++i) {
    EXPECT_EQ(chaotic.iterations[i].train_loss,
              oracle.iterations[i].train_loss) << "iteration " << i;
    EXPECT_EQ(chaotic.iterations[i].train_accuracy,
              oracle.iterations[i].train_accuracy) << "iteration " << i;
    EXPECT_EQ(chaotic.iterations[i].achieved_ratio,
              oracle.iterations[i].achieved_ratio) << "iteration " << i;
    EXPECT_EQ(chaotic.iterations[i].wire_bytes,
              oracle.iterations[i].wire_bytes) << "iteration " << i;
  }
  ASSERT_EQ(chaotic.evals.size(), oracle.evals.size());
  for (std::size_t i = 0; i < chaotic.evals.size(); ++i) {
    EXPECT_EQ(chaotic.evals[i].iteration, oracle.evals[i].iteration);
    EXPECT_EQ(chaotic.evals[i].loss, oracle.evals[i].loss);
    EXPECT_EQ(chaotic.evals[i].accuracy, oracle.evals[i].accuracy);
  }
  EXPECT_EQ(chaotic.final_loss, oracle.final_loss);
  EXPECT_EQ(chaotic.final_quality, oracle.final_quality);
  EXPECT_EQ(chaotic.total_wire_bytes, oracle.total_wire_bytes);
  EXPECT_EQ(chaotic.total_dense_equiv_bytes, oracle.total_dense_equiv_bytes);
  ASSERT_EQ(chaotic.final_parameters.size(), oracle.final_parameters.size());
  ASSERT_GT(chaotic.final_parameters.size(), 0U);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < chaotic.final_parameters.size(); ++i) {
    if (chaotic.final_parameters[i] != oracle.final_parameters[i]) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0U)
      << "final parameters differ at " << mismatches << " of "
      << chaotic.final_parameters.size() << " positions";
}

struct FaultKind {
  const char* name;
  dist::FaultInjectionConfig config;
  bool forces_retransmits;  ///< data loss the reliable layer must repair
};

std::vector<FaultKind> lossy_kinds() {
  std::vector<FaultKind> kinds;
  {
    dist::FaultInjectionConfig f;
    f.drop = 0.15;
    kinds.push_back({"drop", f, true});
  }
  {
    dist::FaultInjectionConfig f;
    f.delay = 0.20;
    kinds.push_back({"delay", f, false});
  }
  {
    dist::FaultInjectionConfig f;
    f.duplicate = 0.15;
    kinds.push_back({"dup", f, false});
  }
  {
    dist::FaultInjectionConfig f;
    f.reorder = 0.20;
    kinds.push_back({"reorder", f, false});
  }
  {
    dist::FaultInjectionConfig f;
    f.corrupt = 0.10;
    kinds.push_back({"corrupt", f, true});
  }
  {
    dist::FaultInjectionConfig f;
    f.drop = 0.06;
    f.delay = 0.06;
    f.duplicate = 0.06;
    f.reorder = 0.06;
    f.corrupt = 0.05;
    kinds.push_back({"mixed", f, true});
  }
  return kinds;
}

std::string cell_trace(const char* kind, dist::Topology topology,
                       std::uint64_t seed) {
  return std::string("fault=") + kind + " topology=" +
         std::string(dist::topology_name(topology)) + " fault_seed=" +
         std::to_string(seed);
}

// ---------------------------------------------------------------------------
// Headline: lossy-but-connected schedules are invisible in the results.

// Every fault kind x both topologies x SIDCO_CHAOS_SEEDS seeds, over forked
// worker processes and real sockets.  Counters prove the schedule actually
// fired; the bit-identity proves the reliable layer repaired all of it.
TEST(ChaosDifferential, LossySocketsBitIdenticalToCleanThreads) {
  const std::size_t seeds = chaos_seed_count();
  for (dist::Topology topology :
       {dist::Topology::kAllreduce, dist::Topology::kParameterServer}) {
    const dist::SessionResult& oracle = clean_oracle(topology);
    for (const FaultKind& kind : lossy_kinds()) {
      // The bit-identity must hold per cell; the did-the-schedule-fire
      // counters are asserted per kind across its seeds — a single short
      // session can legitimately draw zero faults of a low-probability
      // kind (corruption skips empty-body acks/beacons entirely).
      std::uint64_t injected = 0;
      std::uint64_t retransmits = 0;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        SCOPED_TRACE(cell_trace(kind.name, topology, seed));
        dist::SessionConfig config = base_config(topology);
        config.engine = dist::Engine::kSockets;
        config.fault = kind.config;
        config.fault.seed = seed;
        config.deadline_seconds = 120.0;  // anti-hang backstop, never hit
        const dist::SessionResult chaotic = dist::run_session(config);
        expect_bit_identical(chaotic, oracle);
        injected += chaotic.fault_counters.total_injected();
        retransmits += chaotic.fault_counters.retransmits;
      }
      SCOPED_TRACE(std::string("fault=") + kind.name + " topology=" +
                   std::string(dist::topology_name(topology)));
      EXPECT_GT(injected, 0U);
      if (kind.forces_retransmits) {
        EXPECT_GT(retransmits, 0U);
      }
    }
  }
}

// The same invariant on the threads engine (in-memory fabric under the same
// decorators).  Small on purpose: this is the TSan chaos smoke cell — CI's
// tsan job runs exactly this test by name.
TEST(ChaosDifferential, LossyThreadsBitIdenticalToCleanThreads) {
  // Hot mixed schedule: a quarter of all frames lose data (drop/corrupt) so
  // a single short session is statistically certain to exercise the
  // retransmit path — per-draw indices shift with thread interleaving, so a
  // fixed seed alone does not pin the fault count.
  dist::FaultInjectionConfig mixed;
  mixed.drop = 0.15;
  mixed.delay = 0.06;
  mixed.duplicate = 0.06;
  mixed.reorder = 0.06;
  mixed.corrupt = 0.10;
  std::uint64_t injected = 0;
  std::uint64_t retransmits = 0;
  for (dist::Topology topology :
       {dist::Topology::kAllreduce, dist::Topology::kParameterServer}) {
    SCOPED_TRACE(cell_trace("mixed", topology, 7));
    dist::SessionConfig config = base_config(topology);
    config.engine = dist::Engine::kThreads;
    config.fault = mixed;
    config.fault.seed = 7;
    config.deadline_seconds = 120.0;
    const dist::SessionResult chaotic = dist::run_session(config);
    expect_bit_identical(chaotic, clean_oracle(topology));
    injected += chaotic.fault_counters.total_injected();
    retransmits += chaotic.fault_counters.retransmits;
  }
  EXPECT_GT(injected, 0U);
  EXPECT_GT(retransmits, 0U);
}

// A one-shot hard link cut mid-session: endpoint 0 writes half of its second
// reliable data envelope to the coordinator/server, then closes the socket.
// That envelope can never be acked, so the reliable layer must reconnect,
// retransmit, and land the same bits.  The second envelope, not the first:
// its first is always frame 0 (no heartbeat precedes a link's first send),
// and only after that frame has arrived does the coordinator count endpoint
// 0 as an active peer whose link it heals.  The retransmission happens
// inside the reliable call that saw the link close (the window is re-sent
// on reconnect), so it is counted before endpoint 0 reports its counters in
// its kDone frame, which follows at least one more round.
TEST(ChaosDifferential, ReconnectAfterLinkCutBitIdentical) {
  for (dist::Topology topology :
       {dist::Topology::kAllreduce, dist::Topology::kParameterServer}) {
    SCOPED_TRACE(cell_trace("cut", topology, 1));
    dist::SessionConfig config = base_config(topology);
    config.engine = dist::Engine::kSockets;
    config.fault.cut_from = 0;
    config.fault.cut_to = kWorkers;  // the coordinator/server endpoint
    config.fault.cut_after = 1;
    config.deadline_seconds = 120.0;
    const dist::SessionResult chaotic = dist::run_session(config);
    expect_bit_identical(chaotic, clean_oracle(topology));
    EXPECT_GT(chaotic.fault_counters.reconnects, 0U);
    EXPECT_GT(chaotic.fault_counters.retransmits, 0U);
  }
}

// ---------------------------------------------------------------------------
// Disconnecting faults: structured errors (fail-fast) or recorded evictions
// (degraded mode), never hangs.

/// Runs the session expecting a util::CheckError whose message contains
/// `substring`; fails the test on success or on the wrong error text.
void expect_structured_error(const dist::SessionConfig& config,
                             const std::string& substring) {
  try {
    (void)dist::run_session(config);
    FAIL() << "session completed despite a disconnecting fault";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(substring), std::string::npos)
        << "error text: " << e.what();
  }
}

// A permanently partitioned worker under the default fail-fast policy: the
// session must end in a structured error, well before the watchdog deadline.
TEST(ChaosDifferential, PartitionFailFastStructuredError) {
  dist::SessionConfig config = base_config(dist::Topology::kParameterServer);
  config.engine = dist::Engine::kSockets;
  arm_fast_detection(config);
  config.fault.partition_worker = 1;
  config.fault.partition_after = 2;
  // The exhausted side may be either end of the link (the worker names the
  // coordinator, the server names the worker), so match the shared suffix.
  expect_structured_error(config, "failed");
}

// The same partition under the evict policy: the server evicts worker 1,
// renormalizes over the survivors, and the session *completes* with the
// eviction on the record.  The second input adds a third worker four times
// slower than the others: every round's modeled compute is that straggler's,
// after the eviction as before it, because each part's speed scale is taken
// by its worker id, not by its position among the survivors.
TEST(ChaosDifferential, PartitionEvictRecordedAndSessionCompletes) {
  struct Input {
    const char* name;
    std::size_t workers;
    std::vector<double> worker_time_scale;
  };
  const std::vector<Input> inputs = {
      {"2 workers", kWorkers, {}},
      {"3 workers, worker 2 4x slower", 3, {1.0, 1.0, 4.0}}};
  for (dist::Engine engine :
       {dist::Engine::kThreads, dist::Engine::kSockets}) {
    for (const Input& input : inputs) {
      SCOPED_TRACE(std::string(engine == dist::Engine::kThreads ? "threads"
                                                                : "sockets") +
                   ", " + input.name);
      dist::SessionConfig config =
          base_config(dist::Topology::kParameterServer);
      config.engine = engine;
      config.workers = input.workers;
      config.worker_time_scale = input.worker_time_scale;
      config.iterations = 4;
      arm_fast_detection(config);
      config.on_worker_failure = dist::FailurePolicy::kEvict;
      config.fault.partition_worker = 1;
      config.fault.partition_after = 2;
      const dist::SessionResult r = dist::run_session(config);
      ASSERT_EQ(r.evictions.size(), 1U);
      EXPECT_EQ(r.evictions[0].worker, 1U);
      ASSERT_EQ(r.iterations.size(), config.iterations);
      for (const dist::IterationRecord& it : r.iterations) {
        EXPECT_TRUE(std::isfinite(it.train_loss));
      }
      // Every part actually applied is binned once: all n before the
      // eviction's version e, the n - 1 survivors' from e on.
      const std::size_t e = r.evictions[0].round;
      std::size_t applied_parts = 0;
      for (std::size_t count : r.staleness_histogram) applied_parts += count;
      EXPECT_EQ(applied_parts, input.workers * e + (input.workers - 1) *
                                                       (config.iterations - e));
      // Every round's pushes crossed the wire, a lone survivor's too.  The
      // session total is those pushes plus the pulls, which ride on top.
      std::size_t pushed = 0;
      for (std::size_t round = 0; round < r.iterations.size(); ++round) {
        EXPECT_GT(r.iterations[round].wire_bytes, 0U) << "round " << round;
        pushed += r.iterations[round].wire_bytes;
      }
      EXPECT_LT(pushed, r.total_wire_bytes);
      ASSERT_GT(r.final_parameters.size(), 0U);
      for (std::size_t i = 0; i < r.final_parameters.size(); i += 1000) {
        EXPECT_TRUE(std::isfinite(r.final_parameters[i]));
      }
      if (!input.worker_time_scale.empty()) {
        const double straggler =
            4.0 * dist::detail::make_timing(config, r.gradient_dimension)
                      .base_compute;
        for (std::size_t round = 0; round < r.iterations.size(); ++round) {
          EXPECT_EQ(r.iterations[round].compute_seconds, straggler)
              << "round " << round;
        }
      }
    }
  }
}

// A worker SIGKILLed between rounds (no flush, no goodbye — a machine
// failure) under fail-fast: the parent must surface a structured error
// naming the dead worker within the detection budget.
TEST(ChaosDifferential, KilledWorkerFailFastStructuredError) {
  dist::SessionConfig config = base_config(dist::Topology::kAllreduce);
  config.engine = dist::Engine::kSockets;
  arm_fast_detection(config);
  config.fault.kill_worker = 1;
  config.fault.kill_round = 1;
  expect_structured_error(config, "remote worker 1");
}

// The same SIGKILL under the evict policy: recorded eviction, completed
// session, survivors carry the training run.
TEST(ChaosDifferential, KilledWorkerEvictedAndSessionCompletes) {
  dist::SessionConfig config = base_config(dist::Topology::kParameterServer);
  config.engine = dist::Engine::kSockets;
  config.iterations = 4;
  arm_fast_detection(config);
  config.on_worker_failure = dist::FailurePolicy::kEvict;
  config.fault.kill_worker = 1;
  config.fault.kill_round = 1;
  const dist::SessionResult r = dist::run_session(config);
  ASSERT_EQ(r.evictions.size(), 1U);
  EXPECT_EQ(r.evictions[0].worker, 1U);
  ASSERT_EQ(r.iterations.size(), config.iterations);
  for (const dist::IterationRecord& it : r.iterations) {
    EXPECT_TRUE(std::isfinite(it.train_loss));
  }
}

// ---------------------------------------------------------------------------
// The session watchdog: a silently wedged session dies with a deadline
// error, never hangs.  Reliability is OFF here on purpose — without
// heartbeats nobody ever detects the dead worker, which is exactly the wedge
// the deadline exists to break (the ctest timeout is the meta-watchdog).

TEST(ChaosDifferential, WatchdogDeadlineBreaksWedgedSession) {
  // Parameter server on purpose: the server blocks waiting for the dead
  // worker's push on a link that closed *quietly* (allgather peers would
  // observe the closed link on their next broadcast and abort on their own).
  dist::SessionConfig config = base_config(dist::Topology::kParameterServer);
  config.engine = dist::Engine::kSockets;
  config.fault.kill_worker = 1;
  config.fault.kill_round = 0;  // dies before its first push
  config.deadline_seconds = 4.0;
  expect_structured_error(config, "deadline");
}

// ---------------------------------------------------------------------------
// Scenario DSL: the fault axis expands, runs deterministically, and lives in
// its own golden namespace.

TEST(ChaosDifferential, ScenarioFaultAxisDeterministicAndSuffixed) {
  dist::MatrixSpec spec = dist::parse_matrix_spec(R"(
workers    = 2
iterations = 2
seed       = 123
eval_batches = 2
benchmark  = resnet20
scheme     = topk
ratio      = 0.01
topology   = allgather
network    = 10gbps
device     = homogeneous
error_feedback = on
staleness  = 0
engine     = sockets
fault_seed = 3
fault      = none, drop:0.1+dup:0.05
)");
  const auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  const std::vector<dist::Scenario> cells = dist::expand(spec);
  ASSERT_EQ(cells.size(), 2U);
  EXPECT_TRUE(ends_with(cells[0].name, "/sockets")) << cells[0].name;
  EXPECT_TRUE(ends_with(cells[1].name, "/sockets/drop:0.1+dup:0.05"))
      << cells[1].name;
  EXPECT_EQ(cells[1].config.fault.drop, 0.1);
  EXPECT_EQ(cells[1].config.fault.duplicate, 0.05);
  EXPECT_EQ(cells[1].config.fault.seed, 3U);

  const std::vector<dist::ScenarioMetrics> first = dist::run_matrix(spec);
  const std::vector<dist::ScenarioMetrics> second = dist::run_matrix(spec);
  const std::string a = dist::format_metrics(first);
  const std::string b = dist::format_metrics(second);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // The faulted cell's *metrics* equal the clean cell's: same name prefix,
  // same numbers, different suffix — the bit-identity invariant seen
  // through the scenario lens.
  ASSERT_EQ(first.size(), 2U);
  EXPECT_EQ(first[0].final_loss, first[1].final_loss);
  EXPECT_EQ(first[0].wire_bytes, first[1].wire_bytes);
}

TEST(ChaosDifferential, ScenarioFaultParsingRejectsBadTokens) {
  EXPECT_THROW(dist::parse_fault_profile("gamma-rays:0.1"), util::CheckError);
  EXPECT_THROW(dist::parse_fault_profile("drop"), util::CheckError);
  EXPECT_THROW(dist::parse_fault_profile("drop:1.5"), util::CheckError);
  EXPECT_THROW(dist::parse_fault_profile("drop:0.6+delay:0.6"),
               util::CheckError);
  // A fault axis on the simulated engine is a spec error at parse time.
  EXPECT_THROW(dist::parse_matrix_spec(R"(
workers = 2
iterations = 2
fault = drop:0.1
)"),
               util::CheckError);
  // Unknown failure-policy tokens and negative deadlines too.
  EXPECT_THROW(dist::parse_matrix_spec("failure = shrug"), util::CheckError);
  EXPECT_THROW(dist::parse_matrix_spec("deadline = -1"), util::CheckError);
}

}  // namespace
}  // namespace sidco
