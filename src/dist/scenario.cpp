#include "dist/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace sidco::dist {

namespace {

std::string trim(std::string_view s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return std::string(s.substr(first, last - first + 1));
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(trim(s.substr(start)));
      break;
    }
    out.push_back(trim(s.substr(start, pos - start)));
    start = pos + 1;
  }
  return out;
}

struct BenchmarkToken {
  std::string_view token;
  nn::Benchmark benchmark;
};
constexpr BenchmarkToken kBenchmarkTokens[] = {
    {"resnet20", nn::Benchmark::kResNet20},
    {"vgg16", nn::Benchmark::kVgg16},
    {"resnet50", nn::Benchmark::kResNet50},
    {"vgg19", nn::Benchmark::kVgg19},
    {"lstm-ptb", nn::Benchmark::kLstmPtb},
    {"lstm-an4", nn::Benchmark::kLstmAn4},
};

struct SchemeToken {
  std::string_view token;
  core::Scheme scheme;
};
constexpr SchemeToken kSchemeTokens[] = {
    {"none", core::Scheme::kNone},
    {"topk", core::Scheme::kTopK},
    {"dgc", core::Scheme::kDgc},
    {"redsync", core::Scheme::kRedSync},
    {"gaussiank", core::Scheme::kGaussianKSgd},
    {"randomk", core::Scheme::kRandomK},
    {"sidco-e", core::Scheme::kSidcoExponential},
    {"sidco-gp", core::Scheme::kSidcoGammaPareto},
    {"sidco-p", core::Scheme::kSidcoPareto},
};

nn::Benchmark parse_benchmark(const std::string& token) {
  for (const auto& [t, b] : kBenchmarkTokens) {
    if (token == t) return b;
  }
  util::check_fail("unknown benchmark token: " + token);
}

std::string_view benchmark_token(nn::Benchmark benchmark) {
  for (const auto& [t, b] : kBenchmarkTokens) {
    if (benchmark == b) return t;
  }
  return "unknown";
}

core::Scheme parse_scheme(const std::string& token) {
  for (const auto& [t, s] : kSchemeTokens) {
    if (token == t) return s;
  }
  util::check_fail("unknown scheme token: " + token);
}

std::string_view scheme_token(core::Scheme scheme) {
  for (const auto& [t, s] : kSchemeTokens) {
    if (scheme == s) return t;
  }
  return "unknown";
}

Topology parse_topology(const std::string& token) {
  if (token == "allgather" || token == "allreduce") {
    return Topology::kAllreduce;
  }
  if (token == "ps" || token == "parameter-server") {
    return Topology::kParameterServer;
  }
  util::check_fail("unknown topology token: " + token);
}

double parse_double(const std::string& token) {
  std::size_t consumed = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    util::check_fail("malformed number: " + token);
  }
  util::check(consumed == token.size(), "trailing characters in number");
  return value;
}

std::size_t parse_size(const std::string& token) {
  const double value = parse_double(token);
  util::check(value >= 0.0 && value == std::floor(value),
              "expected a non-negative integer");
  return static_cast<std::size_t>(value);
}

/// `<bandwidth>gbps` with an optional `@<latency>us` suffix, e.g. "10gbps"
/// (25 us default) or "1gbps@50us".
NetworkProfile parse_network(const std::string& token) {
  NetworkProfile profile{.name = token, .config = NetworkConfig{}};
  std::string bw_part = token;
  if (const auto at = token.find('@'); at != std::string::npos) {
    bw_part = token.substr(0, at);
    std::string lat_part = token.substr(at + 1);
    util::check(lat_part.size() > 2 &&
                    lat_part.compare(lat_part.size() - 2, 2, "us") == 0,
                "network latency must end in 'us'");
    profile.config.latency_us =
        parse_double(lat_part.substr(0, lat_part.size() - 2));
  }
  util::check(bw_part.size() > 4 &&
                  bw_part.compare(bw_part.size() - 4, 4, "gbps") == 0,
              "network bandwidth must end in 'gbps'");
  profile.config.bandwidth_gbps =
      parse_double(bw_part.substr(0, bw_part.size() - 4));
  util::check(profile.config.bandwidth_gbps > 0.0,
              "network bandwidth must be positive");
  util::check(profile.config.latency_us >= 0.0,
              "network latency must be non-negative");
  return profile;
}

bool parse_on_off(const std::string& token) {
  if (token == "on" || token == "true" || token == "1") return true;
  if (token == "off" || token == "false" || token == "0") return false;
  util::check_fail("expected on/off: " + token);
}

FailurePolicy parse_failure_policy(const std::string& token) {
  if (token == "failfast" || token == "fail-fast") {
    return FailurePolicy::kFailFast;
  }
  if (token == "evict") return FailurePolicy::kEvict;
  util::check_fail("unknown failure policy token: " + token);
}

std::string format_g(double value, int precision = 9) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

}  // namespace

void validate_churn_feasibility(const ChurnSchedule& churn,
                                std::size_t workers, std::size_t iterations) {
  std::size_t active = workers;
  std::size_t departed = 0;
  for (const ChurnEvent& event : churn.events) {
    if (event.round >= iterations) {
      util::check_fail("churn schedule '" + churn.name + "': round " +
                       std::to_string(event.round) +
                       " is outside the session (iterations = " +
                       std::to_string(iterations) + ")");
    }
    switch (event.kind) {
      case ChurnEvent::Kind::kLeave:
        if (active < 2) {
          util::check_fail("churn schedule '" + churn.name +
                           "': a leave would empty the tenant");
        }
        --active;
        ++departed;
        break;
      case ChurnEvent::Kind::kJoin:
        ++active;
        break;
      case ChurnEvent::Kind::kRejoin:
        if (departed < 1) {
          util::check_fail("churn schedule '" + churn.name +
                           "': rejoin without a departed worker");
        }
        --departed;
        ++active;
        break;
    }
  }
}

Engine parse_engine(const std::string& token) {
  if (token == "simulated") return Engine::kSimulated;
  if (token == "threads") return Engine::kThreads;
  if (token == "sockets") return Engine::kSockets;
  util::check_fail("unknown engine token: " + token);
}

FaultProfile parse_fault_profile(const std::string& token) {
  FaultProfile profile{.name = token, .config = {}};
  if (token == "none") return profile;
  double sum = 0.0;
  std::size_t start = 0;
  while (start <= token.size()) {
    auto plus = token.find('+', start);
    if (plus == std::string::npos) plus = token.size();
    const std::string term = token.substr(start, plus - start);
    start = plus + 1;
    const auto colon = term.find(':');
    if (colon == std::string::npos) {
      util::check_fail("fault term must be 'kind:probability': " + term);
    }
    const std::string kind = term.substr(0, colon);
    const double p = parse_double(term.substr(colon + 1));
    if (p <= 0.0 || p > 1.0) {
      util::check_fail("fault probability must be in (0, 1]: " + term);
    }
    sum += p;
    if (kind == "drop") {
      profile.config.drop = p;
    } else if (kind == "delay") {
      profile.config.delay = p;
    } else if (kind == "dup") {
      profile.config.duplicate = p;
    } else if (kind == "reorder") {
      profile.config.reorder = p;
    } else if (kind == "corrupt") {
      profile.config.corrupt = p;
    } else {
      util::check_fail("unknown fault kind (want drop|delay|dup|reorder|"
                       "corrupt): " +
                       kind);
    }
  }
  util::check(sum <= 1.0 + 1e-9, "fault probabilities must sum to <= 1");
  return profile;
}

ChurnSchedule parse_churn_schedule(const std::string& token) {
  ChurnSchedule schedule{.name = token, .events = {}};
  if (token == "none") return schedule;
  util::check(!token.empty(), "churn token must not be empty");
  std::size_t start = 0;
  while (start <= token.size()) {
    auto plus = token.find('+', start);
    if (plus == std::string::npos) plus = token.size();
    const std::string term = token.substr(start, plus - start);
    start = plus + 1;
    const auto at = term.find('@');
    if (at == std::string::npos) {
      util::check_fail("churn term must be 'kind@round': " + term);
    }
    const std::string kind = term.substr(0, at);
    ChurnEvent event;
    if (kind == "join") {
      event.kind = ChurnEvent::Kind::kJoin;
    } else if (kind == "leave") {
      event.kind = ChurnEvent::Kind::kLeave;
    } else if (kind == "rejoin") {
      event.kind = ChurnEvent::Kind::kRejoin;
    } else {
      util::check_fail("unknown churn kind (want join|leave|rejoin): " + term);
    }
    const std::string round = term.substr(at + 1);
    std::size_t consumed = 0;
    unsigned long long value = 0;
    try {
      value = std::stoull(round, &consumed);
    } catch (const std::exception&) {
      util::check_fail("churn term has a malformed round: " + term);
    }
    if (consumed != round.size() || round.empty() || round.front() == '-') {
      util::check_fail("churn term has a malformed round: " + term);
    }
    event.round = static_cast<std::size_t>(value);
    if (!schedule.events.empty() && event.round < schedule.events.back().round) {
      util::check_fail("churn events must be in round order: " + token);
    }
    schedule.events.push_back(event);
  }
  return schedule;
}

ResidualHandoff parse_residual_handoff(const std::string& token) {
  if (token == "zero") return ResidualHandoff::kZeroInit;
  if (token == "warm") return ResidualHandoff::kWarmStart;
  util::check_fail("unknown handoff token (want zero|warm): " + token);
}

std::vector<double> resolve_device_profile(const DeviceProfile& profile,
                                           std::size_t workers) {
  util::check(workers >= 1, "device profile needs >= 1 worker");
  if (profile.name == "homogeneous") return {};
  std::vector<double> scale(workers, 1.0);
  if (profile.name == "one-straggler-2x") {
    scale[0] = 2.0;
  } else if (profile.name == "one-straggler-4x") {
    scale[0] = 4.0;
  } else if (profile.name == "linear-ramp") {
    // Worker 0 at full speed, the last worker 2x slower.
    for (std::size_t w = 0; w < workers; ++w) {
      scale[w] = workers == 1
                     ? 1.0
                     : 1.0 + static_cast<double>(w) /
                                 static_cast<double>(workers - 1);
    }
  } else {
    util::check_fail("unknown device profile: " + profile.name);
  }
  return scale;
}

MatrixSpec parse_matrix_spec(std::string_view text) {
  MatrixSpec spec;
  std::set<std::string> seen_keys;
  // Which fleet keys appeared, so a fleet knob without a `tenants` axis is
  // rejected with the offending key (it would otherwise silently do nothing).
  std::vector<std::string> fleet_keys;
  std::istringstream in{std::string(text)};
  std::string raw_line;
  while (std::getline(in, raw_line)) {
    std::string line = raw_line;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    util::check(eq != std::string::npos,
                "scenario spec lines must be 'key = value[, value...]'");
    const std::string key = trim(line.substr(0, eq));
    if (!seen_keys.insert(key).second) {
      util::check_fail("duplicate scenario key: " + key);
    }
    const std::vector<std::string> values = split(line.substr(eq + 1), ',');
    if (values.empty() || values.front().empty()) {
      util::check_fail("scenario key '" + key + "' needs at least one value");
    }

    const auto single = [&]() -> const std::string& {
      if (values.size() != 1) {
        util::check_fail("scenario key '" + key + "' takes a single value");
      }
      return values.front();
    };

    if (key == "workers") {
      spec.workers = parse_size(single());
    } else if (key == "iterations") {
      spec.iterations = parse_size(single());
    } else if (key == "eval_every") {
      spec.eval_every = parse_size(single());
    } else if (key == "eval_batches") {
      spec.eval_batches = parse_size(single());
    } else if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(parse_size(single()));
    } else if (key == "engine") {
      spec.engine = parse_engine(single());
    } else if (key == "channel_capacity") {
      spec.channel_capacity = parse_size(single());
      util::check(spec.channel_capacity >= 1, "channel_capacity must be >= 1");
    } else if (key == "fault_seed") {
      spec.fault_seed = static_cast<std::uint64_t>(parse_size(single()));
    } else if (key == "failure") {
      spec.failure = parse_failure_policy(single());
    } else if (key == "deadline") {
      spec.deadline = parse_double(single());
      util::check(spec.deadline >= 0.0, "deadline must be non-negative");
    } else if (key == "benchmark") {
      spec.benchmarks.clear();
      for (const auto& v : values) spec.benchmarks.push_back(parse_benchmark(v));
    } else if (key == "scheme") {
      spec.schemes.clear();
      for (const auto& v : values) spec.schemes.push_back(parse_scheme(v));
    } else if (key == "ratio") {
      spec.ratios.clear();
      for (const auto& v : values) spec.ratios.push_back(parse_double(v));
    } else if (key == "topology") {
      spec.topologies.clear();
      for (const auto& v : values) spec.topologies.push_back(parse_topology(v));
    } else if (key == "network") {
      spec.networks.clear();
      for (const auto& v : values) spec.networks.push_back(parse_network(v));
    } else if (key == "device") {
      spec.devices.clear();
      for (const auto& v : values) {
        // Resolve now with a representative count so unknown names fail at
        // parse time, not mid-matrix.
        (void)resolve_device_profile({.name = v}, 2);
        spec.devices.push_back({.name = v});
      }
    } else if (key == "error_feedback") {
      spec.error_feedback.clear();
      for (const auto& v : values) spec.error_feedback.push_back(parse_on_off(v));
    } else if (key == "staleness") {
      spec.staleness.clear();
      for (const auto& v : values) spec.staleness.push_back(parse_size(v));
    } else if (key == "chunks") {
      spec.chunks.clear();
      for (const auto& v : values) {
        const std::size_t c = parse_size(v);
        util::check(c >= 1, "chunks must be >= 1");
        spec.chunks.push_back(c);
      }
    } else if (key == "fault") {
      spec.faults.clear();
      for (const auto& v : values) spec.faults.push_back(parse_fault_profile(v));
    } else if (key == "autotune") {
      spec.autotune.clear();
      for (const auto& v : values) {
        spec.autotune.push_back(core::parse_autotune_mode(v));
      }
    } else if (key == "autotune_min") {
      spec.autotune_base.min_ratio = parse_double(single());
    } else if (key == "autotune_max") {
      spec.autotune_base.max_ratio = parse_double(single());
    } else if (key == "autotune_gof_poor") {
      spec.autotune_base.gof_poor = parse_double(single());
    } else if (key == "autotune_gof_good") {
      spec.autotune_base.gof_good = parse_double(single());
    } else if (key == "tenants") {
      fleet_keys.push_back(key);
      spec.tenants.clear();
      for (const auto& v : values) {
        const std::size_t n = parse_size(v);
        util::check(n >= 1, "tenants values must be >= 1");
        spec.tenants.push_back(n);
      }
    } else if (key == "churn") {
      fleet_keys.push_back(key);
      spec.churn.clear();
      for (const auto& v : values) spec.churn.push_back(parse_churn_schedule(v));
    } else if (key == "bandwidth_trace") {
      fleet_keys.push_back(key);
      spec.traces.clear();
      for (const auto& v : values) {
        spec.traces.push_back(parse_bandwidth_trace(v));
      }
    } else if (key == "tenant_weights") {
      fleet_keys.push_back(key);
      spec.tenant_weights.clear();
      for (const std::string& w : split(single(), ':')) {
        const double weight = parse_double(w);
        util::check(weight > 0.0, "tenant weights must be positive");
        spec.tenant_weights.push_back(weight);
      }
    } else if (key == "handoff") {
      fleet_keys.push_back(key);
      spec.handoff = parse_residual_handoff(single());
    } else {
      util::check_fail("unknown scenario key: " + key);
    }
  }
  util::check(spec.workers >= 1, "scenario matrix needs >= 1 worker");
  util::check(spec.iterations >= 1, "scenario matrix needs >= 1 iteration");
  for (const FaultProfile& fault : spec.faults) {
    util::check(fault.name == "none" || spec.engine != Engine::kSimulated,
                "fault injection needs a real engine (threads or sockets); "
                "the simulated engine has no wire to break");
  }
  for (core::AutotuneMode mode : spec.autotune) {
    // Fail on inconsistent controller bounds at parse time, not mid-matrix.
    core::AutotuneConfig probe = spec.autotune_base;
    probe.mode = mode;
    core::validate_autotune_config(probe);
  }
  if (spec.tenants.empty()) {
    if (!fleet_keys.empty() && fleet_keys.front() != "tenants") {
      util::check_fail("scenario key '" + fleet_keys.front() +
                       "' needs a 'tenants' axis (fleet specs only)");
    }
  } else {
    // The fleet scheduler replays the deterministic simulated engine round
    // by round over a shared link; everything it cannot model fails here
    // with the reason, not mid-fleet.
    util::check(spec.engine == Engine::kSimulated,
                "fleet specs require the simulated engine (the fair-share "
                "link is modeled, not real)");
    for (Topology topology : spec.topologies) {
      util::check(topology == Topology::kAllreduce,
                  "fleet specs support the allgather topology only");
    }
    for (const DeviceProfile& device : spec.devices) {
      util::check(device.name == "homogeneous",
                  "fleet specs require homogeneous devices (per-worker speed "
                  "profiles do not survive elastic membership)");
    }
    for (std::size_t chunk : spec.chunks) {
      util::check(chunk == 1, "fleet specs require overlap_chunks == 1");
    }
    for (const ChurnSchedule& churn : spec.churn) {
      validate_churn_feasibility(churn, spec.workers, spec.iterations);
    }
  }
  return spec;
}

std::vector<Scenario> expand(const MatrixSpec& spec) {
  std::vector<Scenario> cells;
  for (nn::Benchmark benchmark : spec.benchmarks) {
    for (core::Scheme scheme : spec.schemes) {
      for (double ratio : spec.ratios) {
        for (Topology topology : spec.topologies) {
          for (const NetworkProfile& network : spec.networks) {
            for (const DeviceProfile& device : spec.devices) {
              for (bool ec : spec.error_feedback) {
                for (std::size_t stale : spec.staleness) {
                  for (std::size_t chunk : spec.chunks) {
                   for (const FaultProfile& fault : spec.faults) {
                   for (core::AutotuneMode autotune : spec.autotune) {
                    Scenario cell;
                    cell.config.benchmark = benchmark;
                    cell.config.scheme = scheme;
                    cell.config.target_ratio = ratio;
                    cell.config.workers = spec.workers;
                    cell.config.iterations = spec.iterations;
                    cell.config.eval_every = spec.eval_every;
                    cell.config.eval_batches = spec.eval_batches;
                    cell.config.seed = spec.seed;
                    cell.config.error_feedback = ec;
                    cell.config.topology = topology;
                    cell.config.staleness_bound =
                        topology == Topology::kParameterServer ? stale : 0;
                    cell.config.overlap_chunks = chunk;
                    cell.config.network = network.config;
                    cell.config.device = Device::kGpuModel;
                    cell.config.worker_time_scale =
                        resolve_device_profile(device, spec.workers);
                    cell.config.engine = spec.engine;
                    cell.config.channel_capacity = spec.channel_capacity;
                    cell.config.fault = fault.config;
                    cell.config.fault.seed = spec.fault_seed;
                    cell.config.on_worker_failure = spec.failure;
                    cell.config.deadline_seconds = spec.deadline;
                    cell.config.autotune = spec.autotune_base;
                    cell.config.autotune.mode = autotune;
                    std::ostringstream name;
                    name << benchmark_token(benchmark) << '/'
                         << scheme_token(scheme) << "/r" << format_g(ratio, 6)
                         << '/' << topology_name(topology) << '/'
                         << network.name << '/' << device.name << "/ec"
                         << (ec ? 1 : 0) << "/s" << stale << "/c" << chunk;
                    // Simulated cells keep their historical names so the
                    // committed goldens stay valid; every other engine gets
                    // its name suffixed so each engine is a distinct golden
                    // universe.  Keying on the engine value (not an
                    // enumerated allowlist) means an engine override — e.g.
                    // run_scenarios --engine sockets — can never collide
                    // with another engine's goldens.
                    if (spec.engine != Engine::kSimulated) {
                      name << '/' << engine_name(spec.engine);
                    }
                    // Like the engine suffix: a faulted cell is its own
                    // golden universe, and the clean cell keeps its
                    // historical name.
                    if (fault.name != "none") {
                      name << '/' << fault.name;
                    }
                    // Same again for autotuned cells: off cells keep their
                    // historical (and byte-stable) names.
                    if (autotune != core::AutotuneMode::kOff) {
                      name << "/at-" << core::autotune_mode_name(autotune);
                    }
                    cell.name = name.str();
                    cells.push_back(std::move(cell));
                   }
                   }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  if (spec.tenants.empty()) return cells;

  // Fleet specs: the fleet axes nest innermost (tenants, then churn, then
  // trace), each cell suffixed into its own golden universe.  The suffix is
  // unconditional — even a 1-tenant/none/flat fleet cell names itself apart
  // from the standalone cell it matches bit-for-bit, so the two universes
  // can never collide in one golden file.
  std::vector<Scenario> fleet_cells;
  fleet_cells.reserve(cells.size() * spec.tenants.size() * spec.churn.size() *
                      spec.traces.size());
  for (const Scenario& base : cells) {
    for (std::size_t tenants : spec.tenants) {
      for (const ChurnSchedule& churn : spec.churn) {
        for (const BandwidthTrace& trace : spec.traces) {
          Scenario cell = base;
          FleetCell fleet;
          fleet.tenants = tenants;
          fleet.weights.resize(tenants);
          for (std::size_t t = 0; t < tenants; ++t) {
            fleet.weights[t] =
                spec.tenant_weights.empty()
                    ? 1.0
                    : spec.tenant_weights[t % spec.tenant_weights.size()];
          }
          fleet.churn = churn;
          fleet.trace = trace;
          fleet.handoff = spec.handoff;
          cell.name = base.name + "/fleet-t" + std::to_string(tenants) + "/" +
                      churn.name + "/" + trace.name;
          cell.fleet = std::move(fleet);
          fleet_cells.push_back(std::move(cell));
        }
      }
    }
  }
  return fleet_cells;
}

ScenarioMetrics metrics_from_session(std::string name,
                                     const SessionResult& result) {
  ScenarioMetrics metrics;
  metrics.name = std::move(name);
  metrics.final_loss = result.final_loss;
  metrics.final_quality = result.final_quality;
  double fraction = 0.0;
  for (const IterationRecord& it : result.iterations) {
    fraction += it.achieved_ratio;
  }
  metrics.mean_selected_fraction =
      result.iterations.empty()
          ? 0.0
          : fraction / static_cast<double>(result.iterations.size());
  metrics.simulated_wall_seconds = result.total_modeled_seconds;
  metrics.wire_bytes = result.total_wire_bytes;
  metrics.effective_ratio = result.effective_wire_ratio();
  metrics.mean_staleness = result.mean_staleness();
  metrics.staleness_histogram = result.staleness_histogram;
  metrics.measured_wall_seconds = result.measured_wall_seconds;
  metrics.measured_compute_seconds = result.measured_compute_seconds;
  metrics.measured_comm_seconds = result.measured_comm_seconds;
  return metrics;
}

ScenarioMetrics run_scenario(const Scenario& scenario) {
  if (scenario.fleet.has_value()) {
    util::check_fail("fleet cell '" + scenario.name +
                     "' needs the multi-tenant scheduler: run it through "
                     "sched::run_cell / sched::run_matrix");
  }
  SessionConfig config = scenario.config;
  config.device = Device::kGpuModel;  // keep the event timeline deterministic
  const SessionResult result = run_session(config);
  return metrics_from_session(scenario.name, result);
}

std::vector<ScenarioMetrics> run_matrix(const MatrixSpec& spec) {
  std::vector<ScenarioMetrics> out;
  for (const Scenario& cell : expand(spec)) {
    out.push_back(run_scenario(cell));
  }
  return out;
}

std::string format_metrics(std::span<const ScenarioMetrics> metrics,
                           bool include_measured) {
  std::ostringstream out;
  for (const ScenarioMetrics& m : metrics) {
    out << m.name << " loss=" << format_g(m.final_loss)
        << " quality=" << format_g(m.final_quality)
        << " frac=" << format_g(m.mean_selected_fraction)
        << " wall=" << format_g(m.simulated_wall_seconds)
        << " bytes=" << m.wire_bytes
        << " eff=" << format_g(m.effective_ratio)
        << " mean_stale=" << format_g(m.mean_staleness);
    // Fleet-only field: absent lines keep every pre-fleet golden byte-stable.
    if (m.jain >= 0.0) out << " jain=" << format_g(m.jain);
    out << " stale=";
    for (std::size_t s = 0; s < m.staleness_histogram.size(); ++s) {
      if (s > 0) out << '|';
      out << m.staleness_histogram[s];
    }
    if (include_measured) {
      out << " mwall=" << format_g(m.measured_wall_seconds)
          << " mcomp=" << format_g(m.measured_compute_seconds)
          << " mcomm=" << format_g(m.measured_comm_seconds);
    }
    out << '\n';
  }
  return out.str();
}

namespace {

struct GoldenCell {
  ScenarioMetrics metrics;
  bool matched = false;
};

/// Numeric conversion for golden fields: a malformed token throws a
/// CheckError naming the key and the offending text, instead of leaking a
/// bare std::invalid_argument/std::out_of_range from std::stod with no
/// context about which field of which line broke.
double golden_number(const std::string& key, const std::string& value) {
  std::size_t consumed = 0;
  double out = 0.0;
  try {
    out = std::stod(value, &consumed);
  } catch (const std::exception&) {
    util::check_fail("golden field '" + key + "': malformed number '" + value +
                     "'");
  }
  if (consumed != value.size()) {
    util::check_fail("golden field '" + key + "': trailing characters in '" +
                     value + "'");
  }
  return out;
}

/// Like golden_number for non-negative integer fields.  std::stoull alone
/// would silently wrap "-3" to a huge count, so negatives are rejected.
std::size_t golden_count(const std::string& key, const std::string& value) {
  if (value.empty() || value.front() == '-') {
    util::check_fail("golden field '" + key +
                     "': expected a non-negative integer, got '" + value + "'");
  }
  std::size_t consumed = 0;
  unsigned long long out = 0;
  try {
    out = std::stoull(value, &consumed);
  } catch (const std::exception&) {
    util::check_fail("golden field '" + key + "': malformed count '" + value +
                     "'");
  }
  if (consumed != value.size()) {
    util::check_fail("golden field '" + key + "': trailing characters in '" +
                     value + "'");
  }
  return static_cast<std::size_t>(out);
}

/// Parses one golden line back into metrics; returns false on structurally
/// malformed lines (no name, a token without '=', an unknown key) and throws
/// CheckError — with the key and token named — on malformed numeric fields.
/// Either way the caller reports the line as a diff.
bool parse_golden_line(const std::string& line, ScenarioMetrics& out) {
  std::istringstream in(line);
  if (!(in >> out.name)) return false;
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "loss") {
      out.final_loss = golden_number(key, value);
    } else if (key == "quality") {
      out.final_quality = golden_number(key, value);
    } else if (key == "frac") {
      out.mean_selected_fraction = golden_number(key, value);
    } else if (key == "wall") {
      out.simulated_wall_seconds = golden_number(key, value);
    } else if (key == "bytes") {
      out.wire_bytes = golden_count(key, value);
    } else if (key == "eff") {
      out.effective_ratio = golden_number(key, value);
    } else if (key == "mean_stale") {
      out.mean_staleness = golden_number(key, value);
    } else if (key == "jain") {
      out.jain = golden_number(key, value);
    } else if (key == "mwall") {
      // Measured-seconds columns: parsed for round-tripping, never
      // golden-compared (hardware time is not reproducible).
      out.measured_wall_seconds = golden_number(key, value);
    } else if (key == "mcomp") {
      out.measured_compute_seconds = golden_number(key, value);
    } else if (key == "mcomm") {
      out.measured_comm_seconds = golden_number(key, value);
    } else if (key == "stale") {
      out.staleness_histogram.clear();
      for (const std::string& bin : split(value, '|')) {
        out.staleness_histogram.push_back(golden_count(key, bin));
      }
    } else {
      return false;
    }
  }
  return true;
}

bool within_rel(double fresh, double golden, double rel) {
  const double scale = std::max(std::abs(fresh), std::abs(golden));
  return std::abs(fresh - golden) <= rel * scale + 1e-9;
}

std::size_t histogram_total(const std::vector<std::size_t>& histogram) {
  std::size_t total = 0;
  for (std::size_t c : histogram) total += c;
  return total;
}

}  // namespace

GoldenReport compare_with_golden(std::span<const ScenarioMetrics> metrics,
                                 std::string_view golden_text,
                                 const GoldenTolerance& tolerance) {
  GoldenReport report;
  std::map<std::string, GoldenCell> golden;
  std::istringstream in{std::string(golden_text)};
  std::string line;
  while (std::getline(in, line)) {
    line = trim(line);
    if (line.empty() || line.front() == '#') continue;
    ScenarioMetrics cell;
    bool parsed = false;
    try {
      parsed = parse_golden_line(line, cell);
    } catch (const util::CheckError& err) {
      report.diffs.push_back(std::string("malformed golden line (") +
                             err.what() + "): " + line);
      continue;
    }
    if (!parsed) {
      report.diffs.push_back("malformed golden line: " + line);
      continue;
    }
    // Copy the key out first: the RHS is sequenced before the subscript and
    // would otherwise move the name away.
    const std::string name = cell.name;
    golden[name] = {.metrics = std::move(cell)};
  }

  for (const ScenarioMetrics& fresh : metrics) {
    const auto it = golden.find(fresh.name);
    if (it == golden.end()) {
      report.diffs.push_back("cell missing from golden: " + fresh.name);
      continue;
    }
    it->second.matched = true;
    const ScenarioMetrics& want = it->second.metrics;
    const auto field_diff = [&](const char* field, double got, double expect) {
      report.diffs.push_back(fresh.name + " " + field + ": got " +
                             format_g(got) + ", golden " + format_g(expect));
    };
    if (!within_rel(fresh.final_loss, want.final_loss, tolerance.loss_rel)) {
      field_diff("loss", fresh.final_loss, want.final_loss);
    }
    if (std::abs(fresh.final_quality - want.final_quality) >
        tolerance.quality_abs) {
      field_diff("quality", fresh.final_quality, want.final_quality);
    }
    if (!within_rel(fresh.mean_selected_fraction, want.mean_selected_fraction,
                    tolerance.fraction_rel)) {
      field_diff("frac", fresh.mean_selected_fraction,
                 want.mean_selected_fraction);
    }
    if (!within_rel(fresh.simulated_wall_seconds, want.simulated_wall_seconds,
                    tolerance.wall_rel)) {
      field_diff("wall", fresh.simulated_wall_seconds,
                 want.simulated_wall_seconds);
    }
    if (!within_rel(static_cast<double>(fresh.wire_bytes),
                    static_cast<double>(want.wire_bytes),
                    tolerance.wire_rel)) {
      field_diff("bytes", static_cast<double>(fresh.wire_bytes),
                 static_cast<double>(want.wire_bytes));
    }
    if (!within_rel(fresh.effective_ratio, want.effective_ratio,
                    tolerance.wire_rel)) {
      field_diff("eff", fresh.effective_ratio, want.effective_ratio);
    }
    if (std::abs(fresh.mean_staleness - want.mean_staleness) >
        tolerance.staleness_abs) {
      field_diff("mean_stale", fresh.mean_staleness, want.mean_staleness);
    }
    // jain < 0 means "not a fleet line"; presence itself must agree.
    if ((fresh.jain >= 0.0) != (want.jain >= 0.0) ||
        (fresh.jain >= 0.0 &&
         std::abs(fresh.jain - want.jain) > tolerance.jain_abs)) {
      field_diff("jain", fresh.jain, want.jain);
    }
    if (histogram_total(fresh.staleness_histogram) !=
        histogram_total(want.staleness_histogram)) {
      field_diff("stale total",
                 static_cast<double>(
                     histogram_total(fresh.staleness_histogram)),
                 static_cast<double>(
                     histogram_total(want.staleness_histogram)));
    }
  }
  for (const auto& [name, cell] : golden) {
    if (!cell.matched) {
      report.diffs.push_back("golden cell not produced: " + name);
    }
  }
  report.ok = report.diffs.empty();
  return report;
}

}  // namespace sidco::dist
