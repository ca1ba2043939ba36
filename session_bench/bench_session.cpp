// Session benchmark: one named workload, seeded from the command line, run
// end to end through dist::run_session on the simulated, threads and sockets
// engines.
//
//   bench_session --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE]
//
// --trace 0 times whole sessions with tracing off and prints the end-to-end
// metrics.  --trace 1 runs the same sessions and, beside them, drives the
// same rounds through each layer's public calls with spans around them,
// prints the per-layer metrics and writes the spans as Chrome trace-event
// JSON.  Every run checks that the three engines agree bit for bit and that
// the traced rounds match the untraced simulated session; a mismatch, an
// exception or a deadline hit counts as a failed session.  The last line of
// stdout is one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {...}}}
// README.md gives the workloads and the map from layers to end-to-end
// metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bench_math.h"
#include "comm/aggregate.h"
#include "comm/codec.h"
#include "core/factory.h"
#include "data/factory.h"
#include "dist/session.h"
#include "dist/session_detail.h"
#include "dist/worker.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/zoo.h"
#include "tensor/sparse.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

// ---------------------------------------------------------------------------
// Heap-allocation counter (dist.step_allocs).  Replacing the global
// allocation functions in this binary observes every allocation; the count
// is per thread so the traced loop reads exactly its own step's allocations.
// ---------------------------------------------------------------------------
namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

// The replacement operator new allocates with std::malloc, so releasing with
// std::free in the replacement deletes below is well matched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sidco::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads.  Closed loop: each lock-step round starts once the previous
// update is applied.  3 workers plus the coordinator or server make one
// participant per core on a 4-vCPU host.
// ---------------------------------------------------------------------------
constexpr std::size_t kWorkers = 3;
/// SIDCo's stage controller re-plans every 5 iterations; the sixth runs on
/// the re-planned stage count, so controller changes show.
constexpr std::size_t kIterations = 6;
/// Session watchdog: a wedged real-engine run fails instead of hanging.
constexpr double kDeadlineSeconds = 60.0;
/// A run's sessions cycle through this many seeds derived from --seed; an
/// untraced run makes at least one repetition per sub-seed.
constexpr std::size_t kSubSeeds = 12;
/// Repetitions a traced run always makes, whatever --seconds says.
constexpr int kMinTracedReps = 2;

struct Workload {
  std::string_view name;
  nn::Benchmark benchmark;
  core::Scheme scheme;
  double target_ratio;
  dist::Topology topology;
};

constexpr Workload kWorkloads[] = {
    // ci.scn / fleet.scn traffic: conv fwd/bwd is ~95% of a step and a push
    // is a few KB, so codec and transport changes must not move it.
    {"resnet20-sidco-allgather", nn::Benchmark::kResNet20,
     core::Scheme::kSidcoExponential, 0.01, dist::Topology::kAllreduce},
    // The paper's no-compression baseline on its most communication-heavy
    // model: 5.59 MB dense pushes to every peer.
    {"vgg19-dense-allgather", nn::Benchmark::kVgg19, core::Scheme::kNone, 1.0,
     dist::Topology::kAllreduce},
    // Same model compressed on the parameter server at staleness 0: sparse
    // pushes, server decode + re-encode of the densified mean, snapshot pulls.
    {"vgg19-sidco-ps", nn::Benchmark::kVgg19, core::Scheme::kSidcoExponential,
     0.01, dist::Topology::kParameterServer},
};

dist::SessionConfig make_config(const Workload& w, std::uint64_t seed,
                                dist::Engine engine) {
  dist::SessionConfig c;
  c.benchmark = w.benchmark;
  c.scheme = w.scheme;
  c.target_ratio = w.target_ratio;
  c.workers = kWorkers;
  c.iterations = kIterations;
  c.eval_every = 0;
  c.seed = seed;
  c.error_feedback = true;
  c.topology = w.topology;
  c.staleness_bound = 0;
  c.engine = engine;
  c.deadline_seconds = kDeadlineSeconds;
  return c;
}

/// SessionConfig::seed of sub-seed `sub` (< kSubSeeds) of run seed `seed`;
/// distinct run seeds get disjoint sets.
std::uint64_t session_seed(std::uint64_t seed, std::size_t sub) {
  return seed * 64 + sub;
}

/// Worker w's private batch-stream seed, as dist::detail::make_worker
/// derives it.  The traced loop's shadow model samples the same stream; the
/// shadow-vs-replica loss check fails loudly if the two derivations drift.
std::uint64_t stream_seed(const dist::SessionConfig& c, std::size_t w) {
  return c.seed * 0x10001ULL + 7919 * w + 1;
}

// ---------------------------------------------------------------------------
// Failure accounting and engine agreement.
// ---------------------------------------------------------------------------
struct Tally {
  int attempted = 0;
  int failed = 0;

  void fail(std::string_view what, std::string_view why) {
    ++failed;
    std::fprintf(stderr, "FAILED %.*s: %.*s\n", static_cast<int>(what.size()),
                 what.data(), static_cast<int>(why.size()), why.data());
  }
};

/// Everything the engines must agree on bit for bit, from one session.  The
/// final parameters are kept as a fingerprint: a run holds one Outcome per
/// sub-seed, and VGG19's vectors would otherwise add 5.6 MB each to
/// peak_rss_mb.
struct Outcome {
  std::size_t parameter_count = 0;
  std::uint64_t parameters = 0;  ///< fingerprint() of the final parameters
  std::vector<double> losses;    ///< per-iteration mean train loss
  double final_loss = 0.0;
  std::size_t wire_bytes = 0;
};

Outcome outcome_of(const dist::SessionResult& r) {
  Outcome o;
  o.parameter_count = r.final_parameters.size();
  o.parameters = fingerprint<float>(r.final_parameters);
  for (const dist::IterationRecord& it : r.iterations) {
    o.losses.push_back(it.train_loss);
  }
  o.final_loss = r.final_loss;
  o.wire_bytes = r.total_wire_bytes;
  return o;
}

/// Empty when `got` matches `ref` bit for bit, else the first difference.
std::string compare(const Outcome& ref, const Outcome& got) {
  if (ref.parameter_count != got.parameter_count ||
      ref.parameters != got.parameters) {
    return "final parameters differ";
  }
  if (!bit_identical<double>(ref.losses, got.losses)) {
    return "per-iteration losses differ";
  }
  if (!bit_identical<double>({&ref.final_loss, 1}, {&got.final_loss, 1})) {
    return "final eval loss differs";
  }
  if (ref.wire_bytes != got.wire_bytes) {
    return "total wire bytes differ (" + std::to_string(ref.wire_bytes) +
           " vs " + std::to_string(got.wire_bytes) + ")";
  }
  return {};
}

// ---------------------------------------------------------------------------
// Spans of the traced run, kept in memory and written once at the end.
// ---------------------------------------------------------------------------
struct Span {
  const char* layer;
  std::size_t rep;
  std::size_t worker;  ///< kWorkers = server / shared accumulator lane
  std::size_t round;
  double start_us;
  double end_us;
  std::size_t bytes;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  /// Records a finished span and returns its duration in milliseconds.
  double add(const char* layer, std::size_t rep, std::size_t worker,
             std::size_t round, double start_us, double end_us,
             std::size_t bytes = 0) {
    spans_.push_back({layer, rep, worker, round, start_us, end_us, bytes});
    return (end_us - start_us) / 1e3;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Worker::step's forward + loss + backward, on the shadow model.  Returns
/// the batch loss so the caller can check the shadow saw the replica's
/// parameters and batch.
double shadow_fwd_bwd(nn::Model& shadow, const nn::BenchmarkSpec& spec,
                      const data::Batch& batch, std::vector<float>& dlogits) {
  shadow.zero_gradients();
  const std::span<const float> logits =
      shadow.forward(batch.inputs, spec.batch_size);
  dlogits.resize(logits.size());
  const nn::LossResult loss = nn::softmax_cross_entropy(
      logits, batch.labels, spec.classes, dlogits);
  shadow.backward(dlogits);
  return loss.loss;
}

/// Per-layer samples pooled over every traced session of a run.
struct LayerSamples {
  std::vector<double> sample_ms, fwd_bwd_ms, eval_ms, compress_ms, stages,
      encode_ms, push_bytes, decode_acc_ms, pull_encode_ms, pull_bytes,
      pull_ms, step_ms, step_self_ms, step_allocs, apply_ms, round_ms,
      coverage_pct;
};

/// Drives one session's rounds through the layers' public calls, in the
/// order run_allreduce / run_parameter_server make them, with a span around
/// each call.  A shadow model holding the replica's parameters runs the same
/// batch around each step so forward/backward can be timed apart from
/// Worker::step.
Outcome run_traced(const dist::SessionConfig& config, std::size_t rep,
                   Tracer& tracer, LayerSamples& s) {
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(config.benchmark);
  const std::size_t n = config.workers;
  const bool ps = config.topology == dist::Topology::kParameterServer;
  const std::size_t server = n;

  std::vector<std::unique_ptr<dist::Worker>> workers =
      dist::detail::make_workers(config);
  const std::size_t dim = workers.front()->gradient_dimension();

  nn::Model shadow = nn::make_model(config.benchmark, config.seed);
  const std::unique_ptr<data::Dataset> dataset =
      data::make_dataset(config.benchmark, config.seed ^ 0xd474ULL);
  std::vector<util::Rng> streams;
  for (std::size_t w = 0; w < n; ++w) streams.emplace_back(stream_seed(config, w));
  std::vector<float> dlogits;
  std::vector<std::uint8_t> reencoded;

  comm::SparseAccumulator accumulator;
  std::vector<dist::WorkerStepResult> steps(n);
  const auto agg_scale = static_cast<float>(1.0 / static_cast<double>(n));

  // Parameter-server state, exactly as run_parameter_server keeps it.
  std::vector<float> server_params;
  nn::SgdOptimizer server_optimizer(spec.optimizer);
  tensor::SparseGradient pull_scratch;
  std::vector<std::uint8_t> pull_encoded;
  std::size_t last_pull_bytes = 0;
  if (ps) {
    const std::span<const float> init = workers.front()->parameters();
    server_params.assign(init.begin(), init.end());
  }

  Outcome out;
  for (std::size_t r = 0; r < config.iterations; ++r) {
    const double round_start = tracer.now_us();
    double covered_ms = 0.0;
    double loss_sum = 0.0;
    for (std::size_t w = 0; w < n; ++w) {
      dist::Worker& worker = *workers[w];
      if (ps && r > 0) {
        // Staleness 0: every round starts from a pull of the server copy.
        const double t0 = tracer.now_us();
        worker.overwrite_parameters(server_params);
        const double ms = tracer.add("dist.pull", rep, w, r, t0,
                                     tracer.now_us(), last_pull_bytes);
        s.pull_ms.push_back(ms);
        covered_ms += ms;
      }

      const double c0 = tracer.now_us();
      std::copy(worker.parameters().begin(), worker.parameters().end(),
                shadow.parameters().begin());
      covered_ms += tracer.add("trace.shadow_copy", rep, w, r, c0,
                               tracer.now_us());

      const double t0 = tracer.now_us();
      const data::Batch batch = dataset->sample(spec.batch_size, streams[w]);
      const double t1 = tracer.now_us();
      const double loss_before = shadow_fwd_bwd(shadow, spec, batch, dlogits);
      const double t2 = tracer.now_us();

      const std::uint64_t allocs_before = t_allocations;
      steps[w] = worker.step(spec.batch_size);
      const std::uint64_t allocs = t_allocations - allocs_before;
      const double t3 = tracer.now_us();

      // The shadow runs once before and once after the step; their mean
      // brackets the replica's own pass, so cache warmth and clock drift
      // across the step cancel instead of biasing dist.step_self_ms.
      const double loss_after = shadow_fwd_bwd(shadow, spec, batch, dlogits);
      const double t4 = tracer.now_us();

      comm::encode_gradient(steps[w].sparse, comm::ValueMode::kFp32,
                            reencoded);
      const double t5 = tracer.now_us();

      const dist::WorkerStepResult& step = steps[w];
      if (!bit_identical<double>({&loss_before, 1}, {&step.train_loss, 1}) ||
          !bit_identical<double>({&loss_after, 1}, {&step.train_loss, 1})) {
        throw std::runtime_error(
            "shadow model loss differs from the replica's: the shadow does not "
            "see the replica's parameters or batch");
      }
      if (reencoded != step.encoded) {
        throw std::runtime_error("re-encoded push differs from the step's");
      }

      const double sample = tracer.add("data.sample", rep, w, r, t0, t1);
      const double before = tracer.add("nn.fwd_bwd", rep, w, r, t1, t2);
      const double step_ms =
          tracer.add("dist.step", rep, w, r, t2, t3, step.wire_bytes);
      const double after = tracer.add("nn.fwd_bwd", rep, w, r, t3, t4);
      const double encode =
          tracer.add("comm.encode", rep, w, r, t4, t5, reencoded.size());
      const double fwd_bwd = (before + after) / 2.0;
      const double compress = step.measured_compression_seconds * 1e3;
      covered_ms += sample + before + step_ms + after + encode;

      s.sample_ms.push_back(sample);
      s.fwd_bwd_ms.push_back(fwd_bwd);
      s.step_ms.push_back(step_ms);
      s.encode_ms.push_back(encode);
      s.compress_ms.push_back(compress);
      s.stages.push_back(step.stages_used);
      s.push_bytes.push_back(static_cast<double>(step.wire_bytes));
      // The step's own batch sample stays in its self time: the shadow's
      // sample of the same batch warms the dataset for it, so subtracting
      // the shadow's would over-count.
      const double children[] = {fwd_bwd, compress, encode};
      s.step_self_ms.push_back(self_time(step_ms, children));
      // Round 0 grows every reused buffer; later steps are steady state.
      if (r > 0) s.step_allocs.push_back(static_cast<double>(allocs));

      loss_sum += step.train_loss;
      if (n > 1) out.wire_bytes += step.wire_bytes;
    }

    accumulator.reset(dim);
    for (std::size_t w = 0; w < n; ++w) {
      const double t0 = tracer.now_us();
      accumulator.accumulate_encoded(steps[w].encoded, agg_scale);
      const double ms = tracer.add("comm.decode_acc", rep, server, r, t0,
                                   tracer.now_us(), steps[w].encoded.size());
      s.decode_acc_ms.push_back(ms);
      covered_ms += ms;
    }

    if (ps) {
      const double t0 = tracer.now_us();
      last_pull_bytes = comm::encode_dense_or_sparse(
          accumulator.dense(), comm::ValueMode::kFp32, pull_scratch,
          pull_encoded);
      const double t1 = tracer.now_us();
      server_optimizer.step(server_params, accumulator.dense());
      const double t2 = tracer.now_us();
      const double encode_ms = tracer.add("comm.pull_encode", rep, server, r,
                                          t0, t1, last_pull_bytes);
      const double apply_ms = tracer.add("dist.apply", rep, server, r, t1, t2);
      s.pull_encode_ms.push_back(encode_ms);
      s.pull_bytes.push_back(static_cast<double>(last_pull_bytes));
      s.apply_ms.push_back(apply_ms);
      covered_ms += encode_ms + apply_ms;
      // Every worker pulls this round's mean before the next round.
      if (n > 1 && r + 1 < config.iterations) {
        out.wire_bytes += n * last_pull_bytes;
      }
    } else {
      for (std::size_t w = 0; w < n; ++w) {
        const double t0 = tracer.now_us();
        workers[w]->apply_update(accumulator.dense());
        const double ms =
            tracer.add("dist.apply", rep, w, r, t0, tracer.now_us());
        s.apply_ms.push_back(ms);
        covered_ms += ms;
      }
    }

    const double round_end = tracer.now_us();
    const double round_ms =
        tracer.add("dist.round", rep, server + 1, r, round_start, round_end);
    s.round_ms.push_back(round_ms);
    s.coverage_pct.push_back(100.0 * covered_ms / round_ms);
    out.losses.push_back(loss_sum / static_cast<double>(n));
  }

  // Final evaluation, on worker 0's replica or the server's evaluation head.
  const std::size_t eval_batch = std::max<std::size_t>(spec.batch_size, 1);
  std::optional<dist::Worker> eval_head;
  if (ps) {
    eval_head.emplace(config.benchmark, config.seed,
                      dist::detail::eval_head_stream_seed(config),
                      core::Scheme::kNone, 1.0, false);
    eval_head->overwrite_parameters(server_params);
  }
  dist::Worker& evaluator = ps ? *eval_head : *workers.front();
  const double t0 = tracer.now_us();
  const nn::LossResult eval = evaluator.evaluate(eval_batch, config.eval_batches);
  s.eval_ms.push_back(tracer.add("nn.eval", rep, ps ? server : 0,
                                 config.iterations, t0, tracer.now_us()));

  out.final_loss = eval.loss;
  const std::span<const float> params =
      ps ? std::span<const float>(server_params) : workers.front()->parameters();
  out.parameter_count = params.size();
  out.parameters = fingerprint(params);
  return out;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------
std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class Metrics {
 public:
  void add(std::string_view name, double value, std::string_view unit) {
    if (!valid_metric_name(name) || !valid_unit(unit)) {
      throw std::logic_error("bad metric name or unit: " + std::string(name));
    }
    entries_.push_back({std::string(name), value, std::string(unit)});
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i > 0) out += ", ";
      out += json_string(e.name) + ": {\"value\": " + number(e.value) +
             ", \"unit\": " + json_string(e.unit) + "}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

void write_chrome_trace(const std::string& path, const std::string& facts,
                        std::string_view workload,
                        const std::vector<Span>& spans) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  f << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << facts
    << ", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    const char* dot = std::strchr(sp.layer, '.');
    const std::string category =
        dot != nullptr ? std::string(sp.layer, dot) : std::string(sp.layer);
    f << (i > 0 ? ",\n" : "") << "{\"name\": \"" << sp.layer
      << "\", \"cat\": \"" << category << "\", \"ph\": \"X\", \"ts\": "
      << number(sp.start_us) << ", \"dur\": " << number(sp.end_us - sp.start_us)
      << ", \"pid\": " << sp.rep << ", \"tid\": " << sp.worker
      << ", \"args\": {\"engine\": \"simulated\", \"workload\": \""
      << workload << "\", \"worker\": " << sp.worker
      << ", \"round\": " << sp.round << ", \"bytes\": " << sp.bytes << "}}";
  }
  f << "\n]}\n";
  if (!f.flush()) throw std::runtime_error("cannot write trace file " + path);
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------
struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_session: %s\nusage: bench_session --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "workloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(key));
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value);
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown option " + std::string(key));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(key) + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// Timing is meaningless from an unoptimized or instrumented binary.
std::string build_refusal() {
  const std::string_view type = SIDCO_BENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    return "build type '" + std::string(type) + "' is not Release/RelWithDebInfo";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  return {};
}

struct EngineSamples {
  std::vector<double> wall_s, compute_s, comm_s;
};

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) usage("unknown workload " + args.workload);
  if (const std::string refusal = build_refusal(); !refusal.empty()) {
    std::fprintf(stderr, "bench_session: refusing to time: %s\n",
                 refusal.c_str());
    return 2;
  }

  const std::string facts =
      "{\"workload\": " + json_string(workload->name) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"simd\": " + json_string(util::simd::name(util::simd::active())) +
      ", \"kernel_pool_width\": " +
      std::to_string(util::ThreadPool::instance().threads()) +
      ", \"build_type\": " + json_string(SIDCO_BENCH_BUILD_TYPE) +
      ", \"workers\": " + std::to_string(kWorkers) +
      ", \"iterations\": " + std::to_string(kIterations) +
      ", \"sub_seeds\": " + std::to_string(kSubSeeds) + "}";
  std::printf("facts: %s\n", facts.c_str());
  std::fflush(stdout);

  const bool traced = args.trace == 1;
  const dist::Engine engines[] = {dist::Engine::kSimulated,
                                  dist::Engine::kThreads,
                                  dist::Engine::kSockets};
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(workload->benchmark);
  const double samples_per_session =
      static_cast<double>(kWorkers * spec.batch_size * kIterations);

  Tally tally;
  const Clock::time_point start = Clock::now();

  std::vector<double> setup_s;
  std::map<dist::Engine, EngineSamples> per_engine;
  std::vector<double> sockets_over_threads, trace_overhead;
  // Per sub-seed: the first session's outcome, which every later session of
  // that sub-seed (any engine, traced or not) must reproduce bit for bit,
  // and the simulated engine's modeled seconds per iteration.
  std::map<std::size_t, Outcome> reference;
  std::map<std::size_t, double> modeled_iter_s;
  Tracer tracer(start);
  LayerSamples layers;

  const int min_reps = traced ? kMinTracedReps : static_cast<int>(kSubSeeds);
  double longest_rep = 0.0;
  for (std::size_t rep = 0;; ++rep) {
    const Clock::time_point rep_start = Clock::now();
    const std::size_t sub = rep % kSubSeeds;
    const std::uint64_t seed = session_seed(args.seed, sub);
    // Alternate the engine order so slow host drift within a run lands on
    // every engine alike.
    std::vector<dist::Engine> order(std::begin(engines), std::end(engines));
    if (rep % 2 == 1) std::reverse(order.begin(), order.end());

    // Checks `got` against the sub-seed's reference; false on a mismatch.
    const auto agrees = [&](const std::string& what, const Outcome& got) {
      const auto [it, first] = reference.emplace(sub, got);
      if (first) return true;
      const std::string diff = compare(it->second, got);
      if (!diff.empty()) tally.fail(what, diff);
      return diff.empty();
    };

    // setup_s: constructing the workload's replicas, as every engine does
    // before step 1; one sample per repetition spreads them over the run.
    {
      const dist::SessionConfig c =
          make_config(*workload, seed, dist::Engine::kSimulated);
      const Clock::time_point t0 = Clock::now();
      const auto replicas = dist::detail::make_workers(c);
      setup_s.push_back(seconds_since(t0));
    }

    std::map<dist::Engine, double> wall;
    for (const dist::Engine engine : order) {
      const std::string what = std::string(dist::engine_name(engine)) +
                               " session, rep " + std::to_string(rep);
      ++tally.attempted;
      try {
        const dist::SessionConfig c = make_config(*workload, seed, engine);
        const Clock::time_point t0 = Clock::now();
        const dist::SessionResult result = dist::run_session(c);
        const double seconds = seconds_since(t0);
        if (!agrees(what, outcome_of(result))) continue;
        if (engine == dist::Engine::kSimulated) {
          modeled_iter_s[sub] = result.total_modeled_seconds /
                                static_cast<double>(result.iterations.size());
        }
        wall[engine] = seconds;
        EngineSamples& e = per_engine[engine];
        e.wall_s.push_back(seconds);
        e.compute_s.push_back(result.measured_compute_seconds /
                              static_cast<double>(kIterations));
        e.comm_s.push_back(result.measured_comm_seconds /
                           static_cast<double>(kIterations));
      } catch (const std::exception& e) {
        tally.fail(what, e.what());
      }
    }
    if (wall.count(dist::Engine::kThreads) && wall.count(dist::Engine::kSockets)) {
      sockets_over_threads.push_back(wall[dist::Engine::kSockets] /
                                     wall[dist::Engine::kThreads]);
    }

    if (traced) {
      const std::string what = "traced session, rep " + std::to_string(rep);
      ++tally.attempted;
      try {
        const dist::SessionConfig c =
            make_config(*workload, seed, dist::Engine::kSimulated);
        const Clock::time_point t0 = Clock::now();
        const Outcome got = run_traced(c, rep, tracer, layers);
        const double seconds = seconds_since(t0);
        if (agrees(what, got) && wall.count(dist::Engine::kSimulated)) {
          trace_overhead.push_back(seconds / wall[dist::Engine::kSimulated]);
        }
      } catch (const std::exception& e) {
        tally.fail(what, e.what());
      }
    }

    const double rep_seconds = seconds_since(rep_start);
    longest_rep = std::max(longest_rep, rep_seconds);
    std::fprintf(stderr,
                 "rep %zu (seed %llu): %.2f s (sim %.3f, threads %.3f, "
                 "sockets %.3f)\n",
                 rep, static_cast<unsigned long long>(seed), rep_seconds,
                 wall[dist::Engine::kSimulated], wall[dist::Engine::kThreads],
                 wall[dist::Engine::kSockets]);
    const bool enough = static_cast<int>(rep + 1) >= min_reps;
    if (enough && seconds_since(start) + longest_rep > args.seconds) break;
  }

  Metrics m;
  const auto engine_median = [&](dist::Engine e,
                                 std::vector<double> EngineSamples::*field) {
    const auto it = per_engine.find(e);
    return it == per_engine.end() ? 0.0 : median(it->second.*field);
  };
  const auto throughput = [&](dist::Engine e) {
    const double wall = engine_median(e, &EngineSamples::wall_s);
    return wall > 0.0 ? samples_per_session / wall : 0.0;
  };
  // The seed-determined metrics average over the sub-seeds: one seed's SIDCo
  // traffic alone varies several-fold from seed to seed.
  const auto over_sub_seeds = [&](auto&& value) {
    std::vector<double> v;
    for (const auto& [sub, outcome] : reference) v.push_back(value(sub, outcome));
    return mean(v);
  };

  if (!traced) {
    m.add("threads_samples_per_s", throughput(dist::Engine::kThreads),
          "samples/s");
    m.add("sockets_samples_per_s", throughput(dist::Engine::kSockets),
          "samples/s");
    m.add("setup_s", median(setup_s), "s");
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    m.add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB");
    m.add("final_loss",
          over_sub_seeds([](std::size_t, const Outcome& o) {
            return o.final_loss;
          }),
          "nats");
    m.add("wire_mb_per_iter",
          over_sub_seeds([](std::size_t, const Outcome& o) {
            return static_cast<double>(o.wire_bytes) / 1e6 /
                   static_cast<double>(kIterations);
          }),
          "MB");
    m.add("modeled_iter_s",
          over_sub_seeds([&](std::size_t sub, const Outcome&) {
            const auto it = modeled_iter_s.find(sub);
            return it == modeled_iter_s.end() ? 0.0 : it->second;
          }),
          "modeled_s");
  } else {
    const Tail tail = tail_percentile(layers.round_ms);
    m.add("data.sample_ms", median(layers.sample_ms), "ms");
    m.add("nn.fwd_bwd_ms", median(layers.fwd_bwd_ms), "ms");
    m.add("nn.eval_ms", median(layers.eval_ms), "ms");
    m.add("compressors.compress_ms", median(layers.compress_ms), "ms");
    m.add("compressors.stages", mean(layers.stages), "stages");
    m.add("comm.encode_ms", median(layers.encode_ms), "ms");
    m.add("comm.push_bytes", median(layers.push_bytes), "bytes");
    m.add("comm.decode_acc_ms", median(layers.decode_acc_ms), "ms");
    m.add("comm.pull_encode_ms", median(layers.pull_encode_ms), "ms");
    m.add("comm.pull_bytes", median(layers.pull_bytes), "bytes");
    m.add("dist.step_ms", median(layers.step_ms), "ms");
    m.add("dist.step_self_ms", median(layers.step_self_ms), "ms");
    m.add("dist.step_allocs", median(layers.step_allocs), "count");
    m.add("dist.apply_ms", median(layers.apply_ms), "ms");
    m.add("dist.pull_ms", median(layers.pull_ms), "ms");
    m.add("dist.round_ms_p50", median(layers.round_ms), "ms");
    m.add("dist.round_ms_tail", tail.value, "ms");
    m.add("dist.round_tail_pct", tail.percentile, "%");
    m.add("dist.rounds", static_cast<double>(tail.samples), "count");
    // The simulated engine runs every worker on one thread, whose speed on a
    // shared host swings ~1.6x between sessions (README.md, "Host drift"),
    // so its throughput is reported here, unbounded, not end to end.
    m.add("dist.sim_samples_per_s", throughput(dist::Engine::kSimulated),
          "samples/s");
    m.add("runtime.threads_compute_s",
          engine_median(dist::Engine::kThreads, &EngineSamples::compute_s), "s");
    m.add("runtime.threads_comm_s",
          engine_median(dist::Engine::kThreads, &EngineSamples::comm_s), "s");
    m.add("runtime.sockets_compute_s",
          engine_median(dist::Engine::kSockets, &EngineSamples::compute_s), "s");
    m.add("runtime.sockets_comm_s",
          engine_median(dist::Engine::kSockets, &EngineSamples::comm_s), "s");
    m.add("runtime.sockets_over_threads", median(sockets_over_threads),
          "ratio");
    m.add("trace.overhead", median(trace_overhead), "ratio");
    m.add("trace.coverage_min_pct",
          layers.coverage_pct.empty()
              ? 0.0
              : *std::min_element(layers.coverage_pct.begin(),
                                  layers.coverage_pct.end()),
          "%");
    if (!args.trace_out.empty()) {
      write_chrome_trace(args.trace_out, facts, workload->name,
                         tracer.spans());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": %s}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed, m.json().c_str());
  return 0;
}

}  // namespace
}  // namespace sidco::bench

int main(int argc, char** argv) {
  try {
    return sidco::bench::run(sidco::bench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_session: %s\n", e.what());
    return 1;
  }
}
