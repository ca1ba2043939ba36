#include "dist/session.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "comm/aggregate.h"
#include "comm/codec.h"
#include "dist/event_sim.h"
#include "dist/session_detail.h"
#include "dist/worker.h"
#include "nn/optimizer.h"
#include "runtime/process_session.h"
#include "runtime/threaded_session.h"
#include "tensor/sparse.h"
#include "util/check.h"

namespace sidco::dist {

std::string_view topology_name(Topology topology) {
  switch (topology) {
    case Topology::kAllreduce: return "allgather";
    case Topology::kParameterServer: return "ps";
  }
  return "unknown";
}

std::string_view engine_name(Engine engine) {
  switch (engine) {
    case Engine::kSimulated: return "simulated";
    case Engine::kThreads: return "threads";
    case Engine::kSockets: return "sockets";
  }
  return "unknown";
}

QualityMetric benchmark_quality(nn::Benchmark benchmark, double mean_loss,
                                double accuracy) {
  switch (benchmark) {
    case nn::Benchmark::kLstmPtb:
      return {.value = std::exp(mean_loss), .higher_is_better = false};
    case nn::Benchmark::kLstmAn4:
      return {.value = 1.0 - accuracy, .higher_is_better = false};
    default:
      return {.value = accuracy, .higher_is_better = true};
  }
}

double SessionResult::mean_staleness() const {
  double total = 0.0;
  double weighted = 0.0;
  for (std::size_t s = 0; s < staleness_histogram.size(); ++s) {
    total += static_cast<double>(staleness_histogram[s]);
    weighted += static_cast<double>(s) *
                static_cast<double>(staleness_histogram[s]);
  }
  return total > 0.0 ? weighted / total : 0.0;
}

std::size_t SessionResult::max_staleness() const {
  for (std::size_t s = staleness_histogram.size(); s > 0; --s) {
    if (staleness_histogram[s - 1] > 0) return s - 1;
  }
  return 0;
}

double SessionResult::effective_wire_ratio() const {
  return total_dense_equiv_bytes == 0
             ? 0.0
             : static_cast<double>(total_wire_bytes) /
                   static_cast<double>(total_dense_equiv_bytes);
}

double SessionResult::throughput_samples_per_second() const {
  if (total_modeled_seconds <= 0.0 || iterations.empty()) return 0.0;
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(config.benchmark);
  const double samples = static_cast<double>(config.workers) *
                         static_cast<double>(spec.batch_size) *
                         static_cast<double>(iterations.size());
  return samples / total_modeled_seconds;
}

std::vector<double> SessionResult::loss_series() const {
  std::vector<double> out;
  out.reserve(iterations.size());
  for (const IterationRecord& it : iterations) out.push_back(it.train_loss);
  return out;
}

std::vector<double> SessionResult::achieved_ratio_series() const {
  std::vector<double> out;
  out.reserve(iterations.size());
  for (const IterationRecord& it : iterations) {
    out.push_back(it.achieved_ratio);
  }
  return out;
}

namespace detail {

void validate_config(const SessionConfig& config) {
  util::check(config.workers >= 1, "session needs >= 1 worker");
  util::check(config.iterations >= 1, "session needs >= 1 iteration");
  util::check(config.target_ratio > 0.0 && config.target_ratio <= 1.0,
              "target ratio must be in (0, 1]");
  util::check(config.eval_batches >= 1, "session needs >= 1 eval batch");
  util::check(config.overlap_chunks >= 1, "session needs >= 1 overlap chunk");
  util::check(config.channel_capacity >= 1,
              "session needs >= 1 channel capacity slot");
  util::check(config.worker_time_scale.empty() ||
                  config.worker_time_scale.size() == config.workers,
              "worker_time_scale must be empty or one entry per worker");
  for (double s : config.worker_time_scale) {
    util::check(s > 0.0, "worker time scale must be positive");
  }

  const FaultInjectionConfig& f = config.fault;
  const double probs[] = {f.drop, f.delay, f.duplicate, f.reorder, f.corrupt};
  double prob_sum = 0.0;
  for (double p : probs) {
    util::check(p >= 0.0 && p <= 1.0,
                "fault probabilities must be in [0, 1]");
    prob_sum += p;
  }
  util::check(prob_sum <= 1.0,
              "fault probabilities must sum to <= 1 (one fault per message)");
  util::check(f.delay_slots >= 1, "fault delay_slots must be >= 1");
  util::check(f.partition_worker == FaultInjectionConfig::kNone ||
                  f.partition_worker < config.workers,
              "fault partition_worker out of range");
  util::check(f.kill_worker == FaultInjectionConfig::kNone ||
                  f.kill_worker < config.workers,
              "fault kill_worker out of range");
  util::check((f.cut_from == FaultInjectionConfig::kNone) ==
                  (f.cut_to == FaultInjectionConfig::kNone),
              "fault cut_from and cut_to must be set together");
  if (f.cut_from != FaultInjectionConfig::kNone) {
    util::check(f.cut_from <= config.workers && f.cut_to <= config.workers &&
                    f.cut_from != f.cut_to,
                "fault cut link endpoints out of range");
  }
  if (config.engine == Engine::kSimulated) {
    util::check(!f.any() && !config.reliability.enabled,
                "fault injection / reliable delivery require a real engine "
                "(threads or sockets)");
  }
  if (f.kill_worker != FaultInjectionConfig::kNone ||
      f.cut_from != FaultInjectionConfig::kNone) {
    util::check(config.engine == Engine::kSockets,
                "process-kill and link-cut faults require the sockets engine");
  }
  if (config.on_worker_failure == FailurePolicy::kEvict) {
    util::check(config.topology == Topology::kParameterServer,
                "worker eviction requires the parameter-server topology");
    util::check(config.reliability.enabled,
                "worker eviction requires reliability.enabled (eviction "
                "needs confirmed death, not a guess)");
  }
  util::check(config.reliability.max_retries >= 1,
              "reliability.max_retries must be >= 1");
  util::check(config.reliability.window >= 1,
              "reliability.window must be >= 1");
  util::check(config.reliability.backoff_initial_ms > 0.0 &&
                  config.reliability.backoff_max_ms >=
                      config.reliability.backoff_initial_ms,
              "reliability backoff must be positive and max >= initial");
  util::check(config.reliability.silence_timeout_seconds > 0.0 &&
                  config.reliability.heartbeat_interval_seconds > 0.0,
              "reliability timeouts must be positive");
  util::check(config.deadline_seconds >= 0.0,
              "deadline_seconds must be >= 0");

  // Autotune bounds: validate up front so a bad matrix cell fails before
  // training starts.  validate_autotune_config keeps max_ratio < 1, which
  // also satisfies SidcoCompressor's stricter (0, 1) retune domain.
  core::validate_autotune_config(config.autotune);
}

// Identical replicas with private streams; the seed derivation is shared by
// every driver (and frozen: run_session_reference depends on it).
std::unique_ptr<Worker> make_worker(const SessionConfig& config,
                                    std::size_t w,
                                    std::span<const float> initial) {
  auto worker = std::make_unique<Worker>(
      config.benchmark, config.seed, config.seed * 0x10001ULL + 7919 * w + 1,
      config.scheme, config.target_ratio, config.error_feedback, initial);
  if (config.autotune.enabled() && config.scheme != core::Scheme::kNone) {
    // Every engine builds its workers through here, so arming the controller
    // at construction — with the same deterministic pricing models the
    // session's timing uses — keeps autotuned runs bit-identical across
    // engines for free: decisions depend only on the worker's own numerics.
    const TimingContext t = make_timing(config, worker->gradient_dimension());
    worker->enable_autotune(
        config.autotune,
        WorkerAutotuneModel{
            .network = t.network,
            .device = t.device,
            .scheme = config.scheme,
            .collective = config.topology == Topology::kAllreduce,
            .timing_dim = t.timing_dim,
            .base_compute = t.base_compute,
            .scale = worker_scale(config, w)});
  }
  return worker;
}

std::vector<std::unique_ptr<Worker>> make_workers(
    const SessionConfig& config) {
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(config.workers);
  for (std::size_t w = 0; w < config.workers; ++w) {
    // Worker 0 draws the session's model; the rest copy its parameters.
    workers.push_back(make_worker(
        config, w,
        w == 0 ? std::span<const float>() : workers.front()->parameters()));
  }
  return workers;
}

double worker_scale(const SessionConfig& config, std::size_t w) {
  return config.worker_time_scale.empty() ? 1.0
                                          : config.worker_time_scale[w];
}

// Scales a measured proxy-dimension payload size to the timing dimension
// (headers and per-element costs scale linearly — a conservative model of
// re-encoding the same density at paper scale).
std::size_t payload_timing_bytes(std::size_t measured_bytes, std::size_t dim,
                                 std::size_t timing_dim) {
  if (timing_dim == dim) return measured_bytes;
  const double scaled = static_cast<double>(measured_bytes) *
                        static_cast<double>(timing_dim) /
                        static_cast<double>(dim);
  return static_cast<std::size_t>(std::ceil(std::max(scaled, 1.0)));
}

// Mean measured push-payload bytes per worker this iteration, scaled to the
// timing dimension.  Shared verbatim by every engine and the frozen
// reference loop — their timing bit-identity contract rests on running the
// exact same arithmetic here.
std::size_t mean_push_timing_bytes(std::span<const StepScalars> steps,
                                   std::size_t dim, std::size_t timing_dim) {
  double sum = 0.0;
  for (const StepScalars& s : steps) {
    sum += static_cast<double>(s.wire_bytes);
  }
  const double mean = sum / static_cast<double>(steps.size());
  const double scaled =
      mean * static_cast<double>(timing_dim) / static_cast<double>(dim);
  return static_cast<std::size_t>(std::ceil(std::max(scaled, 1.0)));
}

std::size_t mean_push_timing_bytes(const std::vector<WorkerStepResult>& steps,
                                   std::size_t dim, std::size_t timing_dim) {
  // One double-precision sum in worker order, exactly as the span overload:
  // the two call paths must stay bit-identical (and allocation-free — this
  // sits on every session iteration).
  double sum = 0.0;
  for (const WorkerStepResult& s : steps) {
    sum += static_cast<double>(s.wire_bytes);
  }
  const double mean = sum / static_cast<double>(steps.size());
  const double scaled =
      mean * static_cast<double>(timing_dim) / static_cast<double>(dim);
  return static_cast<std::size_t>(std::ceil(std::max(scaled, 1.0)));
}

/// Modeled allreduce seconds of the uncompressed wire payload (a dense fp32
/// comm-codec message at the proxy dimension, scaled to timing_dim) — the
/// anchor from which compute time is pinned so that for the uncompressed run
/// comm / (comm + compute) reproduces the benchmark's measured communication
/// overhead by construction.  Every uncompressed worker push serializes to
/// exactly this payload, so the identity is exact, headers included.
double dense_payload_comm_seconds(const NetworkModel& network, std::size_t dim,
                                  std::size_t timing_dim) {
  return network.dense_allreduce_seconds(payload_timing_bytes(
      comm::encoded_dense_bytes(dim, comm::ValueMode::kFp32), dim,
      timing_dim));
}

TimingContext make_timing(const SessionConfig& config, std::size_t dim) {
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(config.benchmark);
  NetworkConfig net_config = config.network;
  net_config.workers = config.workers;
  TimingContext t{.network = NetworkModel(net_config),
                  .device = DeviceModel(config.device),
                  .dim = dim,
                  .timing_dim =
                      config.paper_scale_timing ? spec.paper_parameters : dim};
  t.dense_comm = dense_payload_comm_seconds(t.network, dim, t.timing_dim);
  const double overhead = spec.comm_overhead;
  util::check(overhead > 0.0 && overhead < 1.0,
              "benchmark comm overhead must be in (0, 1)");
  t.base_compute = t.dense_comm * (1.0 - overhead) / overhead;
  return t;
}

// Per-iteration compression seconds shared across workers (legacy
// semantics: analytic model at the worst-case stage count, measured-CPU
// latency averaged over workers).
double common_compression_seconds(const SessionConfig& config,
                                  const TimingContext& t, int max_stages,
                                  double mean_measured) {
  if (config.scheme == core::Scheme::kNone) return 0.0;
  return config.device == Device::kCpuMeasured
             ? t.device.compression_seconds(config.scheme, t.timing_dim,
                                            config.target_ratio, mean_measured,
                                            t.dim)
             : t.device.gpu_seconds(config.scheme, t.timing_dim,
                                    config.target_ratio, max_stages);
}

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

IterationRecord collective_iteration_record(const SessionConfig& config,
                                            const TimingContext& timing,
                                            std::span<const StepScalars> steps,
                                            std::span<double> produce) {
  const std::size_t n = steps.size();
  const bool wired = n > 1;
  const std::size_t dim = timing.dim;
  const std::size_t chunks = config.overlap_chunks;

  IterationRecord record;
  double nnz = 0.0;
  double measured = 0.0;
  int stages = 1;
  double max_scale = 0.0;
  for (std::size_t w = 0; w < n; ++w) {
    record.train_loss += steps[w].train_loss;
    record.train_accuracy += steps[w].train_accuracy;
    nnz += static_cast<double>(steps[w].nnz);
    measured += steps[w].measured_compression;
    stages = std::max(stages, steps[w].stages_used);
    max_scale = std::max(max_scale, worker_scale(config, w));
    if (wired) record.wire_bytes += steps[w].wire_bytes;
  }
  const auto nd = static_cast<double>(n);
  record.train_loss /= nd;
  record.train_accuracy /= nd;
  nnz /= nd;
  measured /= nd;
  record.achieved_ratio = nnz / static_cast<double>(dim);
  record.stages_used = stages;

  const double compression =
      common_compression_seconds(config, timing, stages, measured);
  const std::size_t total_bytes =
      mean_push_timing_bytes(steps, dim, timing.timing_dim);
  const std::size_t chunk_bytes = ceil_div(total_bytes, chunks);
  const double chunk_comm =
      config.scheme == core::Scheme::kNone
          ? timing.network.dense_allreduce_seconds(chunk_bytes)
          : timing.network.sparse_allgather_seconds(chunk_bytes);
  for (std::size_t w = 0; w < n; ++w) {
    produce[w] =
        worker_scale(config, w) * (timing.base_compute + compression);
  }
  record.compute_seconds = max_scale * timing.base_compute;
  record.compression_seconds = max_scale * compression;
  record.communication_seconds = static_cast<double>(chunks) * chunk_comm;
  record.modeled_wall_seconds =
      overlapped_iteration_seconds(produce, chunks, chunk_comm);
  return record;
}

void finalize_result(SessionResult& result) {
  const EvalRecord& final_eval = result.evals.back();
  const QualityMetric quality = benchmark_quality(
      result.config.benchmark, final_eval.loss, final_eval.accuracy);
  result.final_loss = final_eval.loss;
  result.final_quality = quality.value;
  result.quality_higher_is_better = quality.higher_is_better;
}

void ps_round_record(const SessionConfig& config, const TimingContext& timing,
                     std::span<const PsPartScalars> parts,
                     IterationRecord& record,
                     std::vector<std::size_t>& staleness_histogram) {
  const std::size_t n = parts.size();
  const bool wired = n > 1;
  double nnz = 0.0;
  double max_compression = 0.0;
  int stages = 1;
  double max_scale = 0.0;
  for (std::size_t w = 0; w < n; ++w) {
    const PsPartScalars& p = parts[w];
    record.train_loss += p.train_loss;
    record.train_accuracy += p.train_accuracy;
    nnz += static_cast<double>(p.nnz);
    max_compression = std::max(max_compression, p.compression_seconds);
    stages = std::max(stages, p.stages_used);
    staleness_histogram[p.staleness] += 1;
    max_scale = std::max(max_scale, worker_scale(config, w));
    if (wired) record.wire_bytes += p.wire_bytes;
  }
  const auto nd = static_cast<double>(n);
  record.train_loss /= nd;
  record.train_accuracy /= nd;
  record.achieved_ratio = nnz / nd / static_cast<double>(timing.dim);
  record.stages_used = stages;
  record.compute_seconds = max_scale * timing.base_compute;
  record.compression_seconds = max_compression;
}

std::size_t PsApplyState::apply_round_mean(
    std::span<const std::span<const std::uint8_t>> payloads,
    std::size_t dense_dim, nn::SgdOptimizer& optimizer,
    std::span<float> server_params) {
  // Accumulate over the decoded wire payloads, in worker order —
  // bit-identical to the dense reference mean of the decoded gradients.
  accumulator.reset(dense_dim);
  const auto agg_scale =
      static_cast<float>(1.0 / static_cast<double>(payloads.size()));
  for (const std::span<const std::uint8_t> payload : payloads) {
    accumulator.accumulate_encoded(payload, agg_scale);
  }
  const std::span<const float> mean = accumulator.dense();

  // Serialize the round's mean update as it would be pulled: the union of
  // worker supports densifies, and the measured payload — not an analytic
  // nnz estimate — is what pulls pay for.
  const std::size_t pull_bytes = comm::encode_dense_or_sparse(
      mean, comm::ValueMode::kFp32, update_scratch, update_encoded);

  optimizer.step(server_params, mean);
  return pull_bytes;
}

}  // namespace detail

namespace {

using namespace detail;  // the drivers share the engine-common helpers

void run_worker_steps(const SessionConfig& config,
                      std::vector<std::unique_ptr<Worker>>& workers,
                      std::size_t batch_size,
                      std::vector<WorkerStepResult>& steps) {
  for (std::size_t w = 0; w < config.workers; ++w) {
    steps[w] = workers[w]->step(batch_size);
  }
}

// ---------------------------------------------------------------------------
// Synchronous collective driver (event-runtime timing: heterogeneous worker
// speeds and chunked compute/communication overlap; lock-step numerics
// identical to run_session_reference).
// ---------------------------------------------------------------------------
SessionResult run_allreduce(const SessionConfig& config) {
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(config.benchmark);
  std::vector<std::unique_ptr<Worker>> workers = make_workers(config);

  SessionResult result;
  result.config = config;
  const std::size_t dim = workers.front()->gradient_dimension();
  result.gradient_dimension = dim;
  const TimingContext timing = make_timing(config, dim);

  const bool wired = config.workers > 1;
  std::vector<WorkerStepResult> steps(config.workers);
  std::vector<StepScalars> scalars(config.workers);
  std::vector<double> produce(config.workers, 0.0);
  comm::SparseAccumulator accumulator;
  const std::size_t eval_batch = std::max<std::size_t>(spec.batch_size, 1);

  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    run_worker_steps(config, workers, spec.batch_size, steps);

    // Collective exchange over the actual wire payloads: every replica
    // decodes all workers' encoded gradients and reduces them to the mean
    // (bit-identical to the dense reference mean), then applies the same
    // averaged gradient synchronously.
    accumulator.reset(dim);
    const auto agg_scale =
        static_cast<float>(1.0 / static_cast<double>(config.workers));
    for (const WorkerStepResult& s : steps) {
      accumulator.accumulate_encoded(s.encoded, agg_scale);
    }
    for (auto& worker : workers) worker->apply_update(accumulator.dense());

    for (std::size_t w = 0; w < config.workers; ++w) {
      scalars[w] = {.nnz = steps[w].sparse.nnz(),
                    .wire_bytes = steps[w].wire_bytes,
                    .train_loss = steps[w].train_loss,
                    .train_accuracy = steps[w].train_accuracy,
                    .measured_compression =
                        steps[w].measured_compression_seconds,
                    .stages_used = steps[w].stages_used};
    }
    const IterationRecord record =
        collective_iteration_record(config, timing, scalars, produce);
    result.total_wire_bytes += record.wire_bytes;
    if (wired) {
      result.total_dense_equiv_bytes +=
          config.workers * NetworkModel::dense_bytes(dim);
    }
    result.total_modeled_seconds += record.wall_seconds();
    result.iterations.push_back(record);

    const bool last = iter + 1 == config.iterations;
    const bool scheduled =
        config.eval_every > 0 && (iter + 1) % config.eval_every == 0;
    if (scheduled || last) {
      const nn::LossResult eval =
          workers.front()->evaluate(eval_batch, config.eval_batches);
      result.evals.push_back({.iteration = iter + 1,
                              .loss = eval.loss,
                              .accuracy = eval.accuracy,
                              .quality = benchmark_quality(config.benchmark,
                                                           eval.loss,
                                                           eval.accuracy)
                                             .value});
      if (last) break;  // do not evaluate the final iteration twice
    }
  }

  const std::span<const float> params = workers.front()->parameters();
  result.final_parameters.assign(params.begin(), params.end());
  result.staleness_histogram.assign(
      1, config.workers * result.iterations.size());
  finalize_result(result);
  return result;
}

// ---------------------------------------------------------------------------
// Bounded-staleness parameter-server driver (fully event-driven).
// ---------------------------------------------------------------------------

/// One worker's contribution to a round, staged until the round aggregates.
struct RoundPart {
  tensor::SparseGradient sparse;
  std::vector<std::uint8_t> encoded;  ///< the wire payload actually pushed
  std::size_t wire_bytes = 0;         ///< encoded.size(), proxy dimension
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double compression_seconds = 0.0;  ///< modeled, speed-scaled
  int stages_used = 1;
  std::size_t staleness = 0;  ///< applied rounds missing at compute time
};

struct RoundBucket {
  std::vector<RoundPart> parts;
  std::size_t arrived = 0;
};

SessionResult run_parameter_server(const SessionConfig& config) {
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(config.benchmark);
  std::vector<std::unique_ptr<Worker>> workers = make_workers(config);

  SessionResult result;
  result.config = config;
  const std::size_t dim = workers.front()->gradient_dimension();
  result.gradient_dimension = dim;
  const TimingContext timing = make_timing(config, dim);

  const std::size_t n = config.workers;
  const std::size_t rounds = config.iterations;
  const std::size_t slack = config.staleness_bound;
  const std::size_t eval_batch = std::max<std::size_t>(spec.batch_size, 1);

  // Canonical server state: the replicas all start bit-identical, so the
  // server copy is worker 0's initial parameters, updated through one
  // canonical optimizer (the s == 0 degeneracy to the synchronous session
  // rests on every update flowing through this single state).
  const std::span<const float> init = workers.front()->parameters();
  std::vector<float> server_params(init.begin(), init.end());
  nn::SgdOptimizer server_optimizer(spec.optimizer);

  // A dedicated evaluation head: same architecture and same dataset stream
  // as every worker's held-out batches.  It is built from the server copy
  // and overwritten with the server copy before each eval.
  Worker eval_head(config.benchmark, config.seed,
                   eval_head_stream_seed(config), core::Scheme::kNone, 1.0,
                   false, server_params);

  EventQueue queue;
  // The server NIC: pushes and pulls serialize in event order.  A single
  // worker trains locally — nothing crosses the wire (matching NetworkModel's
  // collectives, which return 0 for one worker).
  FifoLink link(timing.network.link_bytes_per_second(),
                timing.network.link_latency_seconds());
  const bool wired = n > 1;

  std::vector<RoundBucket> buckets(rounds);
  for (auto& b : buckets) b.parts.resize(n);
  std::vector<std::size_t> pull_bytes_of_round(rounds, 0);
  std::vector<double> apply_time(rounds, 0.0);
  std::size_t version = 0;  // rounds applied so far

  // Server-side aggregation state (decoded-payload accumulation + the
  // pull-payload scratch), shared with the threaded engine via detail so
  // both apply rounds through literally the same code.  All reused.
  PsApplyState apply_state;
  std::vector<std::span<const std::uint8_t>> payload_spans(n);
  std::vector<PsPartScalars> part_scalars(n);

  std::vector<std::size_t> worker_version(n, 0);  // version last pulled
  std::vector<bool> blocked(n, false);
  std::vector<std::size_t> blocked_round(n, 0);

  result.staleness_histogram.assign(slack + 1, 0);
  result.iterations.resize(rounds);

  // Runs the real forward/backward/compress step for (w, round) at simulated
  // time `now`, stages the gradient into the round bucket, and schedules the
  // step-completion event.
  const auto compute = [&](std::size_t w, std::size_t round, double now) {
    WorkerStepResult step = workers[w]->step(spec.batch_size);
    // Per-part modeled compression: the shared engine dispatch evaluated at
    // this part's stage count / measured latency.  The threaded PS engine
    // prices its parts through the exact same helper.
    const double compression = common_compression_seconds(
        config, timing, step.stages_used, step.measured_compression_seconds);
    const double scale = worker_scale(config, w);
    RoundPart& part = buckets[round].parts[w];
    part.sparse = std::move(step.sparse);
    part.encoded = std::move(step.encoded);
    part.wire_bytes = step.wire_bytes;
    part.train_loss = step.train_loss;
    part.train_accuracy = step.train_accuracy;
    part.compression_seconds = scale * compression;
    part.stages_used = step.stages_used;
    part.staleness = round - worker_version[w];
    queue.push(now + scale * (timing.base_compute + compression), w,
               EventKind::kStepDone, round);
  };

  // Moves worker w to `round`: blocks on the staleness guard, pulls fresh
  // parameters when the server has moved on, then computes.
  const auto start_round = [&](std::size_t w, std::size_t round, double now) {
    if (round >= rounds) return;  // this worker is done
    if (version + slack < round) {
      blocked[w] = true;
      blocked_round[w] = round;
      return;
    }
    if (worker_version[w] < version) {
      std::size_t bytes = 0;
      for (std::size_t r = worker_version[w]; r < version; ++r) {
        bytes += pull_bytes_of_round[r];
      }
      if (wired) {
        // One pull event ships the missed round updates; a dense system
        // would ship the parameter vector once.
        result.total_wire_bytes += bytes;
        result.total_dense_equiv_bytes += NetworkModel::dense_bytes(dim);
      }
      // Snapshot semantics: the transfer carries the parameters as of pull
      // start, so the replica is overwritten now and compute begins when the
      // wire drains.
      workers[w]->overwrite_parameters(server_params);
      worker_version[w] = version;
      queue.push(wired ? link.transfer(
                             now, payload_timing_bytes(bytes, dim,
                                                       timing.timing_dim))
                       : now,
                 w, EventKind::kPullDone, round);
      return;
    }
    compute(w, round, now);
  };

  // Applies round r (all n contributions arrived) at simulated time `now`.
  const auto apply_round = [&](std::size_t r, double now) {
    RoundBucket& bucket = buckets[r];
    for (std::size_t w = 0; w < n; ++w) {
      const RoundPart& p = bucket.parts[w];
      payload_spans[w] = p.encoded;
      part_scalars[w] = {.nnz = p.sparse.nnz(),
                         .wire_bytes = p.wire_bytes,
                         .train_loss = p.train_loss,
                         .train_accuracy = p.train_accuracy,
                         .compression_seconds = p.compression_seconds,
                         .stages_used = p.stages_used,
                         .staleness = p.staleness};
    }
    pull_bytes_of_round[r] = apply_state.apply_round_mean(
        payload_spans, dim, server_optimizer, server_params);
    version = r + 1;
    apply_time[r] = now;

    IterationRecord& record = result.iterations[r];
    ps_round_record(config, timing, part_scalars, record,
                    result.staleness_histogram);
    result.total_wire_bytes += record.wire_bytes;
    if (wired) {
      result.total_dense_equiv_bytes += n * NetworkModel::dense_bytes(dim);
    }
    record.modeled_wall_seconds = r == 0 ? now : now - apply_time[r - 1];
    // Exposed (non-overlapped) transfer + wait time of the round.
    record.communication_seconds =
        std::max(0.0, record.modeled_wall_seconds - record.compute_seconds -
                          record.compression_seconds);

    const bool last = r + 1 == rounds;
    const bool scheduled =
        config.eval_every > 0 && (r + 1) % config.eval_every == 0;
    if (scheduled || last) {
      eval_head.overwrite_parameters(server_params);
      const nn::LossResult eval =
          eval_head.evaluate(eval_batch, config.eval_batches);
      result.evals.push_back({.iteration = r + 1,
                              .loss = eval.loss,
                              .accuracy = eval.accuracy,
                              .quality = benchmark_quality(config.benchmark,
                                                           eval.loss,
                                                           eval.accuracy)
                                             .value});
    }

    // The new version may release workers parked on the staleness guard.
    for (std::size_t w = 0; w < n; ++w) {
      if (blocked[w] && version + slack >= blocked_round[w]) {
        blocked[w] = false;
        queue.push(now, w, EventKind::kWake, blocked_round[w]);
      }
    }
    bucket.parts.clear();
    bucket.parts.shrink_to_fit();
  };

  for (std::size_t w = 0; w < n; ++w) start_round(w, 0, 0.0);

  while (!queue.empty()) {
    const SimEvent event = queue.pop();
    switch (event.kind) {
      case EventKind::kPullDone:
      case EventKind::kWake:
        if (event.kind == EventKind::kPullDone) {
          compute(event.worker, event.round, event.time);
        } else {
          start_round(event.worker, event.round, event.time);
        }
        break;
      case EventKind::kStepDone: {
        const RoundPart& part = buckets[event.round].parts[event.worker];
        const std::size_t bytes = payload_timing_bytes(
            part.wire_bytes, dim, timing.timing_dim);
        queue.push(wired ? link.transfer(event.time, bytes) : event.time,
                   event.worker, EventKind::kPushArrive, event.round);
        // The device is free as soon as the NIC owns the payload.
        start_round(event.worker, event.round + 1, event.time);
        break;
      }
      case EventKind::kPushArrive: {
        buckets[event.round].arrived += 1;
        // Per-worker pushes traverse the FIFO link in round order, so
        // buckets complete in order and rounds apply in order.
        while (version < rounds && buckets[version].arrived == n) {
          apply_round(version, event.time);
        }
        break;
      }
    }
  }

  util::check(version == rounds,
              "event simulation ended before all rounds were applied");
  result.total_modeled_seconds = apply_time[rounds - 1];
  result.final_parameters = std::move(server_params);
  finalize_result(result);
  return result;
}

}  // namespace

SessionResult run_session(const SessionConfig& config) {
  detail::validate_config(config);
  if (config.engine == Engine::kThreads) {
    // Real worker threads over an in-memory transport (runtime module).
    // The dist -> runtime -> dist dependency cycle is confined to these
    // dispatches; both are static libraries and CMake links the cycle.
    return runtime::run_session_threads(config);
  }
  if (config.engine == Engine::kSockets) {
    // Forked worker processes over real sockets (runtime module).
    return runtime::run_session_processes(config);
  }
  switch (config.topology) {
    case Topology::kAllreduce:
      return run_allreduce(config);
    case Topology::kParameterServer:
      return run_parameter_server(config);
  }
  util::check(false, "unknown session topology");
  return {};
}

// ---------------------------------------------------------------------------
// Frozen pre-event-runtime synchronous loop.  Regression oracle for the
// event drivers above — its control flow must not be modified alongside them
// (that is the point).  Byte accounting is the one shared piece: both sides
// price communication from the measured wire payloads via the exact same
// helper (mean_push_timing_bytes), so the timing bit-identity contract keeps
// holding while the payload model evolves.
// ---------------------------------------------------------------------------
SessionResult run_session_reference(const SessionConfig& config) {
  util::check(config.workers >= 1, "session needs >= 1 worker");
  util::check(config.iterations >= 1, "session needs >= 1 iteration");
  util::check(config.target_ratio > 0.0 && config.target_ratio <= 1.0,
              "target ratio must be in (0, 1]");
  util::check(config.eval_batches >= 1, "session needs >= 1 eval batch");

  const nn::BenchmarkSpec& spec = nn::benchmark_spec(config.benchmark);
  NetworkConfig net_config = config.network;
  net_config.workers = config.workers;
  const NetworkModel network(net_config);
  const DeviceModel device(config.device);

  // Independent worker replicas: identical model seed, private streams.
  std::vector<std::unique_ptr<Worker>> workers = make_workers(config);

  SessionResult result;
  result.config = config;
  const std::size_t dim = workers.front()->gradient_dimension();
  result.gradient_dimension = dim;

  // Timing is evaluated at the proxy dimension or Table 1's paper scale.
  const std::size_t timing_dim =
      config.paper_scale_timing ? spec.paper_parameters : dim;
  const double dense_comm =
      dense_payload_comm_seconds(network, dim, timing_dim);
  // Compute time is pinned so that comm / (comm + compute) reproduces the
  // benchmark's measured communication overhead (Table 1) by construction.
  const double overhead = spec.comm_overhead;
  util::check(overhead > 0.0 && overhead < 1.0,
              "benchmark comm overhead must be in (0, 1)");
  const double compute_seconds = dense_comm * (1.0 - overhead) / overhead;

  std::vector<WorkerStepResult> steps(config.workers);
  const std::size_t eval_batch =
      std::max<std::size_t>(spec.batch_size, 1);

  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    run_worker_steps(config, workers, spec.batch_size, steps);

    // Modeled sparse allgather + exact mean aggregation, then a synchronous
    // update of every replica with the same averaged gradient.
    std::vector<tensor::SparseGradient> parts;
    parts.reserve(config.workers);
    for (WorkerStepResult& s : steps) parts.push_back(std::move(s.sparse));
    const std::vector<float> mean = tensor::aggregate_mean(
        parts, dim, static_cast<double>(config.workers));
    for (auto& worker : workers) worker->apply_update(mean);

    IterationRecord record;
    double nnz = 0.0;
    double measured = 0.0;
    int stages = 1;
    const bool wired = config.workers > 1;
    for (std::size_t w = 0; w < config.workers; ++w) {
      record.train_loss += steps[w].train_loss;
      record.train_accuracy += steps[w].train_accuracy;
      nnz += static_cast<double>(parts[w].nnz());
      measured += steps[w].measured_compression_seconds;
      stages = std::max(stages, steps[w].stages_used);
      if (wired) record.wire_bytes += steps[w].wire_bytes;
    }
    const auto n = static_cast<double>(config.workers);
    record.train_loss /= n;
    record.train_accuracy /= n;
    nnz /= n;
    measured /= n;
    record.achieved_ratio = nnz / static_cast<double>(dim);
    record.stages_used = stages;
    result.total_wire_bytes += record.wire_bytes;
    if (wired) {
      result.total_dense_equiv_bytes +=
          config.workers * NetworkModel::dense_bytes(dim);
    }

    record.compute_seconds = compute_seconds;
    if (config.scheme == core::Scheme::kNone) {
      record.compression_seconds = 0.0;
      record.communication_seconds = network.dense_allreduce_seconds(
          mean_push_timing_bytes(steps, dim, timing_dim));
    } else {
      record.compression_seconds =
          config.device == Device::kCpuMeasured
              ? device.compression_seconds(config.scheme, timing_dim,
                                           config.target_ratio, measured, dim)
              : device.gpu_seconds(config.scheme, timing_dim,
                                   config.target_ratio, stages);
      // The wire carries each worker's measured encoded payload, scaled to
      // timing_dim.
      record.communication_seconds = network.sparse_allgather_seconds(
          mean_push_timing_bytes(steps, dim, timing_dim));
    }
    result.total_modeled_seconds += record.wall_seconds();
    result.iterations.push_back(record);

    const bool last = iter + 1 == config.iterations;
    const bool scheduled =
        config.eval_every > 0 && (iter + 1) % config.eval_every == 0;
    if (scheduled || last) {
      const nn::LossResult eval =
          workers.front()->evaluate(eval_batch, config.eval_batches);
      result.evals.push_back({.iteration = iter + 1,
                              .loss = eval.loss,
                              .accuracy = eval.accuracy,
                              .quality = benchmark_quality(config.benchmark,
                                                           eval.loss,
                                                           eval.accuracy)
                                             .value});
      if (last) break;  // do not evaluate the final iteration twice
    }
  }

  const std::span<const float> params = workers.front()->parameters();
  result.final_parameters.assign(params.begin(), params.end());
  finalize_result(result);
  return result;
}

}  // namespace sidco::dist
