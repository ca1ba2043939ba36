#include "dist/session.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
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

StepScalars step_scalars(const WorkerStepResult& step) {
  return {.nnz = step.selected,
          .wire_bytes = step.wire_bytes,
          .train_loss = step.train_loss,
          .train_accuracy = step.train_accuracy,
          .measured_compression = step.measured_compression_seconds,
          .stages_used = step.stages_used};
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

bool eval_due(const SessionConfig& config, std::size_t iter) {
  const bool last = iter + 1 == config.iterations;
  const bool scheduled =
      config.eval_every > 0 && (iter + 1) % config.eval_every == 0;
  return scheduled || last;
}

nn::LossResult evaluate(const SessionConfig& config, Worker& worker) {
  const std::size_t batch = std::max<std::size_t>(
      nn::benchmark_spec(config.benchmark).batch_size, 1);
  return worker.evaluate(batch, config.eval_batches);
}

void append_eval(SessionResult& result, std::size_t iter,
                 const nn::LossResult& eval) {
  result.evals.push_back(
      {.iteration = iter + 1,
       .loss = eval.loss,
       .accuracy = eval.accuracy,
       .quality =
           benchmark_quality(result.config.benchmark, eval.loss, eval.accuracy)
               .value});
}

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

void charge_collective(SessionResult& result, const IterationRecord& record,
                       std::size_t n, std::size_t dim) {
  result.total_wire_bytes += record.wire_bytes;
  if (n > 1) {
    result.total_dense_equiv_bytes += n * NetworkModel::dense_bytes(dim);
  }
}

IterationRecord CollectiveRound::run(const SessionConfig& config,
                                     const TimingContext& timing,
                                     std::span<Worker* const> replicas,
                                     std::size_t iter, SessionResult& result) {
  const std::size_t n = replicas.size();
  const std::size_t batch = nn::benchmark_spec(config.benchmark).batch_size;
  payloads_.resize(n);
  scalars.resize(n);
  produce.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const WorkerStepResult& step = replicas[k]->step(batch);
    payloads_[k] = step.encoded;
    scalars[k] = step_scalars(step);
  }
  // Every replica applies the same decoded mean of the actual wire payloads
  // (bit-identical to the dense reference mean), in lock step.  The payloads
  // are read in place: each stays valid until its replica's next step.
  const std::span<const float> mean =
      comm::decoded_mean(accumulator_, payloads_, timing.dim);
  for (Worker* replica : replicas) replica->apply_update(mean);

  const IterationRecord record =
      collective_iteration_record(config, timing, scalars, produce);
  charge_collective(result, record, n, timing.dim);
  if (eval_due(config, iter)) {
    append_eval(result, iter, evaluate(config, *replicas.front()));
  }
  return record;
}

PsServer::PsServer(const SessionConfig& config, const TimingContext& timing,
                   std::span<const float> initial, SessionResult& result)
    : config_(config),
      timing_(timing),
      params_(initial.begin(), initial.end()),
      optimizer_(nn::benchmark_spec(config.benchmark).optimizer),
      // Same architecture and dataset stream as every worker's held-out
      // batches; overwritten with the canonical copy before each eval.
      eval_head_(config.benchmark, config.seed, eval_head_stream_seed(config),
                 core::Scheme::kNone, 1.0, false, initial),
      pull_bytes_of_round_(config.iterations, 0),
      parts_(config.iterations * config.workers),
      staged_(config.iterations, 0),
      pulled_(config.workers, 0),
      evicted_(config.workers, false),
      alive_(config.workers) {
  result.staleness_histogram.assign(config.staleness_bound + 1, 0);
  result.iterations.resize(config.iterations);
}

std::span<PsServer::Part> PsServer::round_parts(std::size_t r) {
  return std::span(parts_).subspan(r * config_.workers, config_.workers);
}

bool PsServer::admits(std::size_t r) const {
  return version_ + config_.staleness_bound >= r;
}

std::optional<std::size_t> PsServer::pull(std::size_t w,
                                          SessionResult& result) {
  if (pulled_[w] == version_) return std::nullopt;
  std::size_t bytes = 0;
  for (std::size_t r = pulled_[w]; r < version_; ++r) {
    bytes += pull_bytes_of_round_[r];
  }
  pulled_[w] = version_;
  if (config_.workers > 1) {
    // One pull ships the missed round updates; a dense system would ship
    // the parameter vector once.
    result.total_wire_bytes += bytes;
    result.total_dense_equiv_bytes += NetworkModel::dense_bytes(timing_.dim);
  }
  return bytes;
}

double PsServer::stage(std::size_t w, std::size_t r, const StepScalars& step,
                       std::shared_ptr<const std::vector<std::uint8_t>> body,
                       std::size_t offset) {
  const auto reject = [&](const char* why) {
    util::check_fail("parameter server: out-of-protocol push (worker " +
                     std::to_string(w) + ", round " + std::to_string(r) +
                     ", applied version " + std::to_string(version_) +
                     "): " + why);
  };
  if (evicted_[w]) reject("worker was evicted");
  if (r >= config_.iterations) reject("past the last round");
  if (r < version_) reject("round already applied");
  // r >= version_ >= pulled_[w]: admission bounds what the worker missed.
  if (r - pulled_[w] > config_.staleness_bound) {
    reject("beyond the staleness bound");
  }
  Part& part = round_parts(r)[w];
  if (part.body) reject("duplicate");

  // Per-part modeled compression: the shared engine dispatch evaluated at
  // this part's stage count / measured latency, on this worker's speed.
  const double scale = worker_scale(config_, w);
  const double compression = common_compression_seconds(
      config_, timing_, step.stages_used, step.measured_compression);
  part = {.body = std::move(body),
          .offset = offset,
          .step = step,
          .compression_seconds = scale * compression,
          .staleness = r - pulled_[w]};
  staged_[r] += 1;
  return scale * (timing_.base_compute + compression);
}

bool PsServer::ready() const {
  return version_ < config_.iterations && staged_[version_] == alive_;
}

IterationRecord& PsServer::apply_next(SessionResult& result) {
  util::check(ready(),
              "parameter server: round applied before every live worker's "
              "part was staged");
  const std::size_t r = version_;
  const std::size_t n = staged_[r];
  const std::span<Part> parts = round_parts(r);
  IterationRecord& record = result.iterations[r];
  payloads_.clear();
  double nnz = 0.0;
  double max_compression = 0.0;
  int stages = 1;
  double max_scale = 0.0;
  for (std::size_t w = 0; w < config_.workers; ++w) {
    const Part& p = parts[w];
    if (!p.body) continue;  // evicted before completing r
    payloads_.push_back(
        std::span<const std::uint8_t>(*p.body).subspan(p.offset));
    record.train_loss += p.step.train_loss;
    record.train_accuracy += p.step.train_accuracy;
    nnz += static_cast<double>(p.step.nnz);
    max_compression = std::max(max_compression, p.compression_seconds);
    stages = std::max(stages, p.step.stages_used);
    result.staleness_histogram[p.staleness] += 1;
    max_scale = std::max(max_scale, worker_scale(config_, w));
    // Gated like the dense-equivalent charge below: after an eviction leaves
    // one survivor, its push still crosses the wire.
    if (config_.workers > 1) record.wire_bytes += p.step.wire_bytes;
  }

  // The mean is over the staged parts, so survivor re-normalization after
  // an eviction is automatic.
  const std::span<const float> mean =
      comm::decoded_mean(accumulator_, payloads_, timing_.dim);
  // Serialize the round's mean update as it would be pulled: the union of
  // worker supports densifies, and the measured payload — not an analytic
  // nnz estimate — is what pulls pay for.
  pull_bytes_of_round_[r] = comm::encode_dense_or_sparse(
      mean, comm::ValueMode::kFp32, update_scratch_, update_encoded_);
  optimizer_.step(params_, mean);
  version_ = r + 1;
  std::fill(parts.begin(), parts.end(), Part{});  // releases the payloads

  const auto nd = static_cast<double>(n);
  record.train_loss /= nd;
  record.train_accuracy /= nd;
  record.achieved_ratio = nnz / nd / static_cast<double>(timing_.dim);
  record.stages_used = stages;
  record.compute_seconds = max_scale * timing_.base_compute;
  record.compression_seconds = max_compression;

  result.total_wire_bytes += record.wire_bytes;
  if (config_.workers > 1) {
    result.total_dense_equiv_bytes +=
        n * NetworkModel::dense_bytes(timing_.dim);
  }
  if (eval_due(config_, r)) {
    eval_head_.overwrite_parameters(params_);
    append_eval(result, r, evaluate(config_, eval_head_));
  }
  return record;
}

bool PsServer::evict(std::size_t w, SessionResult& result) {
  if (evicted_[w]) return false;
  evicted_[w] = true;
  --alive_;
  util::check(alive_ > 0,
              "parameter server: every worker failed; nothing left to train");
  result.evictions.push_back({.worker = w, .round = version_});
  for (std::size_t r = version_; r < config_.iterations; ++r) {
    Part& part = round_parts(r)[w];
    if (!part.body) continue;
    part = {};
    staged_[r] -= 1;
  }
  return true;
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
// identical to run_session_reference).  Time advances in closed form: each
// round adds its modeled wall seconds.
// ---------------------------------------------------------------------------
SessionResult run_allreduce(const SessionConfig& config) {
  std::vector<std::unique_ptr<Worker>> workers = make_workers(config);

  SessionResult result;
  result.config = config;
  const std::size_t dim = workers.front()->gradient_dimension();
  result.gradient_dimension = dim;
  const TimingContext timing = make_timing(config, dim);

  std::vector<Worker*> replicas;
  for (const auto& worker : workers) replicas.push_back(worker.get());
  CollectiveRound round;
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    const IterationRecord record =
        round.run(config, timing, replicas, iter, result);
    result.total_modeled_seconds += record.wall_seconds();
    result.iterations.push_back(record);
  }

  const std::span<const float> params = workers.front()->parameters();
  result.final_parameters.assign(params.begin(), params.end());
  result.staleness_histogram.assign(
      1, config.workers * result.iterations.size());
  finalize_result(result);
  return result;
}

// ---------------------------------------------------------------------------
// Bounded-staleness parameter-server driver (fully event-driven).  The round
// lives in PsServer; this driver keeps its clock: the event queue, the
// server NIC, workers parked on admission and push arrivals.
// ---------------------------------------------------------------------------
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

  // The replicas all start bit-identical, so the server copy is worker 0's
  // initial parameters (the s == 0 degeneracy to the synchronous session
  // rests on every update flowing through this single state).
  PsServer server(config, timing, workers.front()->parameters(), result);

  EventQueue queue;
  // The server NIC: pushes and pulls serialize in event order.  A single
  // worker trains locally — nothing crosses the wire (matching NetworkModel's
  // collectives, which return 0 for one worker).
  FifoLink link(timing.network.link_bytes_per_second(),
                timing.network.link_latency_seconds());
  const bool wired = n > 1;

  std::vector<std::size_t> arrived(rounds, 0);  // pushes received, per round
  std::vector<std::size_t> push_bytes(n, 0);    // each worker's latest push
  std::vector<std::size_t> parked(n, rounds);   // round awaiting admission
  double applied_at = 0.0;

  // Runs the real forward/backward/compress step for (w, round) at simulated
  // time `now`, stages the part (its staleness is fixed here, before w can
  // pull again), and schedules the step-completion event.
  const auto compute = [&](std::size_t w, std::size_t round, double now) {
    WorkerStepResult& step = workers[w]->step(spec.batch_size);
    push_bytes[w] = step.wire_bytes;
    const double produce = server.stage(
        w, round, step_scalars(step),
        std::make_shared<const std::vector<std::uint8_t>>(
            std::move(step.encoded)));
    queue.push(now + produce, w, EventKind::kStepDone, round);
  };

  // Moves worker w to `round`: parks until admitted, pulls fresh parameters
  // when the server has moved on, then computes.
  const auto start_round = [&](std::size_t w, std::size_t round, double now) {
    if (round >= rounds) return;  // this worker is done
    if (!server.admits(round)) {
      parked[w] = round;
      return;
    }
    if (const std::optional<std::size_t> bytes = server.pull(w, result)) {
      // Snapshot semantics: the transfer carries the parameters as of pull
      // start, so the replica is overwritten now and compute begins when the
      // wire drains.
      workers[w]->overwrite_parameters(server.parameters());
      queue.push(wired ? link.transfer(
                             now, payload_timing_bytes(*bytes, dim,
                                                       timing.timing_dim))
                       : now,
                 w, EventKind::kPullDone, round);
      return;
    }
    compute(w, round, now);
  };

  // Applies the next round (all n pushes arrived) at simulated time `now`.
  const auto apply_next = [&](double now) {
    IterationRecord& record = server.apply_next(result);
    record.modeled_wall_seconds = now - applied_at;
    applied_at = now;
    // Exposed (non-overlapped) transfer + wait time of the round.
    record.communication_seconds =
        std::max(0.0, record.modeled_wall_seconds - record.compute_seconds -
                          record.compression_seconds);

    // The new version may admit parked workers.
    for (std::size_t w = 0; w < n; ++w) {
      if (parked[w] < rounds && server.admits(parked[w])) {
        queue.push(now, w, EventKind::kWake, parked[w]);
        parked[w] = rounds;
      }
    }
  };

  for (std::size_t w = 0; w < n; ++w) start_round(w, 0, 0.0);

  while (!queue.empty()) {
    const SimEvent event = queue.pop();
    switch (event.kind) {
      case EventKind::kPullDone:
        compute(event.worker, event.round, event.time);
        break;
      case EventKind::kWake:
        start_round(event.worker, event.round, event.time);
        break;
      case EventKind::kStepDone: {
        const std::size_t bytes = payload_timing_bytes(
            push_bytes[event.worker], dim, timing.timing_dim);
        queue.push(wired ? link.transfer(event.time, bytes) : event.time,
                   event.worker, EventKind::kPushArrive, event.round);
        // The device is free as soon as the NIC owns the payload.
        start_round(event.worker, event.round + 1, event.time);
        break;
      }
      case EventKind::kPushArrive:
        arrived[event.round] += 1;
        // Per-worker pushes traverse the FIFO link in round order, so
        // rounds complete in order and apply in order.
        while (server.version() < rounds &&
               arrived[server.version()] == n) {
          apply_next(event.time);
        }
        break;
    }
  }

  util::check(server.version() == rounds,
              "event simulation ended before all rounds were applied");
  result.total_modeled_seconds = applied_at;
  result.final_parameters = server.release_parameters();
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
