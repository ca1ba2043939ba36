#include "runtime/topology.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "comm/aggregate.h"
#include "comm/codec.h"
#include "comm/frame.h"
#include "dist/session_detail.h"
#include "nn/optimizer.h"
#include "nn/zoo.h"
#include "runtime/fault.h"
#include "runtime/reliable.h"
#include "util/check.h"
#include "util/timer.h"

namespace sidco::runtime::topo {

namespace {

using dist::IterationRecord;
using dist::SessionConfig;
using dist::SessionResult;
using dist::detail::common_compression_seconds;
using dist::detail::TimingContext;
using dist::detail::worker_scale;

std::shared_ptr<const std::vector<std::uint8_t>> freeze(
    std::vector<std::uint8_t>&& bytes) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
}

/// recv that maps transport shutdown to cooperative abort and remote
/// failure frames (kError, sockets engine) to a rethrowable error.
TransportMessage recv_or_abort(Endpoint& endpoint) {
  std::optional<TransportMessage> m = endpoint.recv();
  if (!m) throw AbortedError{};
  if (m->kind == kErrorKind) {
    std::string text;
    if (m->payload) text.assign(m->payload->begin(), m->payload->end());
    util::check_fail("remote worker " + std::to_string(m->from) +
                     " failed: " + text);
  }
  return std::move(*m);
}

void send_or_abort(Endpoint& endpoint, std::size_t to,
                   TransportMessage message) {
  if (!endpoint.send(to, std::move(message))) throw AbortedError{};
}

/// A whole parameter vector as it travels (kParams bodies and kGrant
/// snapshots): a codec dense fp32 message, bit-exact in both directions.
std::shared_ptr<const std::vector<std::uint8_t>> encode_snapshot(
    std::span<const float> params) {
  std::vector<std::uint8_t> bytes;
  comm::encode_dense(params, comm::ValueMode::kFp32, bytes);
  return freeze(std::move(bytes));
}

/// Decodes a parameter vector into `out`.  Anything but a dense fp32 message
/// of exactly `dim` values fails with one named error, the codec's reason
/// appended.
void decode_snapshot(const TransportMessage& m, std::size_t dim,
                     std::vector<float>& out) {
  const auto fail = [dim](const std::string& reason) {
    util::check_fail(
        "transport: parameter snapshot is not a dense fp32 message of " +
        std::to_string(dim) + " values" + reason);
  };
  std::span<const std::uint8_t> body;
  if (m.payload) body = *m.payload;
  comm::MessageInfo info;
  try {
    info = comm::decode_dense(body, out);
  } catch (const util::CheckError& e) {
    fail(std::string(" (") + e.what() + ")");
  }
  if (info.value_mode != comm::ValueMode::kFp32 || info.dense_dim != dim) {
    fail("");
  }
}

/// kDone body: measured seconds (two f64s) followed by the worker's
/// transport fault/recovery counters (seven u64s, TransportCounters field
/// order) — the only channel a forked worker has to report what its
/// fault-injection and reliable-delivery decorators did.
std::vector<std::uint8_t> encode_done(const MeasuredSeconds& m,
                                      const TransportCounters& c) {
  std::vector<std::uint8_t> body;
  comm::put_f64_le(body, m.compute);
  comm::put_f64_le(body, m.comm);
  comm::put_u64_le(body, c.drops);
  comm::put_u64_le(body, c.delays);
  comm::put_u64_le(body, c.duplicates);
  comm::put_u64_le(body, c.reorders);
  comm::put_u64_le(body, c.corruptions);
  comm::put_u64_le(body, c.retransmits);
  comm::put_u64_le(body, c.reconnects);
  return body;
}

/// Decodes a kDone body, accumulating its counters into the session total.
MeasuredSeconds decode_done(std::span<const std::uint8_t> body,
                            dist::FaultCounters& totals) {
  util::check(body.size() == 72, "transport: malformed kDone body");
  totals.drops += comm::get_u64_le(body, 16);
  totals.delays += comm::get_u64_le(body, 24);
  totals.duplicates += comm::get_u64_le(body, 32);
  totals.reorders += comm::get_u64_le(body, 40);
  totals.corruptions += comm::get_u64_le(body, 48);
  totals.retransmits += comm::get_u64_le(body, 56);
  totals.reconnects += comm::get_u64_le(body, 64);
  return {.compute = comm::get_f64_le(body, 0),
          .comm = comm::get_f64_le(body, 8)};
}

// ---------------------------------------------------------------------------
// Lock-step collective (allgather).
// ---------------------------------------------------------------------------

/// Step scalars a worker reports per iteration, plus worker 0's eval riding
/// the same message (it is always enqueued before that worker's next push,
/// which makes the eval's availability ordering trivial).  Wire layout:
/// nnz u64 | wire_bytes u64 | train_loss f64 | train_accuracy f64 |
/// measured_compression f64 | stages u32 | has_eval u8 [| loss f64 |
/// accuracy f64].
struct StepReport {
  dist::detail::StepScalars scalars;
  bool has_eval = false;
  double eval_loss = 0.0;
  double eval_accuracy = 0.0;
};

std::vector<std::uint8_t> encode_report(const StepReport& r) {
  std::vector<std::uint8_t> body;
  comm::put_u64_le(body, r.scalars.nnz);
  comm::put_u64_le(body, r.scalars.wire_bytes);
  comm::put_f64_le(body, r.scalars.train_loss);
  comm::put_f64_le(body, r.scalars.train_accuracy);
  comm::put_f64_le(body, r.scalars.measured_compression);
  comm::put_u32_le(body, static_cast<std::uint32_t>(r.scalars.stages_used));
  body.push_back(r.has_eval ? 1 : 0);
  if (r.has_eval) {
    comm::put_f64_le(body, r.eval_loss);
    comm::put_f64_le(body, r.eval_accuracy);
  }
  return body;
}

StepReport decode_report(std::span<const std::uint8_t> body) {
  util::check(body.size() == 45 || body.size() == 61,
              "transport: malformed kReport body");
  StepReport r;
  r.scalars.nnz = comm::get_u64_le(body, 0);
  r.scalars.wire_bytes = comm::get_u64_le(body, 8);
  r.scalars.train_loss = comm::get_f64_le(body, 16);
  r.scalars.train_accuracy = comm::get_f64_le(body, 24);
  r.scalars.measured_compression = comm::get_f64_le(body, 32);
  r.scalars.stages_used = static_cast<int>(comm::get_u32_le(body, 40));
  r.has_eval = body[44] != 0;
  util::check(body.size() == (r.has_eval ? 61U : 45U),
              "transport: kReport body size does not match its eval flag");
  if (r.has_eval) {
    r.eval_loss = comm::get_f64_le(body, 45);
    r.eval_accuracy = comm::get_f64_le(body, 53);
  }
  return r;
}

}  // namespace

void fill_measured(SessionResult& result, const util::Timer& wall,
                   std::span<const MeasuredSeconds> measured) {
  result.measured_wall_seconds = wall.seconds();
  for (const MeasuredSeconds& m : measured) {
    result.measured_compute_seconds =
        std::max(result.measured_compute_seconds, m.compute);
    result.measured_comm_seconds =
        std::max(result.measured_comm_seconds, m.comm);
  }
}

void run_collective_worker(const SessionConfig& config, std::size_t w,
                           dist::Worker& worker, Endpoint& endpoint) {
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(config.benchmark);
  const std::size_t n = config.workers;
  const std::size_t iters = config.iterations;
  const std::size_t coordinator = n;
  const std::size_t eval_batch = std::max<std::size_t>(spec.batch_size, 1);
  const std::size_t dim = worker.gradient_dimension();

  comm::SparseAccumulator accumulator;
  // Messages received but not yet consumed, FIFO per producer.  A peer can
  // run at most one iteration ahead (it cannot finish iteration i+1 without
  // this worker's i+1 payload), so each queue holds at most two entries.
  std::vector<std::deque<TransportMessage>> stash(n);
  MeasuredSeconds measured;
  util::Timer phase;

  for (std::size_t iter = 0; iter < iters; ++iter) {
    maybe_kill_self(config.fault, w, iter);
    phase.reset();
    dist::WorkerStepResult step = worker.step(spec.batch_size);
    measured.compute += phase.seconds();

    phase.reset();
    const auto payload = freeze(std::move(step.encoded));
    // Broadcast to every peer.  The transport guarantees a full peer inbox
    // never blocks this endpoint outright (InMemoryTransport drains its own
    // inbox while waiting; SocketTransport keeps reading while a send
    // queue is over bound), so a ring of mutually-full capacity-1 links
    // still makes progress.
    for (std::size_t p = 0; p < n; ++p) {
      if (p == w) continue;
      send_or_abort(endpoint, p,
                    {.kind = kPayloadKind,
                     .from = w,
                     .seq = iter,
                     .payload = payload});
    }
    // Collect the iteration's payload from every peer.
    for (std::size_t p = 0; p < n; ++p) {
      if (p == w) continue;
      while (stash[p].empty()) {
        TransportMessage m = recv_or_abort(endpoint);
        util::check(m.kind == kPayloadKind && m.from < n,
                    "allgather worker received an out-of-protocol message");
        stash[m.from].push_back(std::move(m));
      }
    }
    measured.comm += phase.seconds();

    phase.reset();
    // Reduce the N decoded payloads in worker order — the exact order of
    // tensor::aggregate_mean, so every replica computes a bit-identical
    // mean and replicas never diverge.
    accumulator.reset(dim);
    const auto scale = static_cast<float>(1.0 / static_cast<double>(n));
    for (std::size_t p = 0; p < n; ++p) {
      if (p == w) {
        accumulator.accumulate_encoded(*payload, scale);
        continue;
      }
      TransportMessage m = std::move(stash[p].front());
      stash[p].pop_front();
      util::check(m.seq == iter, "allgather payload from the wrong iteration");
      accumulator.accumulate_encoded(*m.payload, scale);
    }
    worker.apply_update(accumulator.dense());
    measured.compute += phase.seconds();

    StepReport report;
    report.scalars = {.nnz = step.selected,
                      .wire_bytes = step.wire_bytes,
                      .train_loss = step.train_loss,
                      .train_accuracy = step.train_accuracy,
                      .measured_compression =
                          step.measured_compression_seconds,
                      .stages_used = step.stages_used};
    if (w == 0) {
      // Evaluation is metric collection, not training — it stays outside
      // the measured compute/comm phases.
      const bool last = iter + 1 == iters;
      const bool scheduled =
          config.eval_every > 0 && (iter + 1) % config.eval_every == 0;
      if (scheduled || last) {
        const nn::LossResult eval =
            worker.evaluate(eval_batch, config.eval_batches);
        report.has_eval = true;
        report.eval_loss = eval.loss;
        report.eval_accuracy = eval.accuracy;
      }
    }
    send_or_abort(endpoint, coordinator,
                  {.kind = kReportKind,
                   .from = w,
                   .seq = iter,
                   .payload = freeze(encode_report(report))});
  }

  if (w == 0) {
    send_or_abort(endpoint, coordinator,
                  {.kind = kParamsKind,
                   .from = w,
                   .seq = iters,
                   .payload = encode_snapshot(worker.parameters())});
  }
  send_or_abort(endpoint, coordinator,
                {.kind = kDoneKind,
                 .from = w,
                 .seq = iters,
                 .payload = freeze(encode_done(measured, endpoint.counters()))});
}

void run_collective_coordinator(const SessionConfig& config, std::size_t dim,
                                Endpoint& endpoint, SessionResult& result,
                                std::vector<MeasuredSeconds>& measured) {
  const std::size_t n = config.workers;
  const std::size_t iters = config.iterations;
  const bool wired = n > 1;
  const TimingContext timing = dist::detail::make_timing(config, dim);

  measured.assign(n, {});
  std::vector<bool> done_seen(n, false);
  std::size_t done_count = 0;
  bool params_seen = false;

  std::vector<std::deque<StepReport>> pending(n);
  std::vector<std::deque<std::uint64_t>> pending_seq(n);

  const auto route = [&](TransportMessage m) {
    util::check(m.from < n,
                "coordinator received a message from an unknown worker");
    switch (m.kind) {
      case kReportKind:
        pending[m.from].push_back(
            decode_report(m.payload ? *m.payload
                                    : std::vector<std::uint8_t>{}));
        pending_seq[m.from].push_back(m.seq);
        break;
      case kDoneKind:
        util::check(!done_seen[m.from],
                    "coordinator received a duplicate kDone");
        measured[m.from] = decode_done(*m.payload, result.fault_counters);
        done_seen[m.from] = true;
        ++done_count;
        break;
      case kParamsKind:
        util::check(m.from == 0 && !params_seen,
                    "coordinator received unexpected final parameters");
        decode_snapshot(m, dim, result.final_parameters);
        params_seen = true;
        break;
      default:
        util::check_fail("coordinator received an out-of-protocol message");
    }
  };

  // Assemble per-iteration records from the step reports through the shared
  // detail::collective_iteration_record — identical inputs through the
  // identical formulas keep every engine's records (timing included)
  // bit-identical by construction.
  std::vector<dist::detail::StepScalars> scalars(n);
  std::vector<double> produce(n, 0.0);
  std::vector<StepReport> steps(n);

  for (std::size_t iter = 0; iter < iters; ++iter) {
    for (std::size_t w = 0; w < n; ++w) {
      while (pending[w].empty()) route(recv_or_abort(endpoint));
      steps[w] = std::move(pending[w].front());
      pending[w].pop_front();
      const std::uint64_t seq = pending_seq[w].front();
      pending_seq[w].pop_front();
      util::check(seq == iter, "allgather report from the wrong iteration");
      scalars[w] = steps[w].scalars;
    }

    const IterationRecord record = dist::detail::collective_iteration_record(
        config, timing, scalars, produce);
    result.total_wire_bytes += record.wire_bytes;
    if (wired) {
      result.total_dense_equiv_bytes +=
          n * dist::NetworkModel::dense_bytes(dim);
    }
    result.total_modeled_seconds += record.wall_seconds();
    result.iterations.push_back(record);

    if (steps[0].has_eval) {
      result.evals.push_back(
          {.iteration = iter + 1,
           .loss = steps[0].eval_loss,
           .accuracy = steps[0].eval_accuracy,
           .quality = dist::benchmark_quality(config.benchmark,
                                              steps[0].eval_loss,
                                              steps[0].eval_accuracy)
                          .value});
    }
  }

  // Final parameters (worker 0) and every worker's measured seconds.
  while (done_count < n || !params_seen) route(recv_or_abort(endpoint));

  result.staleness_histogram.assign(1, n * result.iterations.size());
}

// ---------------------------------------------------------------------------
// Parameter server.
// ---------------------------------------------------------------------------

namespace {

/// Fixed-size scalar prefix of a kPush body; the encoded gradient payload
/// follows.  Layout: staleness u64 | nnz u64 | wire_bytes u64 | train_loss
/// f64 | train_accuracy f64 | measured_compression f64 | stages u32.
constexpr std::size_t kPushPrefixBytes = 52;

struct PushScalars {
  std::size_t staleness = 0;
  std::size_t nnz = 0;
  std::size_t wire_bytes = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double measured_compression = 0.0;
  int stages_used = 1;
};

std::vector<std::uint8_t> encode_push(const PushScalars& p,
                                      std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> body;
  body.reserve(kPushPrefixBytes + payload.size());
  comm::put_u64_le(body, p.staleness);
  comm::put_u64_le(body, p.nnz);
  comm::put_u64_le(body, p.wire_bytes);
  comm::put_f64_le(body, p.train_loss);
  comm::put_f64_le(body, p.train_accuracy);
  comm::put_f64_le(body, p.measured_compression);
  comm::put_u32_le(body, static_cast<std::uint32_t>(p.stages_used));
  body.insert(body.end(), payload.begin(), payload.end());
  return body;
}

PushScalars decode_push_prefix(std::span<const std::uint8_t> body) {
  util::check(body.size() >= kPushPrefixBytes,
              "transport: malformed kPush body");
  PushScalars p;
  p.staleness = comm::get_u64_le(body, 0);
  p.nnz = comm::get_u64_le(body, 8);
  p.wire_bytes = comm::get_u64_le(body, 16);
  p.train_loss = comm::get_f64_le(body, 24);
  p.train_accuracy = comm::get_f64_le(body, 32);
  p.measured_compression = comm::get_f64_le(body, 40);
  p.stages_used = static_cast<int>(comm::get_u32_le(body, 48));
  return p;
}

/// One worker's staged contribution, server side.  The whole kPush body is
/// kept alive; the gradient payload is the suffix after the scalar prefix.
struct PsPart {
  PushScalars scalars;
  std::shared_ptr<const std::vector<std::uint8_t>> body;
  bool arrived = false;

  [[nodiscard]] std::span<const std::uint8_t> payload() const {
    return std::span<const std::uint8_t>(*body).subspan(kPushPrefixBytes);
  }
};

}  // namespace

void run_ps_worker(const SessionConfig& config, std::size_t w,
                   dist::Worker& worker, Endpoint& endpoint) {
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(config.benchmark);
  const std::size_t rounds = config.iterations;
  const std::size_t server = config.workers;

  const std::size_t dim = worker.gradient_dimension();
  std::size_t worker_version = 0;  // applied rounds at the last pull
  std::vector<float> snapshot_scratch;
  MeasuredSeconds measured;
  util::Timer phase;

  for (std::size_t round = 0; round < rounds; ++round) {
    maybe_kill_self(config.fault, w, round);
    if (round > 0) {
      phase.reset();
      std::optional<TransportMessage> grant = endpoint.recv();
      measured.comm += phase.seconds();
      if (!grant) throw AbortedError{};
      util::check(grant->kind == kGrantKind,
                  "parameter-server worker received an out-of-protocol "
                  "message");
      // A non-empty grant body carries a fresh parameter snapshot; the
      // server moved on since this worker's last pull.
      if (grant->body_size() > 0) {
        decode_snapshot(*grant, dim, snapshot_scratch);
        worker.overwrite_parameters(snapshot_scratch);
        worker_version = grant->seq;
      }
    }
    phase.reset();
    dist::WorkerStepResult step = worker.step(spec.batch_size);
    measured.compute += phase.seconds();

    const PushScalars scalars{
        .staleness = round - worker_version,
        .nnz = step.selected,
        .wire_bytes = step.wire_bytes,
        .train_loss = step.train_loss,
        .train_accuracy = step.train_accuracy,
        .measured_compression = step.measured_compression_seconds,
        .stages_used = step.stages_used};
    phase.reset();
    const bool accepted =
        endpoint.send(server, {.kind = kPushKind,
                               .from = w,
                               .seq = round,
                               .payload = freeze(encode_push(
                                   scalars, step.encoded))});
    measured.comm += phase.seconds();
    if (!accepted) throw AbortedError{};
  }

  send_or_abort(endpoint, server,
                {.kind = kDoneKind,
                 .from = w,
                 .seq = rounds,
                 .payload = freeze(encode_done(measured, endpoint.counters()))});
}

void run_ps_server(const SessionConfig& config,
                   const std::vector<float>& init_params, std::size_t dim,
                   Endpoint& endpoint, SessionResult& result,
                   std::vector<MeasuredSeconds>& measured) {
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(config.benchmark);
  const std::size_t n = config.workers;
  const std::size_t rounds = config.iterations;
  const std::size_t slack = config.staleness_bound;
  const bool wired = n > 1;
  const std::size_t eval_batch = std::max<std::size_t>(spec.batch_size, 1);
  const TimingContext timing = dist::detail::make_timing(config, dim);

  // Canonical server state, exactly as in the simulated driver: worker 0's
  // initial replica, updated through one canonical optimizer.
  std::vector<float> server_params = init_params;
  nn::SgdOptimizer server_optimizer(spec.optimizer);
  dist::Worker eval_head(config.benchmark, config.seed,
                         dist::detail::eval_head_stream_seed(config),
                         core::Scheme::kNone, 1.0, false, server_params);

  measured.assign(n, {});
  std::vector<bool> done_seen(n, false);
  std::size_t done_count = 0;
  std::vector<bool> dead(n, false);
  std::size_t alive = n;

  std::vector<std::vector<PsPart>> buckets(rounds);
  std::vector<std::size_t> arrived(rounds, 0);
  std::vector<std::size_t> pull_bytes_of_round(rounds, 0);
  std::vector<std::size_t> worker_version(n, 0);  // version last granted
  // wants[w]: the round worker w is waiting to have admitted; rounds
  // (one-past-end) doubles as "nothing pending".
  std::vector<std::size_t> wants(n, rounds);
  std::size_t version = 0;

  dist::detail::PsApplyState apply_state;
  std::vector<std::span<const std::uint8_t>> payload_spans(n);
  std::vector<dist::detail::PsPartScalars> part_scalars(n);
  std::shared_ptr<const std::vector<std::uint8_t>> snapshot;
  std::size_t snapshot_version = 0;

  result.staleness_histogram.assign(slack + 1, 0);
  result.iterations.resize(rounds);

  // Applies round r (all n parts arrived) through the same detail helpers
  // as the simulated driver — decoded-payload accumulation in worker order
  // through one canonical optimizer is what makes staleness-0 bit-identical
  // to the oracle.
  // Applies the arrived parts of round r (all of them from the survivors;
  // evicted workers' parts were stripped at eviction).  The mean is over the
  // arrived count, so survivor re-normalization is automatic — and with no
  // evictions the spans are exactly the historical all-n ones, keeping the
  // staleness-0 bit-identity contract intact.
  const auto apply_round = [&](std::size_t r) {
    std::vector<PsPart>& parts = buckets[r];
    std::size_t k = 0;
    for (std::size_t w = 0; w < n; ++w) {
      if (!parts[w].arrived) continue;  // evicted before completing r
      const PushScalars& p = parts[w].scalars;
      payload_spans[k] = parts[w].payload();
      // Per-part modeled compression: the shared engine dispatch, evaluated
      // server-side from the reported stats (the worker never sees the
      // timing context).
      part_scalars[k] = {
          .nnz = p.nnz,
          .wire_bytes = p.wire_bytes,
          .train_loss = p.train_loss,
          .train_accuracy = p.train_accuracy,
          .compression_seconds =
              worker_scale(config, w) *
              common_compression_seconds(config, timing, p.stages_used,
                                         p.measured_compression),
          .stages_used = p.stages_used,
          .staleness = p.staleness};
      ++k;
    }
    pull_bytes_of_round[r] = apply_state.apply_round_mean(
        std::span(payload_spans.data(), k), dim, server_optimizer,
        server_params);
    version = r + 1;

    IterationRecord& record = result.iterations[r];
    dist::detail::ps_round_record(config, timing,
                                  std::span(part_scalars.data(), k), record,
                                  result.staleness_histogram);
    result.total_wire_bytes += record.wire_bytes;
    if (wired) {
      result.total_dense_equiv_bytes +=
          k * dist::NetworkModel::dense_bytes(dim);
    }
    // Modeled communication needs the event timeline; under a real
    // transport the honest communication number is measured_comm_seconds.
    record.communication_seconds = 0.0;
    result.total_modeled_seconds += record.wall_seconds();

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
                              .quality = dist::benchmark_quality(
                                             config.benchmark, eval.loss,
                                             eval.accuracy)
                                             .value});
    }
    parts.clear();
    parts.shrink_to_fit();
  };

  for (auto& b : buckets) b.resize(n);

  const auto route_done = [&](const TransportMessage& m) {
    util::check(!done_seen[m.from],
                "parameter server received a duplicate kDone");
    measured[m.from] = decode_done(*m.payload, result.fault_counters);
    done_seen[m.from] = true;
    ++done_count;
  };

  // Graceful degradation (FailurePolicy::kEvict): a confirmed-dead worker
  // (kPeerDeadKind from the reliable layer) is removed from the roster.  Its
  // parts in every unapplied round are stripped, so those rounds complete at
  // the survivor count and their means re-normalize over the survivors; it
  // is pre-marked done (its kDone will never come) and never granted again.
  const auto evict = [&](std::size_t w) {
    if (dead[w]) return;
    util::check(config.on_worker_failure == dist::FailurePolicy::kEvict,
                "parameter server received a peer-death notice without the "
                "evict policy");
    dead[w] = true;
    --alive;
    util::check(alive > 0,
                "parameter server: every worker failed; nothing left to "
                "train");
    result.evictions.push_back({.worker = w, .round = version});
    if (!done_seen[w]) {
      done_seen[w] = true;
      ++done_count;
    }
    wants[w] = rounds;
    for (std::size_t r = version; r < rounds; ++r) {
      if (!buckets[r].empty() && buckets[r][w].arrived) {
        buckets[r][w] = {};
        arrived[r] -= 1;
      }
    }
  };

  while (version < rounds) {
    TransportMessage msg = recv_or_abort(endpoint);
    util::check(msg.from < n,
                "parameter server received a message from an unknown worker");
    if (msg.kind == kDoneKind) {
      // A worker that finished its last push reports measured seconds while
      // slower peers are still pushing.
      route_done(msg);
      continue;
    }
    if (msg.kind == kPeerDeadKind) {
      // Completion may unlock below: the dead worker's missing parts no
      // longer block any round.
      evict(msg.from);
    } else {
      util::check(msg.kind == kPushKind,
                  "parameter server received an out-of-protocol message");
      const std::size_t w = msg.from;
      const std::size_t r = msg.seq;
      if (r >= rounds || buckets[r].empty() || buckets[r][w].arrived) {
        util::check_fail(
            "parameter server received an out-of-protocol push (worker " +
            std::to_string(w) + ", round " + std::to_string(r) +
            ", applied version " + std::to_string(version) +
            (r < rounds && !buckets[r].empty() && buckets[r][w].arrived
                 ? ", duplicate"
                 : ", round already applied or out of range") +
            ")");
      }
      buckets[r][w] = {.scalars = decode_push_prefix(*msg.payload),
                       .body = std::move(msg.payload),
                       .arrived = true};
      arrived[r] += 1;
      wants[w] = r + 1;
    }

    // Per-worker pushes arrive in round order (transport FIFO per
    // producer), so buckets complete in order and rounds apply in order.
    while (version < rounds && arrived[version] == alive) {
      apply_round(version);
    }

    // Issue every admissible grant.  SSP admission: worker w may compute
    // round c once version + slack >= c; the grant carries a parameter
    // snapshot exactly when the server moved on since w's last pull, with
    // the same pull-byte accounting as the simulated driver.
    for (std::size_t g = 0; g < n; ++g) {
      if (wants[g] >= rounds || version + slack < wants[g]) continue;
      TransportMessage grant{.kind = kGrantKind,
                             .from = n,
                             .seq = version,
                             .payload = nullptr};
      if (worker_version[g] < version) {
        std::size_t bytes = 0;
        for (std::size_t pr = worker_version[g]; pr < version; ++pr) {
          bytes += pull_bytes_of_round[pr];
        }
        if (wired) {
          // One pull ships the missed round updates; a dense system would
          // ship the parameter vector once.
          result.total_wire_bytes += bytes;
          result.total_dense_equiv_bytes +=
              dist::NetworkModel::dense_bytes(dim);
        }
        if (!snapshot || snapshot_version != version) {
          // The serialized snapshot is shared between simultaneous grants
          // of the same version — a pointer copy per grant, not a copy of
          // the parameters.
          snapshot = encode_snapshot(server_params);
          snapshot_version = version;
        }
        grant.payload = snapshot;
        worker_version[g] = version;
      }
      wants[g] = rounds;
      send_or_abort(endpoint, g, std::move(grant));
    }
  }

  while (done_count < n) {
    TransportMessage msg = recv_or_abort(endpoint);
    util::check(msg.from < n,
                "parameter server received a message from an unknown worker");
    if (msg.kind == kPeerDeadKind) {
      // A worker that died between its last push and its kDone: evict (the
      // eviction pre-marks it done, with zero measured seconds).
      evict(msg.from);
      continue;
    }
    util::check(msg.kind == kDoneKind,
                "parameter server received an out-of-protocol message after "
                "the last round");
    route_done(msg);
  }

  result.final_parameters = std::move(server_params);
}

}  // namespace sidco::runtime::topo
