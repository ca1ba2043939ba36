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
using dist::detail::TimingContext;

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

/// A message's body bytes; empty when it carries no payload.
std::span<const std::uint8_t> body_of(const TransportMessage& m) {
  if (!m.payload) return {};
  return *m.payload;
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
  comm::MessageInfo info;
  try {
    info = comm::decode_dense(body_of(m), out);
  } catch (const util::CheckError& e) {
    fail(std::string(" (") + e.what() + ")");
  }
  if (info.value_mode != comm::ValueMode::kFp32 || info.dense_dim != dim) {
    fail("");
  }
}

/// kDone body: measured seconds (two f64s) followed by the worker's
/// transport fault/recovery counters (seven u64s, FaultCounters field
/// order) — the only channel a forked worker has to report what its
/// fault-injection and reliable-delivery decorators did.
std::vector<std::uint8_t> encode_done(const MeasuredSeconds& m,
                                      const dist::FaultCounters& c) {
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

/// A worker's step scalars as they travel in kReport and kPush bodies
/// (kStepScalarsBytes): nnz u64 | wire_bytes u64 | train_loss f64 |
/// train_accuracy f64 | measured_compression f64 | stages u32.
constexpr std::size_t kStepScalarsBytes = 44;

void put_step_scalars(std::vector<std::uint8_t>& body,
                      const dist::detail::StepScalars& s) {
  comm::put_u64_le(body, s.nnz);
  comm::put_u64_le(body, s.wire_bytes);
  comm::put_f64_le(body, s.train_loss);
  comm::put_f64_le(body, s.train_accuracy);
  comm::put_f64_le(body, s.measured_compression);
  comm::put_u32_le(body, static_cast<std::uint32_t>(s.stages_used));
}

/// Reads the step scalars at `pos`; the caller has checked the body size.
dist::detail::StepScalars get_step_scalars(std::span<const std::uint8_t> body,
                                           std::size_t pos) {
  return {.nnz = comm::get_u64_le(body, pos),
          .wire_bytes = comm::get_u64_le(body, pos + 8),
          .train_loss = comm::get_f64_le(body, pos + 16),
          .train_accuracy = comm::get_f64_le(body, pos + 24),
          .measured_compression = comm::get_f64_le(body, pos + 32),
          .stages_used = static_cast<int>(comm::get_u32_le(body, pos + 40))};
}

/// kPush body: the step scalars, then the encoded gradient payload.
std::vector<std::uint8_t> encode_push(const dist::detail::StepScalars& step,
                                      std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> body;
  body.reserve(kStepScalarsBytes + payload.size());
  put_step_scalars(body, step);
  body.insert(body.end(), payload.begin(), payload.end());
  return body;
}

// ---------------------------------------------------------------------------
// Lock-step collective (allgather).
// ---------------------------------------------------------------------------

/// Step scalars a worker reports per iteration, plus worker 0's eval riding
/// the same message (it is always enqueued before that worker's next push,
/// which makes the eval's availability ordering trivial).  Wire layout:
/// step scalars | has_eval u8 [| loss f64 | accuracy f64].
struct StepReport {
  dist::detail::StepScalars scalars;
  bool has_eval = false;
  double eval_loss = 0.0;
  double eval_accuracy = 0.0;
};

std::vector<std::uint8_t> encode_report(const StepReport& r) {
  std::vector<std::uint8_t> body;
  put_step_scalars(body, r.scalars);
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
  r.scalars = get_step_scalars(body, 0);
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
  const std::size_t dim = worker.gradient_dimension();

  comm::SparseAccumulator accumulator;
  std::vector<std::span<const std::uint8_t>> payloads(n);
  // Messages received but not yet consumed, FIFO per producer.  A peer can
  // run at most one iteration ahead (it cannot finish iteration i+1 without
  // this worker's i+1 payload), so each queue holds at most two entries.
  std::vector<std::deque<TransportMessage>> stash(n);
  MeasuredSeconds measured;
  util::Timer phase;

  for (std::size_t iter = 0; iter < iters; ++iter) {
    maybe_kill_self(config.fault, w, iter);
    phase.reset();
    dist::WorkerStepResult& step = worker.step(spec.batch_size);
    measured.compute += phase.seconds();

    phase.reset();
    // The encode buffer itself travels; the worker's next step encodes into
    // a fresh one.
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
    // Reduce the N decoded payloads in worker order, so every replica
    // computes a bit-identical mean and replicas never diverge.  The stashed
    // messages own their payloads: pop them only once the mean is formed.
    for (std::size_t p = 0; p < n; ++p) {
      if (p == w) {
        payloads[p] = *payload;
        continue;
      }
      const TransportMessage& m = stash[p].front();
      util::check(m.seq == iter, "allgather payload from the wrong iteration");
      payloads[p] = body_of(m);
    }
    worker.apply_update(comm::decoded_mean(accumulator, payloads, dim));
    for (std::size_t p = 0; p < n; ++p) {
      if (p != w) stash[p].pop_front();
    }
    measured.compute += phase.seconds();

    StepReport report;
    report.scalars = dist::detail::step_scalars(step);
    // Worker 0's replica is the session's eval replica.  Evaluation is
    // metric collection, not training — it stays outside the measured
    // compute/comm phases.
    if (w == 0 && dist::detail::eval_due(config, iter)) {
      const nn::LossResult eval = dist::detail::evaluate(config, worker);
      report.has_eval = true;
      report.eval_loss = eval.loss;
      report.eval_accuracy = eval.accuracy;
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
        pending[m.from].push_back(decode_report(body_of(m)));
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
    dist::detail::charge_collective(result, record, n, dim);
    result.total_modeled_seconds += record.wall_seconds();
    result.iterations.push_back(record);
    if (steps[0].has_eval) {
      dist::detail::append_eval(
          result, iter,
          {.loss = steps[0].eval_loss, .accuracy = steps[0].eval_accuracy});
    }
  }

  // Final parameters (worker 0) and every worker's measured seconds.
  while (done_count < n || !params_seen) route(recv_or_abort(endpoint));

  result.staleness_histogram.assign(1, n * result.iterations.size());
}

// ---------------------------------------------------------------------------
// Parameter server.
// ---------------------------------------------------------------------------

void run_ps_worker(const SessionConfig& config, std::size_t w,
                   dist::Worker& worker, Endpoint& endpoint) {
  const nn::BenchmarkSpec& spec = nn::benchmark_spec(config.benchmark);
  const std::size_t rounds = config.iterations;
  const std::size_t server = config.workers;

  const std::size_t dim = worker.gradient_dimension();
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
      }
    }
    phase.reset();
    const dist::WorkerStepResult& step = worker.step(spec.batch_size);
    measured.compute += phase.seconds();

    phase.reset();
    // The payload is copied once, behind the step scalars; the worker keeps
    // its encode buffer.
    const bool accepted = endpoint.send(
        server, {.kind = kPushKind,
                 .from = w,
                 .seq = round,
                 .payload = freeze(encode_push(dist::detail::step_scalars(step),
                                               step.encoded))});
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
  const std::size_t n = config.workers;
  const std::size_t rounds = config.iterations;
  const TimingContext timing = dist::detail::make_timing(config, dim);

  // Canonical server state and the round's part store, exactly as in the
  // simulated driver; this loop only moves messages.
  dist::detail::PsServer server(config, timing, init_params, result);

  measured.assign(n, {});
  std::vector<bool> done_seen(n, false);
  std::size_t done_count = 0;
  // wants[w]: the round worker w is waiting to have admitted; rounds
  // (one-past-end) doubles as "nothing pending".
  std::vector<std::size_t> wants(n, rounds);
  std::shared_ptr<const std::vector<std::uint8_t>> snapshot;
  std::size_t snapshot_version = 0;

  const auto route_done = [&](const TransportMessage& m) {
    util::check(!done_seen[m.from],
                "parameter server received a duplicate kDone");
    measured[m.from] = decode_done(*m.payload, result.fault_counters);
    done_seen[m.from] = true;
    ++done_count;
  };

  // Graceful degradation (FailurePolicy::kEvict): a confirmed-dead worker
  // (kPeerDeadKind from the reliable layer) leaves the server's roster, which
  // strips its unapplied parts.  It is pre-marked done (its kDone will never
  // come) and never granted again.
  const auto evict = [&](std::size_t w) {
    util::check(config.on_worker_failure == dist::FailurePolicy::kEvict,
                "parameter server received a peer-death notice without the "
                "evict policy");
    if (!server.evict(w, result)) return;
    if (!done_seen[w]) {
      done_seen[w] = true;
      ++done_count;
    }
    wants[w] = rounds;
  };

  while (server.version() < rounds) {
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
      const std::span<const std::uint8_t> body = body_of(msg);
      util::check(body.size() >= kStepScalarsBytes,
                  "transport: malformed kPush body");
      server.stage(msg.from, msg.seq, get_step_scalars(body, 0),
                   std::move(msg.payload), kStepScalarsBytes);
      wants[msg.from] = msg.seq + 1;
    }

    // Per-worker pushes arrive in round order (transport FIFO per
    // producer), so rounds complete in order and apply in order.  Modeled
    // communication needs the event timeline; under a real transport the
    // honest communication number is measured_comm_seconds.
    while (server.ready()) {
      result.total_modeled_seconds += server.apply_next(result).wall_seconds();
    }

    // Send every admissible grant.  The grant carries a parameter snapshot
    // exactly when the server's pull finds w behind.
    const std::size_t version = server.version();
    for (std::size_t g = 0; g < n; ++g) {
      if (wants[g] >= rounds || !server.admits(wants[g])) continue;
      TransportMessage grant{.kind = kGrantKind,
                             .from = n,
                             .seq = version,
                             .payload = nullptr};
      if (server.pull(g, result)) {
        if (!snapshot || snapshot_version != version) {
          // The serialized snapshot is shared between simultaneous grants
          // of the same version — a pointer copy per grant, not a copy of
          // the parameters.
          snapshot = encode_snapshot(server.parameters());
          snapshot_version = version;
        }
        grant.payload = snapshot;
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

  result.final_parameters = server.release_parameters();
}

}  // namespace sidco::runtime::topo
