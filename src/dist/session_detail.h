// Shared internals of every session driver.  Each idea of a training round
// exists here once, and every driver calls it:
//
//  - CollectiveRound (one lock-step allgather round: steps, decoded mean,
//    apply, record, byte charges, scheduled eval): the simulated
//    run_allreduce and the fleet's sched::start_round.
//  - PsServer (the parameter server's canonical parameters, optimizer and
//    eval head; the part store, SSP admission, part staleness and
//    compression seconds, round apply, eviction and pull charges): the
//    simulated run_parameter_server and the real engines'
//    topo::run_ps_server.
//  - The round's decode-mean is comm::decoded_mean (comm/aggregate.h):
//    CollectiveRound, PsServer and the real engines' allgather worker
//    (topo::run_collective_worker) all reduce through it.
//  - eval_due / evaluate / append_eval: CollectiveRound, PsServer and the
//    real engines' allgather worker (which evaluates) and coordinator (which
//    records).
//  - step_scalars: every driver's per-worker projection of a step.
//  - collective_iteration_record: CollectiveRound and the real engines'
//    allgather coordinator.
//  - make_workers / make_worker, make_timing and the byte scaling: every
//    driver.  The frozen run_session_reference calls only make_workers and
//    mean_push_timing_bytes, so it stays an independent oracle.
//
// The drivers then differ only in how they advance time: closed form
// (run_allreduce), event queue (run_parameter_server), fair-share link
// (sched::run_fleet) or a real transport (runtime/topology.h).  The
// bit-identity contracts (test_session_async, test_runtime_differential,
// test_socket_differential, test_scheduler) rest on this sharing: change a
// helper here and every engine moves together, or not at all.
//
// This header is internal to the dist/runtime/sched modules: not for use by
// application code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "comm/aggregate.h"
#include "dist/session.h"
#include "dist/worker.h"
#include "nn/optimizer.h"
#include "tensor/sparse.h"

namespace sidco::dist::detail {

/// Validates the runtime-relevant SessionConfig fields (worker/iteration
/// counts, ratio range, overlap/channel knobs, per-worker speed scales).
void validate_config(const SessionConfig& config);

/// Identical replicas with private streams; the seed derivation is shared by
/// every driver (and frozen: run_session_reference depends on it).  Worker 0
/// is the session's one seeded model; workers 1..N-1 copy its parameters,
/// byte-identical to seeding each of them.
std::vector<std::unique_ptr<Worker>> make_workers(const SessionConfig& config);

/// Replica `w` of the frozen derivation above — what a forked participant of
/// the sockets engine builds for its own rank without instantiating the rest.
/// A non-empty `initial` (the session's seeded parameters) is copied in
/// instead of drawing the model from config.seed.
std::unique_ptr<Worker> make_worker(const SessionConfig& config,
                                    std::size_t w,
                                    std::span<const float> initial = {});

/// Stream seed of the dedicated parameter-server evaluation head (same model
/// seed as the workers, disjoint stream).
inline std::uint64_t eval_head_stream_seed(const SessionConfig& config) {
  return config.seed * 0x10001ULL + 0xe7a1ULL;
}

double worker_scale(const SessionConfig& config, std::size_t w);

/// Scales a measured proxy-dimension payload size to the timing dimension
/// (headers and per-element costs scale linearly — a conservative model of
/// re-encoding the same density at paper scale).
std::size_t payload_timing_bytes(std::size_t measured_bytes, std::size_t dim,
                                 std::size_t timing_dim);

/// Per-worker step scalars a driver aggregates: the engine-neutral
/// projection of a WorkerStepResult (step_scalars), which the real engines'
/// workers ship to their coordinator or server.
struct StepScalars {
  std::size_t nnz = 0;
  std::size_t wire_bytes = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double measured_compression = 0.0;
  int stages_used = 1;
};

/// The one projection of a worker step onto its StepScalars.
StepScalars step_scalars(const WorkerStepResult& step);

/// Mean measured push-payload bytes per worker this iteration, scaled to the
/// timing dimension.  Shared verbatim by every collective driver and the
/// frozen reference loop — their timing bit-identity contracts rest on
/// running the exact same arithmetic here (both overloads perform the
/// identical double-precision sum in worker order).
std::size_t mean_push_timing_bytes(std::span<const StepScalars> steps,
                                   std::size_t dim, std::size_t timing_dim);
std::size_t mean_push_timing_bytes(const std::vector<WorkerStepResult>& steps,
                                   std::size_t dim, std::size_t timing_dim);

/// Shared timing inputs: modeled compute seconds are pinned so that for the
/// uncompressed synchronous run comm / (comm + compute) reproduces the
/// benchmark's measured communication overhead (Table 1) by construction.
struct TimingContext {
  NetworkModel network;
  DeviceModel device;
  std::size_t dim = 0;
  std::size_t timing_dim = 0;
  double dense_comm = 0.0;
  double base_compute = 0.0;
};

TimingContext make_timing(const SessionConfig& config, std::size_t dim);

/// Per-iteration compression seconds shared across workers (legacy
/// semantics: analytic model at the worst-case stage count, measured-CPU
/// latency averaged over workers).
double common_compression_seconds(const SessionConfig& config,
                                  const TimingContext& t, int max_stages,
                                  double mean_measured);

std::size_t ceil_div(std::size_t a, std::size_t b);

/// Whether an eval follows iteration `iter` (0-based): every `eval_every`
/// iterations, and always after the last one — each iteration at most once.
bool eval_due(const SessionConfig& config, std::size_t iter);

/// The session's held-out evaluation on `worker`'s replica.
nn::LossResult evaluate(const SessionConfig& config, Worker& worker);

/// Records the eval that follows iteration `iter` (0-based), its quality
/// taken for result.config's benchmark.
void append_eval(SessionResult& result, std::size_t iter,
                 const nn::LossResult& eval);

/// Assembles one synchronous-collective IterationRecord (metric means +
/// modeled timing incl. the chunked-overlap schedule) from per-worker step
/// scalars.  Shared by CollectiveRound and the real engines' coordinator so
/// their records stay bit-identical by construction.  `produce` is caller
/// scratch of size `steps.size()`.
IterationRecord collective_iteration_record(const SessionConfig& config,
                                            const TimingContext& timing,
                                            std::span<const StepScalars> steps,
                                            std::span<double> produce);

/// Charges one collective round to `result`: its push bytes, and `n` dense
/// equivalents when the round crossed the wire.
void charge_collective(SessionResult& result, const IterationRecord& record,
                       std::size_t n, std::size_t dim);

/// One lock-step allgather round over the replicas it is handed.  Scratch is
/// reused across rounds; `scalars` and `produce` hold the last round's step
/// scalars and per-replica modeled produce seconds.
class CollectiveRound {
 public:
  /// Steps every replica in order, applies the decoded mean of their
  /// payloads to each, charges the round's bytes to `result`, appends the
  /// eval of replicas.front() when one is due after iteration `iter`, and
  /// returns the round's record (timeline fields modeled in closed form).
  IterationRecord run(const SessionConfig& config, const TimingContext& timing,
                      std::span<Worker* const> replicas, std::size_t iter,
                      SessionResult& result);

  std::vector<StepScalars> scalars;
  std::vector<double> produce;

 private:
  std::vector<std::span<const std::uint8_t>> payloads_;
  comm::SparseAccumulator accumulator_;
};

/// Fills final_loss / final_quality from the last eval record.
void finalize_result(SessionResult& result);

/// The parameter server every engine runs: the canonical parameters (worker
/// 0's initial replica), one canonical optimizer, a dedicated eval head on
/// the workers' held-out stream, and the part store that holds each pushed
/// gradient until its round applies.  The staleness-0 bit-identity contract
/// rests on every update flowing through this single state.  A driver keeps
/// only its clock: it asks admits() before a worker computes, pull()s,
/// stage()s each part, and apply_next()s while ready().  Worker ids are
/// below config.workers.  All scratch is reused across rounds.
class PsServer {
 public:
  /// Sizes `result`'s per-round records and staleness histogram.  `config`
  /// and `timing` are held by reference and must outlive the server.
  PsServer(const SessionConfig& config, const TimingContext& timing,
           std::span<const float> initial, SessionResult& result);

  /// SSP admission: whether a worker may compute round `r` now, on
  /// parameters that miss at most staleness_bound applied rounds.
  [[nodiscard]] bool admits(std::size_t r) const;

  /// Worker `w`'s pull before it computes.  When the server applied rounds
  /// since w's last pull, charges one message with the encoded means of
  /// every round w missed (against one dense parameter vector), marks w
  /// current and returns the pulled bytes; nullopt when w is current.
  std::optional<std::size_t> pull(std::size_t w, SessionResult& result);

  /// Stages worker `w`'s part of round `r`: its step scalars and the encoded
  /// gradient at body[offset..] (a non-null body of at least `offset`
  /// bytes), held by reference and never copied.  The part's staleness is r
  /// minus the version w last pulled.  Returns the part's modeled produce
  /// seconds (compute + compression, speed-scaled).  A push from an evicted
  /// worker, past the last round, for an applied round, beyond the
  /// staleness bound or a duplicate is a util::CheckError.
  double stage(std::size_t w, std::size_t r, const StepScalars& step,
               std::shared_ptr<const std::vector<std::uint8_t>> body,
               std::size_t offset = 0);

  /// Whether the next round holds a part from every live worker.
  [[nodiscard]] bool ready() const;

  /// Applies the next round (ready() must hold) and releases its parts: the
  /// decoded mean of its payloads (worker order) through the canonical
  /// optimizer, the round's pull payload sized as it would be pulled, its
  /// record's engine-shared fields (metric means, ratio, modeled
  /// compute/compression, staleness bins, wired push bytes), push and
  /// dense-equivalent charges, and the eval when one is due.  Returns the
  /// record; the engine fills communication_seconds and
  /// modeled_wall_seconds from its own timeline.
  IterationRecord& apply_next(SessionResult& result);

  /// Evicts worker `w` (FailurePolicy::kEvict): records the eviction at the
  /// current version and strips w's parts of every unapplied round, which
  /// then completes at the survivor count with its mean re-normalized over
  /// the survivors.  Returns false when w was already evicted; evicting the
  /// last live worker is a util::CheckError.
  bool evict(std::size_t w, SessionResult& result);

  /// Rounds applied so far.
  [[nodiscard]] std::size_t version() const { return version_; }
  [[nodiscard]] std::span<const float> parameters() const { return params_; }
  [[nodiscard]] std::vector<float> release_parameters() {
    return std::move(params_);
  }

 private:
  /// One staged push; an empty slot has no body.
  struct Part {
    std::shared_ptr<const std::vector<std::uint8_t>> body;
    std::size_t offset = 0;
    StepScalars step;
    double compression_seconds = 0.0;  ///< speed-scaled, modeled
    std::size_t staleness = 0;
  };

  /// Round r's part slots, one per worker.
  std::span<Part> round_parts(std::size_t r);

  const SessionConfig& config_;
  const TimingContext& timing_;
  std::vector<float> params_;
  nn::SgdOptimizer optimizer_;
  Worker eval_head_;
  comm::SparseAccumulator accumulator_;
  tensor::SparseGradient update_scratch_;
  std::vector<std::uint8_t> update_encoded_;
  std::vector<std::size_t> pull_bytes_of_round_;
  std::size_t version_ = 0;
  std::vector<Part> parts_;          ///< rounds x workers slots
  std::vector<std::size_t> staged_;  ///< parts held, per round
  std::vector<std::size_t> pulled_;  ///< version at each worker's last pull
  std::vector<bool> evicted_;
  std::size_t alive_;
  std::vector<std::span<const std::uint8_t>> payloads_;
};

}  // namespace sidco::dist::detail
