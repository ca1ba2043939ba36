// Shared internals of the session drivers (session.cpp) and the threaded
// runtime engine (runtime/threaded_session.cpp).
//
// Everything here is behavior the engines must agree on *exactly*: worker
// seed derivation, the timing-context arithmetic that pins modeled compute
// to the benchmark's communication overhead, and the measured-payload byte
// scaling.  The bit-identity contracts (event engine vs run_session_reference
// in test_session_async, threads engine vs the same oracle in
// test_runtime_differential) rest on every engine calling these exact
// helpers — change them here and every engine moves together, or not at all.
//
// This header is internal to the dist/runtime pair: not for use by
// application code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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

/// Per-worker step scalars a collective driver aggregates: the engine-
/// neutral projection of WorkerStepResult (simulated engine) and of the
/// threaded engine's step reports.
struct StepScalars {
  std::size_t nnz = 0;
  std::size_t wire_bytes = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double measured_compression = 0.0;
  int stages_used = 1;
};

/// Mean measured push-payload bytes per worker this iteration, scaled to the
/// timing dimension.  Shared verbatim by the event driver, the threaded
/// engine and the frozen reference loop — their timing bit-identity
/// contracts rest on running the exact same arithmetic here (both overloads
/// perform the identical double-precision sum in worker order).
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

/// Assembles one synchronous-collective IterationRecord (metric means +
/// modeled timing incl. the chunked-overlap schedule) from per-worker step
/// scalars.  Shared by the simulated allgather driver and the threaded
/// engine's coordinator so their records stay bit-identical by
/// construction.  `produce` is caller scratch of size `steps.size()`.
IterationRecord collective_iteration_record(const SessionConfig& config,
                                            const TimingContext& timing,
                                            std::span<const StepScalars> steps,
                                            std::span<double> produce);

/// Fills final_loss / final_quality from the last eval record.
void finalize_result(SessionResult& result);

/// Per-part scalars of one parameter-server round (engine-neutral
/// projection of the simulated driver's RoundPart and the threaded
/// engine's push messages).  `compression_seconds` is the modeled,
/// speed-scaled per-part value (common_compression_seconds x worker scale).
struct PsPartScalars {
  std::size_t nnz = 0;
  std::size_t wire_bytes = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double compression_seconds = 0.0;
  int stages_used = 1;
  std::size_t staleness = 0;
};

/// Fills the engine-shared fields of a PS round record — metric means,
/// achieved ratio, modeled compute/compression, staleness histogram bins,
/// wired push bytes — from the round's per-part scalars (worker order).
/// Timeline-dependent fields (communication_seconds, modeled_wall_seconds)
/// stay with the engine: the event driver derives them from the simulated
/// timeline, the threaded engine measures for real.
void ps_round_record(const SessionConfig& config, const TimingContext& timing,
                     std::span<const PsPartScalars> parts,
                     IterationRecord& record,
                     std::vector<std::size_t>& staleness_histogram);

/// Server-side aggregation state for applying PS rounds, shared by both
/// engines so the decode-accumulate order, the pull-payload serialization
/// and the canonical optimizer step are literally the same code — the
/// staleness-0 bit-identity contract rests on it.  All scratch is reused
/// across rounds.
struct PsApplyState {
  comm::SparseAccumulator accumulator;
  tensor::SparseGradient update_scratch;
  std::vector<std::uint8_t> update_encoded;

  /// Decode-accumulates the round's n encoded payloads in worker order into
  /// the mean, serializes the mean as it would be pulled, and steps the
  /// canonical optimizer.  Returns the measured pull-payload bytes.
  std::size_t apply_round_mean(
      std::span<const std::span<const std::uint8_t>> payloads,
      std::size_t dense_dim, nn::SgdOptimizer& optimizer,
      std::span<float> server_params);
};

}  // namespace sidco::dist::detail
