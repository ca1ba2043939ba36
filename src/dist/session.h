// Distributed training sessions (the paper's evaluation harness), built on a
// discrete-event runtime (event_sim.h).  N workers run real forward /
// backward / compress steps; gradient exchange and wall-clock are modeled on
// NetworkModel / DeviceModel timelines.  Two topologies:
//
//  - kAllreduce: synchronous collective exchange (sparse allgather when
//    compressing, ring allreduce otherwise).  Lock-step numerics; timing
//    supports per-worker speed profiles (stragglers / heterogeneous devices)
//    and chunked compute/communication overlap.  With homogeneous workers
//    and overlap_chunks == 1 this reproduces the legacy synchronous session
//    (run_session_reference) bit-for-bit, timing included.
//
//  - kParameterServer: bounded-staleness asynchronous aggregation.  Workers
//    push compressed gradients to a central server over a FIFO link; the
//    server applies each round's mean update (in worker order, through one
//    canonical optimizer) as soon as the round is complete, and a worker may
//    compute round c on parameters that miss at most `staleness_bound`
//    applied rounds (SSP slack).  staleness_bound == 0 degenerates to fully
//    synchronous training and produces parameters bit-identical to the
//    legacy session — a regression test enforces this.
//
// Timing can be evaluated at the proxy model's dimension or at the
// paper-scale parameter counts of Table 1 (`paper_scale_timing`, default).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/autotune.h"
#include "core/factory.h"
#include "dist/device_model.h"
#include "dist/network_model.h"
#include "nn/zoo.h"

namespace sidco::dist {

enum class Topology {
  kAllreduce,        ///< synchronous collective (allgather / ring allreduce)
  kParameterServer,  ///< central server; async when staleness_bound > 0
};

std::string_view topology_name(Topology topology);

/// Which execution engine runs the session.  All engines share worker seed
/// derivation, aggregation order and byte accounting, so at staleness 0 they
/// are bit-identical on parameters / losses / wire bytes (enforced by
/// test_runtime_differential and test_socket_differential).
enum class Engine {
  /// Single-threaded discrete-event simulation; wall-clock comes from the
  /// Network/Device timing models.  Default, and the golden-metric oracle.
  kSimulated,
  /// One real thread per worker (plus a server thread in kParameterServer),
  /// exchanging encoded wire payloads through an in-memory transport over
  /// bounded channels (runtime/transport.h).  Measured wall-clock lands in
  /// the measured_* fields of SessionResult; modeled timing is still
  /// reported where it is a closed form (allgather), and omitted where it
  /// would need the event timeline (parameter-server communication).
  kThreads,
  /// One forked *process* per worker, exchanging the same framed codec
  /// bytes over real Unix-domain (default) or loopback TCP sockets
  /// (runtime/process_session.h; SIDCO_SOCKET_FAMILY selects the family).
  /// Runs the identical topology protocol code as kThreads and is
  /// bit-identical to it on parameters / losses / evals / wire bytes.
  kSockets,
};

std::string_view engine_name(Engine engine);

/// Seeded deterministic fault injection for the real engines (threads /
/// sockets).  Message faults (drop / delay / duplicate / reorder / corrupt)
/// are per-message probabilities drawn from a pure hash of (seed, link
/// direction, per-link send index) — the same config always injects the
/// identical schedule, independent of thread/process timing (runtime/fault.h).
/// Process faults (kill) and link faults (cut) model worker death and link
/// loss.  All faults require a non-simulated engine; message faults force the
/// reliable-delivery layer on, and the headline invariant is that any lossy-
/// but-connected schedule leaves session results bit-identical to the
/// fault-free run (test_chaos_differential).
struct FaultInjectionConfig {
  /// "Not a participant" sentinel for the index knobs below.
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::uint64_t seed = 1;  ///< fault schedule seed (independent of config.seed)
  // Per-message fault probabilities in [0, 1]; their sum must be <= 1 (at
  // most one fault per message, chosen by one uniform draw).
  double drop = 0.0;       ///< message vanishes (retransmission recovers it)
  double delay = 0.0;      ///< held back two sends on its link
  double duplicate = 0.0;  ///< message delivered twice back to back
  double reorder = 0.0;    ///< held back one send (swaps with its successor)
  double corrupt = 0.0;    ///< one payload byte flipped (checksum catches it)

  /// Permanent partition: every message on links touching this worker is
  /// dropped once the link's send index reaches `partition_after`.  The one
  /// fault class that cannot preserve results: the session must end in a
  /// structured error (fail-fast) or a recorded eviction (degraded mode).
  std::size_t partition_worker = kNone;
  std::size_t partition_after = 0;

  /// Worker SIGKILLs itself at the start of round `kill_round` (sockets
  /// engine only — a forked child can die without taking the session down).
  std::size_t kill_worker = kNone;
  std::size_t kill_round = 0;

  /// One-shot link cut: endpoint `cut_from` writes only part of the first
  /// reliable data envelope that follows its first `cut_after` frames to
  /// `cut_to`, then hard-closes that socket (sockets engine only).  The
  /// envelope can never be acked, so the cut always exercises mid-session
  /// reconnect, the receiver's discard of a partial frame, and
  /// retransmission.
  std::size_t cut_from = kNone;
  std::size_t cut_to = kNone;
  std::size_t cut_after = 0;

  /// Any per-message fault configured (the kinds the reliable layer hides).
  [[nodiscard]] bool lossy() const {
    return drop > 0.0 || delay > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
           corrupt > 0.0 || partition_worker != kNone;
  }
  [[nodiscard]] bool any() const {
    return lossy() || kill_worker != kNone || cut_from != kNone;
  }
};

/// Reliable-delivery knobs (runtime/reliable.h): per-link ack/retransmission
/// over the frame seq field, plus heartbeat-based silence detection.  Forced
/// on by the engines whenever message faults or a link cut are configured;
/// can be enabled alone to harden a clean session.  Retries, backoff and the
/// send window are runtime::ReliableParams constants.
struct ReliabilityConfig {
  bool enabled = false;
  /// A peer silent for this long (no data/ack/heartbeat/bye) is declared
  /// dead.  Must exceed the longest compute gap between a peer's transport
  /// calls — a worker crunching a huge batch does not heartbeat.
  double silence_timeout_seconds = 30.0;
  /// Idle-link heartbeat period (sent from within blocked transport calls).
  double heartbeat_interval_seconds = 1.0;
};

/// What a confirmed-dead worker does to the session.
enum class FailurePolicy {
  /// Default: the session fails with a structured error naming the worker.
  kFailFast,
  /// Parameter-server only: the server evicts the dead worker, re-normalizes
  /// every subsequent round mean over the survivors, records the eviction in
  /// SessionResult::evictions, and the session completes.  Requires
  /// reliability.enabled (eviction needs confirmed death, not a guess).
  kEvict,
};

/// Transport-layer event counters (injected faults + recovery work): one
/// endpoint's from runtime::Endpoint::counters(), and a whole session's in
/// SessionResult::fault_counters.  Excluded from bit-identity comparisons:
/// faults may only change wall-clock and these counters.
struct FaultCounters {
  std::uint64_t drops = 0;
  std::uint64_t delays = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t retransmits = 0;  ///< reliable-layer retransmissions
  std::uint64_t reconnects = 0;   ///< socket links re-established

  FaultCounters& operator+=(const FaultCounters& o) {
    drops += o.drops;
    delays += o.delays;
    duplicates += o.duplicates;
    reorders += o.reorders;
    corruptions += o.corruptions;
    retransmits += o.retransmits;
    reconnects += o.reconnects;
    return *this;
  }

  /// Faults injected by the fault plan (not recovery work).
  [[nodiscard]] std::uint64_t total_injected() const {
    return drops + delays + duplicates + reorders + corruptions;
  }
};

/// One recorded worker eviction (FailurePolicy::kEvict).
struct Eviction {
  std::size_t worker = 0;
  /// Server rounds applied when the eviction happened (the first round whose
  /// mean could be re-normalized over the survivors).
  std::size_t round = 0;
};

struct SessionConfig {
  nn::Benchmark benchmark = nn::Benchmark::kResNet20;
  core::Scheme scheme = core::Scheme::kNone;
  double target_ratio = 1.0;
  /// Online compressibility-aware autotuning (core/autotune.h).  When the
  /// mode is not kOff and the scheme compresses, every worker arms a
  /// controller seeded at `target_ratio` (clamped into the bounds) that
  /// retunes its compressor per iteration from modeled signals only —
  /// engines stay bit-identical to each other under autotuning.
  core::AutotuneConfig autotune;
  std::size_t workers = 4;
  std::size_t iterations = 100;
  /// Evaluate every `eval_every` iterations (0 = final evaluation only).
  std::size_t eval_every = 0;
  std::size_t eval_batches = 2;
  std::uint64_t seed = 42;
  bool error_feedback = true;
  /// Evaluate the timing model at Table 1's paper-scale parameter counts
  /// rather than at the proxy model's dimension.
  bool paper_scale_timing = true;
  Device device = Device::kGpuModel;
  /// Fabric parameters; `network.workers` is overridden by `workers`.
  NetworkConfig network;

  Topology topology = Topology::kAllreduce;
  /// SSP slack for kParameterServer: a worker may compute round c on
  /// parameters missing at most this many applied rounds.  0 = fully
  /// synchronous (BSP).  Ignored by kAllreduce.
  std::size_t staleness_bound = 0;
  /// Number of gradient chunks whose collective transfer overlaps the
  /// producing compute/compress pipeline (kAllreduce only; 1 = no overlap).
  /// Chunking pays one latency hop per chunk — the classic tradeoff.
  std::size_t overlap_chunks = 1;
  /// Per-worker multipliers on modeled compute+compress seconds (> 1 slows a
  /// worker down: stragglers / heterogeneous devices).  Empty = homogeneous;
  /// otherwise size must equal `workers`.  Timing-only in kAllreduce; in
  /// kParameterServer it also reorders pushes and therefore staleness.
  /// Modeled-timing only: the threads engine runs at real hardware speed.
  std::vector<double> worker_time_scale;

  /// Execution engine (see Engine).  kThreads/kSockets run every worker on
  /// a real thread/process; numerics/bytes match kSimulated bit-for-bit at
  /// staleness 0.
  Engine engine = Engine::kSimulated;
  /// Bounded-queue capacity (messages) for the real engines: channel
  /// capacity under kThreads, per-peer socket send-queue bound under
  /// kSockets.  Any value >= 1 is deadlock-free and numerics-invariant; it
  /// only changes how much backpressure producers feel.  Ignored by
  /// kSimulated.
  std::size_t channel_capacity = 8;

  /// Deterministic fault injection (real engines only; see
  /// FaultInjectionConfig).  Default: no faults.
  FaultInjectionConfig fault;
  /// Reliable-delivery layer; forced on whenever `fault` is lossy or cuts a
  /// link.
  ReliabilityConfig reliability;
  /// Confirmed-dead-worker policy (kEvict needs kParameterServer topology
  /// and reliability.enabled).
  FailurePolicy on_worker_failure = FailurePolicy::kFailFast;
  /// Session watchdog: the whole session (rendezvous included) must finish
  /// within this many seconds or every transport call fails with a
  /// descriptive CheckError instead of hanging.  0 = no deadline.
  double deadline_seconds = 0.0;
};

struct IterationRecord {
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double achieved_ratio = 0.0;
  /// Measured bytes-on-wire of this iteration's worker pushes: the summed
  /// sizes of the actual comm-codec payloads (proxy dimension).  Zero for
  /// single-worker sessions — nothing crosses the wire.  Parameter-server
  /// pull traffic is accounted on SessionResult::total_wire_bytes only
  /// (pulls span rounds).
  std::size_t wire_bytes = 0;
  int stages_used = 1;
  double compute_seconds = 0.0;
  double compression_seconds = 0.0;
  double communication_seconds = 0.0;
  /// Modeled wall-clock of this iteration/round when the event runtime
  /// computed one (overlap and async make the breakdown non-additive);
  /// negative = not set, wall_seconds() falls back to the sum.
  double modeled_wall_seconds = -1.0;

  [[nodiscard]] double wall_seconds() const {
    if (modeled_wall_seconds >= 0.0) return modeled_wall_seconds;
    return compute_seconds + compression_seconds + communication_seconds;
  }
};

struct EvalRecord {
  std::size_t iteration = 0;  ///< 1-based iteration the eval follows
  double loss = 0.0;
  double accuracy = 0.0;
  /// Benchmark quality metric (accuracy / perplexity / CER), direction per
  /// benchmark_quality().
  double quality = 0.0;
};

/// Direction-aware quality value (Table 1's metric per benchmark).
struct QualityMetric {
  double value = 0.0;
  bool higher_is_better = true;
};

/// Maps (mean eval loss, eval accuracy) to the benchmark's quality metric:
/// accuracy for the image models, perplexity exp(loss) for PTB, character
/// error rate 1 - accuracy for AN4.
QualityMetric benchmark_quality(nn::Benchmark benchmark, double mean_loss,
                                double accuracy);

struct SessionResult {
  SessionConfig config;
  std::size_t gradient_dimension = 0;
  std::vector<IterationRecord> iterations;
  std::vector<EvalRecord> evals;
  double final_loss = 0.0;
  double final_quality = 0.0;
  bool quality_higher_is_better = true;
  double total_modeled_seconds = 0.0;
  /// Total measured bytes-on-wire serialized by the comm codec at the proxy
  /// dimension: every worker push payload, plus parameter-pull payloads in
  /// kParameterServer.  Zero when workers == 1.
  std::size_t total_wire_bytes = 0;
  /// Dense-fp32 equivalent of the same traffic (4 bytes x dimension per
  /// payload) — the denominator of effective_wire_ratio().
  std::size_t total_dense_equiv_bytes = 0;
  /// Final model parameters (worker-0 replica; the canonical server copy in
  /// kParameterServer).  Enables bit-identity regression tests.
  std::vector<float> final_parameters;
  /// staleness_histogram[s] counts applied gradients computed on parameters
  /// missing s rounds.  Synchronous paths record everything in bin 0.
  std::vector<std::size_t> staleness_histogram;

  /// Real measured wall-clock (util::Timer) of the whole session under the
  /// threads engine; 0 under the simulated engine.  Excluded from golden
  /// comparison — it reports what the hardware actually did.
  double measured_wall_seconds = 0.0;
  /// Max over workers of their summed real step (forward/backward/compress)
  /// seconds — the measured critical-path compute.  Threads engine only.
  double measured_compute_seconds = 0.0;
  /// Max over workers of their summed real exchange seconds (channel sends,
  /// payload collection/decode waits, parameter pulls).  Threads engine only.
  double measured_comm_seconds = 0.0;

  /// Transport fault/recovery counters summed over every endpoint that
  /// reported (workers ship theirs in the kDone frame; the coordinator adds
  /// its own).  All zero for fault-free sessions.  Never golden-compared.
  FaultCounters fault_counters;
  /// Workers evicted under FailurePolicy::kEvict, in eviction order.  Empty
  /// means every worker survived (and results are bit-identical to the
  /// fault-free oracle under any lossy-but-connected schedule).
  std::vector<Eviction> evictions;

  [[nodiscard]] double mean_staleness() const;
  [[nodiscard]] std::size_t max_staleness() const;

  /// Measured bytes-on-wire relative to shipping dense fp32 payloads on the
  /// same schedule: total_wire_bytes / total_dense_equiv_bytes.  This is the
  /// honest counterpart of achieved_ratio — index-encoding overhead and
  /// aggregation-side densification (PS pulls) land here.  0 when nothing
  /// crossed the wire.
  [[nodiscard]] double effective_wire_ratio() const;

  /// Aggregate samples/s under the modeled wall time.
  [[nodiscard]] double throughput_samples_per_second() const;

  [[nodiscard]] std::vector<double> loss_series() const;
  [[nodiscard]] std::vector<double> achieved_ratio_series() const;
};

/// Runs a full training session, dispatching on `config.engine` (simulated
/// event runtime vs real threads) and `config.topology`.  The simulated
/// engine is deterministic in `config` for everything except the
/// measured-CPU latency fields — and, in kParameterServer, determinism of
/// the event order itself requires the analytic device model
/// (Device::kGpuModel).  The threads engine is
/// deterministic on numerics/bytes in kAllreduce and in kParameterServer at
/// staleness 0; at staleness > 0 real scheduling decides which admissible
/// version a worker computes on (README "Execution engines").
SessionResult run_session(const SessionConfig& config);

/// The frozen pre-event-runtime synchronous loop, kept verbatim as the
/// regression oracle: run_session with the default topology/overlap/speed
/// fields — and the kParameterServer path at staleness_bound == 0 — must
/// match it bit-for-bit on parameters, losses and evals.  New code should
/// call run_session.
SessionResult run_session_reference(const SessionConfig& config);

}  // namespace sidco::dist
