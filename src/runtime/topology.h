// Topology protocol bodies shared by every real execution engine.
//
// The allgather and parameter-server protocols of the threaded engine
// (PR 5) are expressed here once, parameterized over a transport Endpoint
// (transport.h), so the threads engine (endpoints = threads over bounded
// channels) and the sockets engine (endpoints = forked processes over
// framed sockets) run *literally the same protocol code*.  That sharing —
// on top of the dist::detail helpers for seeds, aggregation order, byte
// accounting and record assembly — is what makes the engines bit-identical
// on final parameters, per-iteration losses/evals and push wire bytes by
// construction (test_socket_differential enforces it).
//
// Endpoint ids: workers are 0..n-1, the coordinator (allgather) or server
// (parameter server) is endpoint n.  Message kinds and body layouts are
// defined below; every multi-byte scalar crosses as the little-endian
// primitives of comm/frame.h (doubles as IEEE 754 bit patterns — bit-exact),
// and a whole parameter vector as a comm dense fp32 message (comm/codec.h).
//
// Abort semantics: a body throws AbortedError when the transport shuts down
// under it (a peer failed).  The threads engine treats that as cooperative
// shutdown — the originating error lives in another thread's slot; the
// sockets engine maps it to a descriptive session failure.  Real protocol
// violations throw util::CheckError as everywhere else.
//
// Internal to the runtime module: not for use by application code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/session.h"
#include "dist/worker.h"
#include "runtime/transport.h"
#include "util/timer.h"

namespace sidco::runtime::topo {

/// Thrown inside a protocol body when the session is shutting down (another
/// participant failed, transport closed).  Not an error in itself: the
/// *first* real error is what the engine reports.
struct AbortedError {};

// Message kinds (frame header `kind`).  0 is reserved for the socket
// transport's handshake hello.
inline constexpr std::uint8_t kPayloadKind = 1;  ///< encoded gradient bytes
inline constexpr std::uint8_t kReportKind = 2;   ///< allgather step scalars
inline constexpr std::uint8_t kPushKind = 3;     ///< PS scalars + gradient
inline constexpr std::uint8_t kGrantKind = 4;    ///< SSP admission (+params)
inline constexpr std::uint8_t kParamsKind = 5;   ///< final parameters
inline constexpr std::uint8_t kDoneKind = 6;     ///< measured seconds
inline constexpr std::uint8_t kErrorKind = 7;    ///< remote failure text

/// Per-participant measured wall-clock, shipped to the coordinator in a
/// kDone message when a worker finishes.
struct MeasuredSeconds {
  double compute = 0.0;
  double comm = 0.0;
};

/// Fills result.measured_*: the wall-clock read from `wall`, and compute and
/// comm as the maximum over the participants' kDone reports.
void fill_measured(dist::SessionResult& result, const util::Timer& wall,
                   std::span<const MeasuredSeconds> measured);

/// Allgather worker `w`: lock-step broadcast of the encoded payload to every
/// peer, collect all N payloads, reduce in worker order 0..N-1 (the exact
/// order of tensor::aggregate_mean, so every replica computes a
/// bit-identical mean), report step scalars (worker 0: plus scheduled
/// evals) to the coordinator.  After the last iteration worker 0 ships its
/// final parameters (kParams) and every worker its measured seconds (kDone).
void run_collective_worker(const dist::SessionConfig& config, std::size_t w,
                           dist::Worker& worker, Endpoint& endpoint);

/// Allgather coordinator (endpoint n): assembles per-iteration records from
/// the step reports through dist::detail::collective_iteration_record,
/// then collects every worker's kDone (into `measured`, size n) and worker
/// 0's kParams (a comm dense fp32 message of `dim` values) into
/// result.final_parameters.  Fills iterations / evals /
/// byte totals / staleness histogram of `result`; the engine finishes with
/// finalize_result and its own wall-clock.
void run_collective_coordinator(const dist::SessionConfig& config,
                                std::size_t dim, Endpoint& endpoint,
                                dist::SessionResult& result,
                                std::vector<MeasuredSeconds>& measured);

/// Parameter-server worker `w`: push encoded gradients (kPush), block on
/// SSP admission grants (kGrant; a non-empty body carries a fresh parameter
/// snapshot as a comm dense fp32 message, like kParams), kDone at the end.
/// A snapshot that is not a dense fp32 message of the model's dimension is
/// a util::CheckError.
void run_ps_worker(const dist::SessionConfig& config, std::size_t w,
                   dist::Worker& worker, Endpoint& endpoint);

/// Parameter-server loop (endpoint n): owns the canonical parameters
/// (seeded from `init_params`, worker 0's initial replica), buckets pushes
/// per round, applies each complete round's mean through the shared
/// dist::detail::PsApplyState (staleness-0 bit-identity), and grants under
/// the SSP admission `version + staleness_bound >= round`.  Fills the
/// engine-shared fields of `result` and collects kDone into `measured`.
void run_ps_server(const dist::SessionConfig& config,
                   const std::vector<float>& init_params, std::size_t dim,
                   Endpoint& endpoint, dist::SessionResult& result,
                   std::vector<MeasuredSeconds>& measured);

}  // namespace sidco::runtime::topo
