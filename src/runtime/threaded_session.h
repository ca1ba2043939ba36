// In-process multi-threaded distributed runtime.
//
// Every worker of a session runs on a real std::thread, does real
// forward/backward/compress work, and exchanges gradients as *encoded wire
// payloads* (comm/codec.h) through an InMemoryTransport (runtime/transport.h,
// bounded channels under the hood) — no shared gradient memory, everything
// crosses a thread boundary as bytes, exactly as it would cross a NIC.  The
// protocol bodies themselves live in runtime/topology.h and are shared
// verbatim with the sockets engine (runtime/process_session.h).  Two
// topologies:
//
//  - kAllreduce: lock-step collective.  Each worker broadcasts its encoded
//    payload to every peer's inbox, collects all N payloads of the
//    iteration, and reduces them locally in worker order 0..N-1 through
//    comm::SparseAccumulator — the same deterministic reduction order as the
//    simulated engine, so every replica applies a bit-identical mean and the
//    final parameters / losses / wire bytes match run_session_reference
//    bit-for-bit at any worker count and any channel capacity.
//
//  - kParameterServer: a server thread owns the canonical parameters.
//    Workers push encoded gradients over one MPSC channel; the server
//    stages them in the shared dist::detail::PsServer, applies each
//    complete round's mean (worker order, one canonical optimizer) and
//    grants the next round to a worker only when the SSP admission
//    `applied_version + staleness_bound >= round` holds — the simulated
//    driver's bounded-staleness semantics, from the same code.  At
//    staleness_bound 0 this degenerates to lock-step BSP and is
//    bit-identical to the oracle; at staleness > 0 the admission is still
//    enforced but real scheduling decides which admissible version a worker
//    computes on, so numerics become schedule-dependent (by design: that is
//    what a real async system does).
//
// Wall-clock per phase is *measured* (util::Timer) alongside the modeled
// times: SessionResult.measured_{wall,compute,comm}_seconds report what the
// hardware actually did, while the modeled fields keep reporting the
// device/network model (allgather reuses the simulated engine's closed-form
// timing verbatim; the parameter-server path models compute+compression only
// — modeled communication needs the event timeline, which is the simulated
// engine's job).
//
// Callers normally reach this engine through dist::run_session with
// SessionConfig::engine = Engine::kThreads.
#pragma once

#include "dist/session.h"

namespace sidco::runtime {

/// Runs `config` on real threads, one per worker.  `config.engine` is not
/// consulted (the dispatch already happened); everything else is honored,
/// except worker_time_scale (modeled-timing only; real threads run at
/// hardware speed, so it is reflected in the modeled fields but cannot slow a
/// thread down).
dist::SessionResult run_session_threads(const dist::SessionConfig& config);

}  // namespace sidco::runtime
