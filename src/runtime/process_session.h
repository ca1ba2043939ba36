// Multi-process distributed runtime over real sockets (the "sockets"
// engine).
//
// Every worker of a session runs in a *forked process* and exchanges the
// exact PR 4 codec bytes with its peers over a SocketTransport
// (runtime/socket_transport.h) — Unix-domain stream sockets by default,
// loopback TCP when the environment variable SIDCO_SOCKET_FAMILY=tcp.  The
// parent process is endpoint n: the allgather coordinator or the parameter
// server, running the same topology bodies (runtime/topology.h) as the
// threaded engine.  Because the protocol code, the dist::detail record
// helpers and the frozen seed derivations are all shared, the engine is
// bit-identical to the threads engine on final parameters, per-iteration
// losses/evals and push wire bytes (test_socket_differential enforces it).
//
// Fork discipline: the rendezvous binds every listener before fork (no
// connect-vs-listen races), the process-wide ThreadPool is narrowed to a
// single thread for the duration of the session (forking a process with
// live pool threads would duplicate locked state; the pool contract keeps
// numerics bit-identical at any width), and stdio is flushed so children do
// not replay buffered output.  A child that fails sends a kError frame to
// the parent when it can and always _exit()s — never returns into the
// duplicated gtest/caller stack.
//
// Callers normally reach this engine through dist::run_session with
// SessionConfig::engine = Engine::kSockets.
#pragma once

#include "dist/session.h"

namespace sidco::runtime {

/// Runs `config` with one forked process per worker, the calling process as
/// coordinator/server.  `config.engine` is not consulted (the dispatch
/// already happened); worker_time_scale behaves as under the threads engine
/// (modeled-timing only).  SessionConfig::channel_capacity bounds the
/// per-peer socket send queues, mirroring channel semantics.
dist::SessionResult run_session_processes(const dist::SessionConfig& config);

}  // namespace sidco::runtime
