// Socket-backed transport: the same TransportMessages as InMemoryTransport,
// framed over real Unix-domain or TCP sockets (comm/frame.h) — one process
// (or thread, in tests) per endpoint.
//
// Topology of the fabric: a full mesh.  For E endpoints the rendezvous
// binds one listening socket per endpoint up front (so it can happen
// *before* fork, making connect-vs-listen races impossible), then each
// participant calls establish(id) exactly once:
//
//  - it connects to the listener of every lower-id endpoint, and
//  - accepts one connection from every higher-id endpoint,
//
// exchanging a symmetric hello frame (kind 0, empty body, `from` = sender
// id) on every link.  The hello is what names the peer on the accept side —
// accept order is scheduler-dependent — and what authenticates the link on
// both sides: wrong magic/version or an unexpected peer id fails fast with
// util::CheckError, and a peer that closes mid-handshake surfaces as
// "peer closed during transport handshake" instead of a hang.
//
// Address families: kUnix (default) binds per-endpoint sockets in a private
// mkdtemp directory; kTcp binds 127.0.0.1 ephemeral ports (read back with
// getsockname before fork).  address(id) exposes the bound address for
// tests and diagnostics.
//
// Endpoint runtime model: strictly single-threaded.  All link fds are
// non-blocking and serviced by one poll() pump that always reads (inbound
// frames accumulate in a ready queue) and writes whatever the per-peer
// bounded send queues hold.  send() enqueues a frame and, while the
// destination queue is over `send_queue_capacity`, blocks *in the pump* —
// so a blocked sender keeps draining its inbound links and two endpoints
// sending large bursts at each other cannot deadlock (the socket-fabric
// analogue of InMemoryTransport's drain-own-inbox rule).  The flip side of
// buffered sends: an endpoint that stops calling send()/recv() stops
// pumping, so up to `send_queue_capacity` tail frames could die in its
// queue — callers MUST Endpoint::flush() before going quiet (the process
// engine flushes every worker before _exit and the coordinator after its
// protocol body).
//
// Data path: a send-queue entry is the encoded frame header plus the
// message's shared payload pointer, and one sendmsg writes both, so a
// payload is never copied in user space.  The entry owns the payload until
// its last byte is written.  A link's kernel send buffer grows
// (SO_SNDBUF, never shrunk, capped by net.core.wmem_max) to hold the
// largest frame queued on it, so a large frame reaches the kernel in one
// hand-off while its receiver is busy elsewhere.  Inbound frames up to
// 64 KiB parse from a per-link staging buffer; a larger body is read
// straight into the buffer that becomes the TransportMessage payload, and
// grows only by what FIONREAD reports queued.
//
// The stream decoder is strict: every frame header goes through
// comm::decode_frame_header (bad magic / version / reserved bytes /
// oversized body_len throw), a frame whose `from` is not the peer on that
// link or that is a hello is rejected — all before any body memory is
// committed — and EOF with a partial frame buffered is reported as a
// truncated stream.  Failures surface as util::CheckError from send()/
// recv() — the engines route them into their error paths (ErrorSink slots
// under threads, session failure in the process engine) rather than hang.
//
// Fault tolerance (PR 7): establish() retries connect() with capped
// exponential backoff (a slow-starting peer is not an error), every blocking
// wait honors the session watchdog deadline (set_deadline), and in
// link-recovery mode (set_link_recovery, enabled by the engines whenever the
// reliable-delivery decorator is stacked on top) a lost link degrades
// quietly: EOF discards any dangling partial frame instead of throwing, and
// reconnect() re-establishes the link with backoff — the original connector
// re-connects to the peer's listener, the original acceptor re-accepts on
// its own listener.  A new link starts with empty stream state: it never
// completes a frame half-read on the old one.  Frames lost with the link
// are the reliable layer's problem (retransmission), which is why recovery
// mode requires it.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "runtime/transport.h"

namespace sidco::runtime {

class SocketTransport {
 public:
  enum class Family {
    kUnix,  ///< AF_UNIX stream sockets in a private temp directory
    kTcp,   ///< 127.0.0.1 ephemeral-port TCP (TCP_NODELAY)
  };

  /// Binds one listener per endpoint (rendezvous).  Do this before forking
  /// participants.  `send_queue_capacity` bounds each per-peer send queue
  /// in messages, mirroring Channel capacity semantics (>= 1).
  SocketTransport(std::size_t endpoints, std::size_t send_queue_capacity,
                  Family family = Family::kUnix);
  ~SocketTransport();

  /// The established endpoint for `id`.  Throws util::CheckError when
  /// establish(id) has not run in this process.
  Endpoint& endpoint(std::size_t id);

  /// Closes every established link and listener owned by this process;
  /// blocked send()/recv() calls observe end-of-stream.
  void shutdown();

  /// Connects/accepts and handshakes every link of endpoint `id` (see file
  /// comment).  Call exactly once per id, from the participant that owns
  /// it.  Blocks until every peer has established its side.
  Endpoint& establish(std::size_t id);

  /// The listener address of `id`: the socket path (kUnix) or
  /// "127.0.0.1:<port>" (kTcp).  Valid from construction.
  [[nodiscard]] std::string address(std::size_t id) const;

  /// Closes the listener fds of every endpoint except `id` in this process.
  /// Forked children call this so the only rendezvous fd they keep is their
  /// own listener.
  void forget_other_listeners(std::size_t id);

  /// Arms the session watchdog for every endpoint established afterwards
  /// (including the rendezvous waits themselves).  Call before forking so
  /// children inherit it.
  void set_deadline(std::chrono::steady_clock::time_point deadline);

  /// Enables link-recovery mode for endpoints established afterwards: EOF
  /// becomes a quiet link close (dangling partial frames are discarded, not
  /// fatal) and Endpoint::reconnect() works.  Only sound underneath the
  /// reliable-delivery decorator, which retransmits whatever died with the
  /// link.  Call before forking.
  void set_link_recovery(bool enabled);

  /// Deterministic one-shot link cut (chaos tests): once the endpoint
  /// `from` has fully written `after` frames to `to`, it writes only part of
  /// the next reliable data envelope (comm::kReliableDataKind) on that link
  /// and hard-closes it.  Call before forking; requires link-recovery mode
  /// to be survivable.
  void set_link_cut(std::size_t from, std::size_t to, std::size_t after);

 private:
  class SocketEndpoint;
  struct Listener;
  struct Rendezvous;

  std::unique_ptr<Rendezvous> rendezvous_;
  std::vector<std::unique_ptr<SocketEndpoint>> endpoints_;
  std::size_t queue_capacity_ = 1;
};

}  // namespace sidco::runtime
