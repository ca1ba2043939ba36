// Point-to-point transport for the real (non-simulated) execution engines.
//
// The topology code (runtime/topology.h) needs one capability — "blocking
// send to an endpoint, blocking receive from my endpoint" — so the same
// allgather / parameter-server protocol bodies run unchanged over two very
// different fabrics, each an Endpoint implementation:
//
//  - InMemoryTransport: one bounded Channel<TransportMessage> per endpoint
//    (runtime/channel.h).  A sender blocked on a full peer inbox keeps
//    draining its *own* inbox into a pending stash, so a ring of
//    mutually-full capacity-1 inboxes still makes progress.
//  - SocketTransport (socket_transport.h): the same messages framed over
//    Unix-domain or TCP sockets, one process per endpoint.
//
// The chaos decorators (runtime/fault.h, runtime/reliable.h) are Endpoints
// too, stacked over either fabric.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "dist/session.h"

namespace sidco::runtime {

/// One message between endpoints.  The payload is a shared immutable buffer:
/// broadcasting to N-1 peers copies a pointer, not the bytes, on every
/// transport (a real NIC would DMA the same buffer; copying it N times would
/// measure memcpy bandwidth, not exchange behavior).  On sockets the send
/// queue holds that pointer until the kernel has taken the last byte, and a
/// large received body is read straight into the payload buffer.  `kind`
/// and `seq` are protocol tags owned by the topology layer; the transport
/// carries them opaquely (on sockets they ride the frame header,
/// comm/frame.h).
struct TransportMessage {
  std::uint8_t kind = 0;
  std::size_t from = 0;
  std::uint64_t seq = 0;
  std::shared_ptr<const std::vector<std::uint8_t>> payload;

  [[nodiscard]] std::size_t body_size() const {
    return payload ? payload->size() : 0;
  }
};

/// Health of one directed link as this endpoint sees it.  A link closes when
/// the peer is gone: its in-memory inbox closed, or its socket hit EOF /
/// reset (socket links may be re-established by reconnect()).
enum class LinkState {
  kOpen,
  kClosed,
};

/// One participant's view of the transport.
///
/// Contract shared by every implementation:
///  - An Endpoint is single-owner: exactly one thread (or process) calls its
///    send()/recv().  Different endpoints of one transport are used
///    concurrently — that is the point.
///  - send() blocks until the message is accepted (bounded queues provide
///    backpressure) and returns false only when the transport has shut down
///    or the link is gone; the message is dropped in that case.
///  - recv_for() is the one receive a fabric (or decorator) implements: it
///    waits at most `timeout` for the next message addressed to this
///    endpoint, in per-sender FIFO order (messages from different senders
///    interleave arbitrarily).  recv() is a loop over it.
///  - The owning transport's shutdown() is the cooperative abort: it wakes
///    every blocked send/recv on every endpoint.  Messages already accepted
///    remain receivable.
///  - The fabrics' timed waits honor the session watchdog (check_deadline).
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Blocking send to endpoint `to`.  False = transport shut down or link
  /// gone (message dropped); the caller should abort its protocol loop.
  virtual bool send(std::size_t to, TransportMessage message) = 0;

  /// Receive that gives up after `timeout`: nullopt with `timed_out` true.
  /// Otherwise `timed_out` is false, and nullopt means shut down and every
  /// delivered message consumed — end of stream.
  virtual std::optional<TransportMessage> recv_for(
      std::chrono::milliseconds timeout, bool& timed_out) = 0;

  /// Blocking receive: recv_for in 100 ms slices until a message or end of
  /// stream (nullopt).
  std::optional<TransportMessage> recv();

  /// Blocks until every message accepted by send() has actually left this
  /// endpoint.  A buffering transport may return from send() with frames
  /// still queued locally (the bounded send queue), and those frames are
  /// only pumped out by this endpoint's own send()/recv() calls — so an
  /// endpoint MUST flush() before going quiet (worker exits, end of
  /// protocol), or its tail frames can be lost with no one left to pump
  /// them.  No-op for transports that deliver synchronously (in-memory).
  virtual void flush() {}

  /// Health of the directed link to `peer`.  The default is for decorators
  /// that do not track links.
  [[nodiscard]] virtual LinkState link_state(std::size_t peer) const {
    (void)peer;
    return LinkState::kOpen;
  }

  /// Attempts to re-establish a closed link to `peer` (bounded attempts with
  /// capped backoff inside).  True when the link is open afterwards.  The
  /// default cannot: only fabrics with real links (sockets) implement it.
  virtual bool reconnect(std::size_t peer) {
    (void)peer;
    return false;
  }

  /// True once the owning transport has shut down (cooperative abort).
  /// Distinguishes "transport torn down" from "this one link failed" for
  /// send() == false / recv() == nullopt.
  [[nodiscard]] virtual bool is_shut_down() const { return false; }

  /// Fault and recovery events counted by this endpoint.  Decorators sum in
  /// everything they wrap; plain fabrics count only reconnects.
  [[nodiscard]] virtual dist::FaultCounters counters() const { return {}; }
};

/// The session watchdog deadline for `config`: now + config.deadline_seconds
/// when that is set, else nullopt.  Engines arm their transport's
/// set_deadline with it before starting participants.
[[nodiscard]] std::optional<std::chrono::steady_clock::time_point>
session_deadline(const dist::SessionConfig& config);

/// The watchdog's one check, called by every timed wait of both fabrics:
/// fails with a util::CheckError naming `where` once `deadline` has passed;
/// no-op without a deadline.
void check_deadline(
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    const char* where);

/// The bounded-channel fabric.  Each endpoint's inbox is a
/// Channel<TransportMessage> of `capacity` messages
/// (SessionConfig::channel_capacity) — any capacity >= 1 is deadlock-free
/// and numerics-invariant.
class InMemoryTransport {
 public:
  InMemoryTransport(std::size_t endpoints, std::size_t capacity);
  ~InMemoryTransport();

  /// The endpoint for participant `id` (workers 0..n-1 plus the
  /// coordinator/server as the last id, by topology convention).
  Endpoint& endpoint(std::size_t id);

  /// Cooperative abort/teardown: closes every inbox; idempotent.
  void shutdown();

  /// Closes one endpoint's inbox: sends to it fail fast instead of blocking
  /// on a full channel nobody drains, and its peers see the link closed.  An
  /// endpoint must close itself when its owner goes quiet for good — the
  /// in-memory analog of a process exiting and its sockets going EPIPE.
  void close_endpoint(std::size_t id);

  /// Arms the session watchdog: once `deadline` passes, every blocking call
  /// on every endpoint fails with a descriptive util::CheckError instead of
  /// waiting forever.  Set before handing endpoints to participants.
  void set_deadline(std::chrono::steady_clock::time_point deadline);

 private:
  class InMemoryEndpoint;
  std::vector<std::unique_ptr<InMemoryEndpoint>> endpoints_;
};

}  // namespace sidco::runtime
