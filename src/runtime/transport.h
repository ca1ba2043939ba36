// Pluggable point-to-point transport for the real (non-simulated) execution
// engines.
//
// PR 5 proved the threaded runtime directly on bounded channels; this
// interface extracts the one capability the topology code actually uses —
// "blocking send to an endpoint, blocking receive from my endpoint, shared
// shutdown" — so the same allgather / parameter-server protocol bodies
// (runtime/topology.h) run unchanged over two very different fabrics:
//
//  - InMemoryTransport: one bounded Channel<TransportMessage> per endpoint
//    (runtime/channel.h).  This is the PR 5 machinery verbatim, including
//    its deadlock-avoidance rule: a sender blocked on a full peer inbox
//    keeps draining its *own* inbox into a pending stash, so a ring of
//    mutually-full capacity-1 inboxes still makes progress.
//  - SocketTransport (socket_transport.h): the same messages framed over
//    Unix-domain or TCP sockets, one process per endpoint.
//
// Contract shared by all implementations:
//  - An Endpoint is single-owner: exactly one thread (or process) calls its
//    send()/recv().  Different endpoints of one transport are used
//    concurrently — that is the point.
//  - send() blocks until the message is accepted (bounded queues provide
//    backpressure) and returns false only when the transport has shut down;
//    the message is dropped in that case.
//  - recv() blocks for the next message addressed to this endpoint, in
//    per-sender FIFO order (messages from different senders interleave
//    arbitrarily).  nullopt means shut down and drained — end of stream.
//  - shutdown() is the cooperative abort: it wakes every blocked send/recv
//    on every endpoint.  Messages already accepted remain receivable.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

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

/// Health of one directed link as this endpoint sees it.  In-memory links
/// are always kOpen (a channel cannot fail); socket links close on EOF /
/// reset and may be re-established by reconnect().
enum class LinkState {
  kOpen,
  kReconnecting,  ///< a reconnect() is in flight
  kClosed,
};

/// Per-endpoint transport event counters (injected faults and recovery
/// work).  Decorators compose: counters() on the outermost decorator sums
/// its own events with everything underneath.  Field semantics match
/// dist::FaultCounters, which aggregates these across a whole session.
struct TransportCounters {
  std::uint64_t drops = 0;
  std::uint64_t delays = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t reconnects = 0;

  TransportCounters& operator+=(const TransportCounters& o) {
    drops += o.drops;
    delays += o.delays;
    duplicates += o.duplicates;
    reorders += o.reorders;
    corruptions += o.corruptions;
    retransmits += o.retransmits;
    reconnects += o.reconnects;
    return *this;
  }
};

/// One participant's view of the transport.  Single-owner (see file
/// comment); never shared between threads.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Blocking send to endpoint `to`.  False = transport shut down (message
  /// dropped); the caller should abort its protocol loop.
  virtual bool send(std::size_t to, TransportMessage message) = 0;

  /// Blocking receive.  nullopt = transport shut down and every delivered
  /// message consumed.
  virtual std::optional<TransportMessage> recv() = 0;

  /// Blocks until every message accepted by send() has actually left this
  /// endpoint.  A buffering transport may return from send() with frames
  /// still queued locally (the bounded send queue), and those frames are
  /// only pumped out by this endpoint's own send()/recv() calls — so an
  /// endpoint MUST flush() before going quiet (worker exits, end of
  /// protocol), or its tail frames can be lost with no one left to pump
  /// them.  No-op for transports that deliver synchronously (in-memory).
  virtual void flush() {}

  /// recv() that gives up after `timeout`.  On timeout: nullopt with
  /// `timed_out` true.  Otherwise identical to recv() (`timed_out` false;
  /// nullopt still means shut down and drained).  The base transports
  /// implement this for real; the default ignores the timeout — decorators
  /// that need timed waits (reliable retransmission) require a base that
  /// supports it.
  virtual std::optional<TransportMessage> recv_for(
      std::chrono::milliseconds timeout, bool& timed_out) {
    (void)timeout;
    timed_out = false;
    return recv();
  }

  /// Health of the directed link to `peer`.  Always kOpen for fabrics whose
  /// links cannot fail (in-memory channels).
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

  /// Transport event counters accumulated by this endpoint (decorators sum
  /// in everything they wrap).  Plain transports report zeros.
  [[nodiscard]] virtual TransportCounters counters() const { return {}; }
};

/// Owner of all endpoints of one session.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual std::size_t endpoint_count() const = 0;

  /// The endpoint for participant `id` (workers 0..n-1 plus the
  /// coordinator/server as the last id, by topology convention).
  virtual Endpoint& endpoint(std::size_t id) = 0;

  /// Cooperative abort/teardown; idempotent.  See file comment.
  virtual void shutdown() = 0;

  /// Arms the session watchdog: once `deadline` passes, every blocking
  /// transport call on every endpoint fails with a descriptive
  /// util::CheckError instead of waiting forever.  Set before handing
  /// endpoints to participants (pre-thread, pre-fork).  Default: no-op for
  /// transports without blocking waits.
  virtual void set_deadline(std::chrono::steady_clock::time_point deadline) {
    (void)deadline;
  }
};

/// The PR 5 bounded-channel fabric behind the Transport interface.  Each
/// endpoint's inbox is a Channel<TransportMessage> of `capacity` messages
/// (SessionConfig::channel_capacity) — any capacity >= 1 is deadlock-free
/// and numerics-invariant, exactly as before the refactor.
class InMemoryTransport final : public Transport {
 public:
  InMemoryTransport(std::size_t endpoints, std::size_t capacity);
  ~InMemoryTransport() override;

  [[nodiscard]] std::size_t endpoint_count() const override;
  Endpoint& endpoint(std::size_t id) override;
  void shutdown() override;
  /// Closes one endpoint's inbox: sends to it fail fast instead of blocking
  /// on a full channel nobody drains.  An endpoint must close itself when
  /// its owner goes quiet for good — the in-memory analog of a process
  /// exiting and its sockets going EPIPE.
  void close_endpoint(std::size_t id);
  void set_deadline(std::chrono::steady_clock::time_point deadline) override;

 private:
  class InMemoryEndpoint;
  std::vector<std::unique_ptr<InMemoryEndpoint>> endpoints_;
};

}  // namespace sidco::runtime
