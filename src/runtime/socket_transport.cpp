#include "runtime/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "comm/frame.h"
#include "util/check.h"

namespace sidco::runtime {

namespace {

/// Handshake frame kind; protocol kinds (runtime/topology.h) start at 1.
constexpr std::uint8_t kHelloKind = 0;

/// Slice for blocking waits: bounds how often a blocked pump re-checks the
/// watchdog deadline.  Rare wakeups (an idle endpoint ticks ~10/s); socket
/// readiness wakes the poll immediately regardless.
constexpr int kPumpSliceMs = 100;

/// Capped exponential backoff for connect()/reconnect attempts.  The total
/// attempt budget (~2.5 s) is deliberately far under any sane session
/// deadline and far over a peer's restart/accept latency.
constexpr int kConnectAttempts = 12;
constexpr std::chrono::milliseconds kBackoffInitial{10};
constexpr std::chrono::milliseconds kBackoffMax{250};

/// Mid-session reconnects get a much smaller budget than the initial
/// establish: reconnect() blocks the caller's event loop, and an endpoint
/// stalled past its peers' reliable-layer liveness windows (silence
/// timeouts, retransmit budgets) gets itself declared dead by the survivors
/// it was neglecting.  ~0.3 s of backoff is plenty for a live peer whose
/// listener never went away, and a SIGKILLed peer fails every attempt
/// anyway.
constexpr int kReconnectAttempts = 6;

/// Inbound bytes land in a per-link staging buffer of this size and small
/// frames parse from there.  A frame too large for it has its body read
/// straight into the buffer that becomes the TransportMessage payload.
constexpr std::size_t kStagingBytes = 64 * 1024;

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail_errno(const std::string& what) {
  util::check_fail(what + ": " + std::strerror(errno));
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail_errno("socket transport: fcntl(O_NONBLOCK) failed");
  }
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best-effort: gradient frames are latency-sensitive in lock-step
  // topologies; ignore failure (e.g. not a TCP socket).
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Blocking write of the whole buffer (handshake only; established links
/// are non-blocking and pumped).  MSG_NOSIGNAL: a dead peer must surface as
/// an error, not SIGPIPE.
void write_exact(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t sent = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      fail_errno("socket transport: handshake write failed");
    }
    done += static_cast<std::size_t>(sent);
  }
}

/// Deadline-aware read of exactly `len` bytes (handshake only).  A peer
/// closing the link mid-handshake fails fast with a descriptive error; a
/// peer that wedges fails at the watchdog deadline instead of hanging.
void read_exact(int fd, std::uint8_t* data, std::size_t len,
                const std::optional<Clock::time_point>& deadline) {
  std::size_t done = 0;
  while (done < len) {
    check_deadline(deadline, "transport handshake");
    struct pollfd pfd{.fd = fd, .events = POLLIN, .revents = 0};
    const int rc = ::poll(&pfd, 1, kPumpSliceMs);
    if (rc < 0) {
      if (errno == EINTR) continue;
      fail_errno("socket transport: handshake poll failed");
    }
    if (rc == 0) continue;
    const ssize_t got = ::recv(fd, data + done, len - done, 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      fail_errno("socket transport: handshake read failed");
    }
    if (got == 0) {
      util::check_fail("socket transport: peer closed during transport "
                       "handshake");
    }
    done += static_cast<std::size_t>(got);
  }
}

void send_hello(int fd, std::size_t self) {
  const auto head = comm::encode_frame_header(
      {.kind = kHelloKind,
       .from = static_cast<std::uint16_t>(self),
       .seq = 0,
       .body_len = 0});
  write_exact(fd, head.data(), head.size());
}

/// Reads and validates the peer's hello, returning its endpoint id.
std::size_t read_hello(int fd, std::size_t endpoints,
                       const std::optional<Clock::time_point>& deadline) {
  std::uint8_t buf[comm::kFrameHeaderBytes];
  read_exact(fd, buf, sizeof(buf), deadline);
  const comm::FrameHeader h = comm::decode_frame_header(buf);
  util::check(h.kind == kHelloKind && h.body_len == 0,
              "socket transport: malformed handshake hello");
  util::check(h.from < endpoints,
              "socket transport: hello from an unknown endpoint id");
  return h.from;
}

/// Bytes queued for reading on `fd` (FIONREAD).
std::size_t queued_bytes(int fd) {
  int n = 0;
  if (::ioctl(fd, FIONREAD, &n) < 0) {
    fail_errno("socket transport: ioctl(FIONREAD) failed");
  }
  return static_cast<std::size_t>(std::max(n, 0));
}

/// The kernel send buffer granted on `fd` (SO_SNDBUF; 0 if unreadable).
std::size_t send_buffer_bytes(int fd) {
  int n = 0;
  socklen_t len = sizeof(n);
  if (::getsockopt(fd, SOL_SOCKET, SO_SNDBUF, &n, &len) < 0) return 0;
  return static_cast<std::size_t>(std::max(n, 0));
}

bool retryable_connect_errno(int err) {
  return err == ECONNREFUSED || err == ETIMEDOUT || err == ECONNRESET ||
         err == EAGAIN || err == ENOENT;
}

}  // namespace

struct SocketTransport::Listener {
  int fd = -1;
  std::string address;   ///< socket path (kUnix) or "127.0.0.1:<port>"
  std::string uds_path;  ///< empty for kTcp
};

struct SocketTransport::Rendezvous {
  Family family = Family::kUnix;
  std::string directory;  ///< mkdtemp directory (kUnix)
  std::vector<Listener> listeners;
  // Session-wide knobs, set before fork so every participant inherits them.
  std::optional<Clock::time_point> deadline;
  bool link_recovery = false;
  std::size_t cut_from = static_cast<std::size_t>(-1);
  std::size_t cut_to = static_cast<std::size_t>(-1);
  std::size_t cut_after = 0;

  ~Rendezvous() {
    for (Listener& l : listeners) {
      close_fd(l.fd);
      if (!l.uds_path.empty()) ::unlink(l.uds_path.c_str());
    }
    if (!directory.empty()) ::rmdir(directory.c_str());
  }

  /// One connect attempt to listener `j`; -1 with errno set on failure.
  [[nodiscard]] int connect_once(std::size_t j) const {
    const Listener& l = listeners[j];
    int fd = -1;
    if (family == Family::kUnix) {
      struct sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, l.uds_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) fail_errno("socket transport: socket(AF_UNIX) failed");
      if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) < 0) {
        const int err = errno;
        close_fd(fd);
        errno = err;
        return -1;
      }
    } else {
      const auto colon = l.address.rfind(':');
      struct sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(
          std::stoi(l.address.substr(colon + 1))));
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) fail_errno("socket transport: socket(AF_INET) failed");
      if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) < 0) {
        const int err = errno;
        close_fd(fd);
        errno = err;
        return -1;
      }
      set_nodelay(fd);
    }
    return fd;
  }

  /// connect with capped exponential backoff on the transient errnos
  /// (ECONNREFUSED / ETIMEDOUT / ...): a peer that is slow to start or to
  /// re-listen is not an error until the attempt budget or the session
  /// deadline runs out.  Returns -1 when every attempt failed.
  [[nodiscard]] int connect_with_backoff(
      std::size_t j, int max_attempts = kConnectAttempts) const {
    std::chrono::milliseconds backoff = kBackoffInitial;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      const int fd = connect_once(j);
      if (fd >= 0) return fd;
      if (!retryable_connect_errno(errno)) {
        fail_errno("socket transport: connect(" + listeners[j].address +
                   ") failed");
      }
      if (attempt + 1 == max_attempts) break;
      check_deadline(deadline, "transport connect");
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, kBackoffMax);
    }
    return -1;
  }
};

class SocketTransport::SocketEndpoint final : public Endpoint {
 public:
  SocketEndpoint(std::size_t self, std::size_t count,
                 std::size_t queue_capacity, Rendezvous& rendezvous)
      : self_(self), count_(count), queue_capacity_(queue_capacity),
        rendezvous_(rendezvous), deadline_(rendezvous.deadline),
        recovery_(rendezvous.link_recovery), peers_(count) {
    if (rendezvous.cut_from == self) {
      cut_peer_ = rendezvous.cut_to;
      cut_after_ = rendezvous.cut_after;
    }
  }

  ~SocketEndpoint() override { close_all(); }

  void adopt(std::size_t peer, int fd) {
    set_nonblocking(fd);
    Peer& p = peers_[peer];
    // A new incarnation of the link starts with empty stream state:
    // dangling inbound bytes (a half-read body included) are garbage, so it
    // never completes an old frame, and queued outbound frames are the
    // reliable layer's to retransmit.
    close_link(p);
    p.fd = fd;
    p.sized_for = send_buffer_bytes(fd);
    p.staging.resize(kStagingBytes);
  }

  [[nodiscard]] bool has(std::size_t peer) const {
    return peers_[peer].fd >= 0;
  }

  void close_all() {
    shutdown_ = true;
    for (Peer& p : peers_) close_link(p);
  }

  bool send(std::size_t to, TransportMessage message) override {
    util::check(to < count_ && to != self_,
                "socket transport: send to an invalid endpoint");
    util::check(message.from == self_,
                "socket transport: message.from must be the sender");
    if (shutdown_) return false;
    Peer& peer = peers_[to];
    if (peer.fd < 0) return false;  // link down; reconnect() may revive it

    OutFrame frame{.head = comm::encode_frame_header(
                       {.kind = message.kind,
                        .from = static_cast<std::uint16_t>(message.from),
                        .seq = message.seq,
                        .body_len = message.body_size()}),
                   .payload = std::move(message.payload),
                   .kind = message.kind};
    fit_send_buffer(peer, frame.size());
    peer.out.push_back(std::move(frame));

    // Flush opportunistically; while this peer's queue is over its bound,
    // block in the pump — which keeps reading every link, so two endpoints
    // bursting at each other cannot deadlock.
    pump(0);
    while (!shutdown_ && peer.fd >= 0 && peer.out.size() > queue_capacity_) {
      check_deadline(deadline_, "socket send");
      pump(kPumpSliceMs);
    }
    return !shutdown_ && peer.fd >= 0;
  }

  std::optional<TransportMessage> recv_for(std::chrono::milliseconds timeout,
                                           bool& timed_out) override {
    timed_out = false;
    const auto give_up = Clock::now() + timeout;
    // One pump runs before the timeout is checked, so a zero timeout still
    // polls the links once.
    for (bool looked = false;; looked = true) {
      if (!ready_.empty()) {
        TransportMessage m = std::move(ready_.front());
        ready_.pop_front();
        return m;
      }
      if (shutdown_ || all_links_closed()) return std::nullopt;
      const auto now = Clock::now();
      if (looked && now >= give_up) {
        timed_out = true;
        return std::nullopt;
      }
      check_deadline(deadline_, "socket recv");
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(give_up -
                                                                now);
      pump(static_cast<int>(std::clamp<std::int64_t>(remaining.count(), 0,
                                                     kPumpSliceMs)));
    }
  }

  // Pump until no live link holds queued frames.  Required before this
  // endpoint goes quiet: send() may return with frames still in the
  // user-space queue, and nothing flushes them once the owner stops calling
  // send()/recv() — a worker that exits right after its final send would
  // silently lose it (the bug shows up as a peer blocked forever waiting
  // for a frame that was never written).
  void flush() override {
    for (;;) {
      if (shutdown_) return;
      bool pending = false;
      for (const Peer& p : peers_) {
        if (p.fd >= 0 && !p.out.empty()) {
          pending = true;
          break;
        }
      }
      if (!pending) return;
      check_deadline(deadline_, "socket flush");
      pump(kPumpSliceMs);
    }
  }

  [[nodiscard]] LinkState link_state(std::size_t peer) const override {
    util::check(peer < count_, "socket transport: unknown peer");
    if (peer == self_) return LinkState::kOpen;
    return peers_[peer].fd >= 0 ? LinkState::kOpen : LinkState::kClosed;
  }

  [[nodiscard]] bool is_shut_down() const override { return shutdown_; }

  [[nodiscard]] dist::FaultCounters counters() const override {
    return counters_;
  }

  /// Re-establishes a closed link (recovery mode): the original connector
  /// (self > peer accepted?  No: the lower id listened, the higher id
  /// connected — see establish()) re-connects with backoff; the original
  /// acceptor re-accepts on its own listener.  Bounded: attempt budget and
  /// session deadline, whichever ends first.
  bool reconnect(std::size_t peer) override {
    util::check(peer < count_ && peer != self_,
                "socket transport: reconnect to an invalid endpoint");
    if (shutdown_ || !recovery_) return false;
    if (peers_[peer].fd >= 0) return true;
    const bool ok = peer < self_ ? reconnect_as_connector(peer)
                                 : reconnect_as_acceptor(peer);
    if (ok) ++counters_.reconnects;
    return ok;
  }

 private:
  /// One queued outbound frame: its encoded header and the shared payload,
  /// written together by sendmsg.  The shared_ptr keeps the payload alive
  /// until its last byte is written, whatever the sender does with its own
  /// reference after send() returns.
  struct OutFrame {
    std::array<std::uint8_t, comm::kFrameHeaderBytes> head{};
    std::shared_ptr<const std::vector<std::uint8_t>> payload;
    std::uint8_t kind = 0;

    [[nodiscard]] std::size_t size() const {
      return head.size() + (payload ? payload->size() : 0);
    }
  };

  struct Peer {
    int fd = -1;
    /// Frames up to this size need no larger kernel send buffer: the
    /// buffer granted on `fd`, or the largest size already requested (a
    /// request the kernel capped is not repeated).
    std::size_t sized_for = 0;
    std::vector<std::uint8_t> staging;  ///< kStagingBytes once adopted
    std::size_t staged_begin = 0;  ///< first unparsed byte of `staging`
    std::size_t staged_end = 0;    ///< one past the last received byte
    /// Non-null while a body too large for `staging` is read straight into
    /// it; `body_header` is that frame's header.
    std::shared_ptr<std::vector<std::uint8_t>> body;
    comm::FrameHeader body_header;
    std::deque<OutFrame> out;  ///< frames awaiting write
    std::size_t out_pos = 0;   ///< bytes of out.front() already written
    std::uint64_t frames_written = 0;  ///< fully written frames (cut knob)
  };

  /// Closes the link and drops its stream state in both directions.
  static void close_link(Peer& p) {
    close_fd(p.fd);
    p.out.clear();
    p.out_pos = 0;
    p.staged_begin = 0;
    p.staged_end = 0;
    p.body.reset();
  }

  /// Grows the link's kernel send buffer to hold a whole `frame_bytes`
  /// frame, so one sendmsg hands it to the kernel even while the peer is
  /// busy elsewhere.  Never shrinks.  The kernel caps the request at
  /// net.core.wmem_max, then doubles it; past the cap, frames cross in
  /// pieces.
  static void fit_send_buffer(Peer& p, std::size_t frame_bytes) {
    if (frame_bytes <= p.sized_for) return;
    const int want =
        static_cast<int>(std::min<std::size_t>(frame_bytes, INT_MAX));
    (void)::setsockopt(p.fd, SOL_SOCKET, SO_SNDBUF, &want, sizeof(want));
    p.sized_for = std::max(frame_bytes, send_buffer_bytes(p.fd));
  }

  [[nodiscard]] bool all_links_closed() const {
    for (const Peer& p : peers_) {
      if (p.fd >= 0) return false;
    }
    return true;
  }

  /// One poll round over every live link: always read (inbound frames land
  /// in ready_), write whatever the send queues hold.  timeout_ms as in
  /// poll(): -1 blocks, 0 polls.
  void pump(int timeout_ms) {
    poll_fds_.clear();
    poll_ids_.clear();
    for (std::size_t i = 0; i < count_; ++i) {
      const Peer& p = peers_[i];
      if (p.fd < 0) continue;
      short events = POLLIN;
      if (!p.out.empty()) events |= POLLOUT;
      poll_fds_.push_back({.fd = p.fd, .events = events, .revents = 0});
      poll_ids_.push_back(i);
    }
    if (poll_fds_.empty()) return;
    const int rc = ::poll(poll_fds_.data(), poll_fds_.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) return;
      fail_errno("socket transport: poll failed");
    }
    for (std::size_t k = 0; k < poll_fds_.size(); ++k) {
      const std::size_t i = poll_ids_[k];
      const short revents = poll_fds_[k].revents;
      if (revents & (POLLIN | POLLHUP | POLLERR)) drain_reads(i);
      if (peers_[i].fd >= 0 && (revents & POLLOUT)) flush_writes(i);
    }
  }

  /// Reads everything link `i` has queued.
  void drain_reads(std::size_t i) {
    for (;;) {
      const ssize_t got = peers_[i].body ? read_body(i) : read_staged(i);
      if (got > 0) continue;
      if (got == 0 || errno == ECONNRESET) {
        end_of_stream(i);
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      fail_errno("socket transport: recv failed");
    }
  }

  /// One recv into link `i`'s staging buffer, then a parse; returns recv's
  /// result.
  ssize_t read_staged(std::size_t i) {
    Peer& p = peers_[i];
    if (p.staged_end == p.staging.size()) {
      // Full: move the unparsed tail (less than one frame, since a frame
      // that fits the buffer parses once it is all here) to the front.
      std::memmove(p.staging.data(), p.staging.data() + p.staged_begin,
                   p.staged_end - p.staged_begin);
      p.staged_end -= p.staged_begin;
      p.staged_begin = 0;
    }
    const ssize_t got = ::recv(p.fd, p.staging.data() + p.staged_end,
                               p.staging.size() - p.staged_end, 0);
    if (got > 0) {
      p.staged_end += static_cast<std::size_t>(got);
      parse_staged(i);
    }
    return got;
  }

  /// One recv straight into link `i`'s open large body; returns recv's
  /// result.  The body grows only by what FIONREAD reports queued, so
  /// memory follows the bytes received: a hostile header announcing
  /// kMaxFrameBody costs only what its sender actually sent.
  ssize_t read_body(std::size_t i) {
    Peer& p = peers_[i];
    const std::size_t filled = p.body->size();
    const std::size_t want =
        std::min(p.body_header.body_len - filled, queued_bytes(p.fd));
    if (want == 0) {
      // Nothing queued: peek to tell an idle link from end of stream.
      std::uint8_t probe = 0;
      return ::recv(p.fd, &probe, 1, MSG_PEEK);
    }
    p.body->resize(filled + want);
    const ssize_t got = ::recv(p.fd, p.body->data() + filled, want, 0);
    // A shrinking resize calls nothing that could clobber recv's errno.
    p.body->resize(got > 0 ? filled + static_cast<std::size_t>(got) : filled);
    if (p.body->size() == p.body_header.body_len) {
      ready_.push_back({.kind = p.body_header.kind,
                        .from = p.body_header.from,
                        .seq = p.body_header.seq,
                        .payload = std::move(p.body)});
    }
    return got;
  }

  /// Parses the complete frames in link `i`'s staging buffer into ready_.
  /// Every header is validated before any body memory is committed.  A
  /// frame too large for the buffer opens a direct body read: the body
  /// bytes that arrived with the header seed its buffer, the rest is read
  /// straight into it.
  void parse_staged(std::size_t i) {
    Peer& p = peers_[i];
    while (p.staged_end - p.staged_begin >= comm::kFrameHeaderBytes) {
      const std::span<const std::uint8_t> view(
          p.staging.data() + p.staged_begin, p.staged_end - p.staged_begin);
      // Strict: bad magic / version / reserved bytes / oversized body_len
      // throw util::CheckError out of recv()/send() — a corrupt stream is a
      // session error, not a hang.
      const comm::FrameHeader header = comm::decode_frame_header(view);
      util::check(header.from == i,
                  "socket transport: frame from the wrong peer on this link");
      util::check(header.kind != kHelloKind,
                  "socket transport: unexpected handshake frame mid-stream");
      const auto* body = view.data() + comm::kFrameHeaderBytes;
      const std::size_t frame_bytes = comm::kFrameHeaderBytes + header.body_len;
      if (frame_bytes > p.staging.size()) {
        // The staged bytes are all this frame's: it is larger than the
        // whole buffer.
        p.body_header = header;
        p.body = std::make_shared<std::vector<std::uint8_t>>(
            body, view.data() + view.size());
        p.staged_begin = 0;
        p.staged_end = 0;
        return;
      }
      if (view.size() < frame_bytes) break;
      ready_.push_back(
          {.kind = header.kind,
           .from = header.from,
           .seq = header.seq,
           .payload = std::make_shared<const std::vector<std::uint8_t>>(
               body, body + header.body_len)});
      p.staged_begin += frame_bytes;
    }
    if (p.staged_begin == p.staged_end) {
      p.staged_begin = 0;
      p.staged_end = 0;
    }
  }

  /// EOF or reset on link `i`.  Complete frames are already in ready_; any
  /// bytes left are a partial frame: the peer died (or lied about body_len)
  /// mid-message.  Strict mode fails fast; recovery mode discards the
  /// dangling bytes, and the reliable layer retransmits whatever they were
  /// part of.
  void end_of_stream(std::size_t i) {
    Peer& p = peers_[i];
    const std::size_t dangling =
        p.staged_end - p.staged_begin +
        (p.body ? comm::kFrameHeaderBytes + p.body->size() : 0);
    close_link(p);
    if (dangling > 0 && !recovery_) {
      util::check_fail(
          "socket transport: truncated frame mid-stream from endpoint " +
          std::to_string(i) + " (" + std::to_string(dangling) +
          " dangling bytes)");
    }
  }

  void flush_writes(std::size_t i) {
    Peer& p = peers_[i];
    while (!p.out.empty()) {
      OutFrame& front = p.out.front();
      // Deterministic chaos knob: the first reliable data envelope at or
      // after frame `cut_after_` is written only in part, then the link is
      // hard-closed, exactly once.  The peer discards the dangling bytes
      // and can never ack that envelope, so the reliable layer must
      // reconnect and retransmit it.
      const bool cut_here = i == cut_peer_ && !cut_done_ &&
                            front.kind == comm::kReliableDataKind &&
                            p.frames_written >= cut_after_;
      const std::size_t end = cut_here ? front.size() / 2 : front.size();
      if (cut_here && p.out_pos == end) {
        cut_done_ = true;
        close_link(p);
        return;
      }
      // Bytes [out_pos, end) of header ++ payload, in one sendmsg.
      constexpr std::size_t kHead = comm::kFrameHeaderBytes;
      std::array<struct iovec, 2> iov{};
      std::size_t segments = 0;
      if (p.out_pos < kHead) {
        iov[segments++] = {.iov_base = front.head.data() + p.out_pos,
                           .iov_len = std::min(end, kHead) - p.out_pos};
      }
      if (end > kHead) {
        const std::size_t from = std::max(p.out_pos, kHead) - kHead;
        iov[segments++] = {
            .iov_base = const_cast<std::uint8_t*>(front.payload->data()) + from,
            .iov_len = end - kHead - from};
      }
      struct msghdr msg{};
      msg.msg_iov = iov.data();
      msg.msg_iovlen = segments;
      const ssize_t sent = ::sendmsg(p.fd, &msg, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EPIPE || errno == ECONNRESET) {
          // Peer vanished; its process exit status / kError frame carries
          // the real story.  Drop the link so senders observe failure.
          close_link(p);
          return;
        }
        fail_errno("socket transport: send failed");
      }
      p.out_pos += static_cast<std::size_t>(sent);
      if (p.out_pos == front.size()) {
        p.out.pop_front();
        p.out_pos = 0;
        ++p.frames_written;
      }
    }
  }

  bool reconnect_as_connector(std::size_t peer) {
    const int fd = rendezvous_.connect_with_backoff(peer, kReconnectAttempts);
    if (fd < 0) return false;
    try {
      send_hello(fd, self_);
      const std::size_t who = read_hello(fd, count_, deadline_);
      util::check(who == peer,
                  "socket transport: reconnect hello from an unexpected "
                  "peer");
    } catch (const util::CheckError&) {
      int f = fd;
      close_fd(f);
      return false;
    }
    adopt(peer, fd);
    return true;
  }

  bool reconnect_as_acceptor(std::size_t peer) {
    const int listener = rendezvous_.listeners[self_].fd;
    if (listener < 0) return false;
    std::chrono::milliseconds waited{0};
    const std::chrono::milliseconds budget =
        kBackoffMax * kReconnectAttempts;  // same order as the connector side
    while (peers_[peer].fd < 0) {
      check_deadline(deadline_, "transport reconnect accept");
      struct pollfd pfd{.fd = listener, .events = POLLIN, .revents = 0};
      const int rc = ::poll(&pfd, 1, kPumpSliceMs);
      if (rc < 0) {
        if (errno == EINTR) continue;
        fail_errno("socket transport: reconnect poll failed");
      }
      if (rc == 0) {
        waited += std::chrono::milliseconds(kPumpSliceMs);
        if (waited >= budget) return false;
        continue;
      }
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          continue;
        }
        fail_errno("socket transport: reconnect accept failed");
      }
      if (rendezvous_.family == Family::kTcp) set_nodelay(fd);
      try {
        const std::size_t who = read_hello(fd, count_, deadline_);
        // Any higher-id peer whose link is down may be the one reconnecting
        // — adopt whoever announced itself (re-accepting for a third peer
        // must not strand it), then keep waiting for the requested one.
        if (who <= self_ || peers_[who].fd >= 0) {
          int f = fd;
          close_fd(f);
          continue;
        }
        send_hello(fd, self_);
        adopt(who, fd);
      } catch (const util::CheckError&) {
        int f = fd;
        close_fd(f);
        continue;
      }
    }
    return true;
  }

  std::size_t self_;
  std::size_t count_;
  std::size_t queue_capacity_;
  Rendezvous& rendezvous_;
  std::optional<Clock::time_point> deadline_;
  bool recovery_ = false;
  std::size_t cut_peer_ = static_cast<std::size_t>(-1);
  std::uint64_t cut_after_ = 0;
  bool cut_done_ = false;
  bool shutdown_ = false;
  std::vector<Peer> peers_;
  std::deque<TransportMessage> ready_;
  dist::FaultCounters counters_;
  // pump()'s poll set, kept across calls so a pump allocates nothing.
  std::vector<struct pollfd> poll_fds_;
  std::vector<std::size_t> poll_ids_;
};

SocketTransport::SocketTransport(std::size_t endpoints,
                                 std::size_t send_queue_capacity,
                                 Family family) {
  util::check(endpoints >= 1 && endpoints < 65536,
              "socket transport: endpoint count out of range");
  util::check(send_queue_capacity >= 1,
              "socket transport: send queue capacity must be >= 1");
  rendezvous_ = std::make_unique<Rendezvous>();
  rendezvous_->family = family;
  rendezvous_->listeners.resize(endpoints);
  endpoints_.resize(endpoints);
  queue_capacity_ = send_queue_capacity;

  if (family == Family::kUnix) {
    // Rendezvous sockets live under TMPDIR when it is set (sandboxes and CI
    // containers often redirect scratch space), falling back to /tmp when it
    // is unset — or when it would push the per-endpoint paths past sun_path's
    // ~108-byte limit, where binding could never succeed anyway.
    const char* tmpdir = std::getenv("TMPDIR");
    std::string base =
        (tmpdir != nullptr && tmpdir[0] != '\0') ? tmpdir : "/tmp";
    while (base.size() > 1 && base.back() == '/') base.pop_back();
    struct sockaddr_un probe{};
    if (base.size() + sizeof("/sidco-skt-XXXXXX/e65535") >
        sizeof(probe.sun_path)) {
      base = "/tmp";
    }
    std::string tmpl = base + "/sidco-skt-XXXXXX";
    util::check(::mkdtemp(tmpl.data()) != nullptr,
                "socket transport: mkdtemp failed");
    rendezvous_->directory = tmpl;
  }

  for (std::size_t i = 0; i < endpoints; ++i) {
    Listener& l = rendezvous_->listeners[i];
    if (family == Family::kUnix) {
      l.uds_path = rendezvous_->directory + "/e" + std::to_string(i);
      struct sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      util::check(l.uds_path.size() < sizeof(addr.sun_path),
                  "socket transport: unix socket path too long");
      std::strncpy(addr.sun_path, l.uds_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      l.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (l.fd < 0) fail_errno("socket transport: socket(AF_UNIX) failed");
      if (::bind(l.fd, reinterpret_cast<struct sockaddr*>(&addr),
                 sizeof(addr)) < 0) {
        fail_errno("socket transport: bind(" + l.uds_path + ") failed");
      }
      l.address = l.uds_path;
    } else {
      struct sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = 0;  // ephemeral; read back with getsockname
      l.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (l.fd < 0) fail_errno("socket transport: socket(AF_INET) failed");
      if (::bind(l.fd, reinterpret_cast<struct sockaddr*>(&addr),
                 sizeof(addr)) < 0) {
        fail_errno("socket transport: bind(127.0.0.1) failed");
      }
      socklen_t len = sizeof(addr);
      if (::getsockname(l.fd, reinterpret_cast<struct sockaddr*>(&addr),
                        &len) < 0) {
        fail_errno("socket transport: getsockname failed");
      }
      l.address = "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
    }
    if (::listen(l.fd, SOMAXCONN) < 0) {
      fail_errno("socket transport: listen failed");
    }
  }
}

SocketTransport::~SocketTransport() = default;

Endpoint& SocketTransport::endpoint(std::size_t id) {
  util::check(id < endpoints_.size() && endpoints_[id] != nullptr,
              "socket transport: endpoint not established in this process");
  return *endpoints_[id];
}

void SocketTransport::shutdown() {
  for (auto& ep : endpoints_) {
    if (ep) ep->close_all();
  }
  for (Listener& l : rendezvous_->listeners) close_fd(l.fd);
}

std::string SocketTransport::address(std::size_t id) const {
  util::check(id < rendezvous_->listeners.size(),
              "socket transport: unknown endpoint id");
  return rendezvous_->listeners[id].address;
}

void SocketTransport::forget_other_listeners(std::size_t id) {
  for (std::size_t i = 0; i < rendezvous_->listeners.size(); ++i) {
    if (i != id) close_fd(rendezvous_->listeners[i].fd);
  }
}

void SocketTransport::set_deadline(
    std::chrono::steady_clock::time_point deadline) {
  rendezvous_->deadline = deadline;
}

void SocketTransport::set_link_recovery(bool enabled) {
  rendezvous_->link_recovery = enabled;
}

void SocketTransport::set_link_cut(std::size_t from, std::size_t to,
                                   std::size_t after) {
  util::check(from < rendezvous_->listeners.size() &&
                  to < rendezvous_->listeners.size() && from != to,
              "socket transport: link cut endpoints out of range");
  rendezvous_->cut_from = from;
  rendezvous_->cut_to = to;
  rendezvous_->cut_after = after;
}

Endpoint& SocketTransport::establish(std::size_t id) {
  const std::size_t count = rendezvous_->listeners.size();
  util::check(id < count, "socket transport: unknown endpoint id");
  util::check(endpoints_[id] == nullptr,
              "socket transport: endpoint already established");
  auto ep = std::make_unique<SocketEndpoint>(id, count, queue_capacity_,
                                             *rendezvous_);
  const std::optional<Clock::time_point>& deadline = rendezvous_->deadline;

  // Connect to every lower-id listener (bound before any participant
  // started, so connects cannot race the listen(); the backoff covers a
  // backlog-overflow ECONNREFUSED under heavy accept pressure).
  for (std::size_t j = 0; j < id; ++j) {
    const int fd = rendezvous_->connect_with_backoff(j);
    if (fd < 0) {
      fail_errno("socket transport: connect(" +
                 rendezvous_->listeners[j].address +
                 ") failed after retries");
    }
    send_hello(fd, id);
    const std::size_t peer = read_hello(fd, count, deadline);
    util::check(peer == j,
                "socket transport: handshake hello from an unexpected peer");
    ep->adopt(j, fd);
  }

  // Accept one connection from every higher-id endpoint; the peer's hello
  // names the link (accept order is scheduler-dependent).
  std::size_t remaining = count - id - 1;
  while (remaining > 0) {
    check_deadline(deadline, "transport rendezvous accept");
    struct pollfd pfd{.fd = rendezvous_->listeners[id].fd,
                      .events = POLLIN,
                      .revents = 0};
    const int prc = ::poll(&pfd, 1, kPumpSliceMs);
    if (prc < 0) {
      if (errno == EINTR) continue;
      fail_errno("socket transport: rendezvous poll failed");
    }
    if (prc == 0) continue;
    const int fd = ::accept(rendezvous_->listeners[id].fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      fail_errno("socket transport: accept failed");
    }
    if (rendezvous_->family == Family::kTcp) set_nodelay(fd);
    const std::size_t peer = read_hello(fd, count, deadline);
    util::check(peer > id && !ep->has(peer),
                "socket transport: handshake hello from an unexpected peer");
    send_hello(fd, id);
    ep->adopt(peer, fd);
    --remaining;
  }

  endpoints_[id] = std::move(ep);
  return *endpoints_[id];
}

}  // namespace sidco::runtime
