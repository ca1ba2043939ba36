// Transport layer suite (runtime/transport.h, runtime/socket_transport.h,
// comm/frame.h): in-memory endpoint semantics (per-producer FIFO, the
// drain-own-inbox no-deadlock rule, shutdown wake-ups), strict frame-header
// decoding, socket mesh round-trips over both address families, the socket
// framing (frames split at every byte offset, staged and directly read
// bodies back to back, payload ownership while queued, whole-frame kernel
// send buffers), fault injection against a live socket endpoint —
// truncated frame mid-stream, peer closing during the handshake, oversized
// or hostile frame headers — all of which must fail fast with descriptive
// CheckErrors, never hang — the reliable layer's teardown when bye frames
// are lost, which must not wait out the silence window, and zero-timeout
// receives, which must take a queued message on every fabric.  Runs under
// ASan/UBSan and TSan in CI (labels `unit;runtime`).
#include <gtest/gtest.h>

#include <linux/sockios.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/frame.h"
#include "dist/session.h"
#include "runtime/channel.h"
#include "runtime/fault.h"
#include "runtime/reliable.h"
#include "runtime/socket_transport.h"
#include "runtime/transport.h"
#include "util/check.h"

namespace sidco {
namespace {

using runtime::Channel;
using runtime::Endpoint;
using runtime::FaultInjectingEndpoint;
using runtime::FaultPlan;
using runtime::InMemoryTransport;
using runtime::ReliableEndpoint;
using runtime::ReliableParams;
using runtime::SocketTransport;
using runtime::TransportMessage;

std::shared_ptr<const std::vector<std::uint8_t>> bytes(
    std::initializer_list<std::uint8_t> values) {
  return std::make_shared<const std::vector<std::uint8_t>>(values);
}

/// Overwrites 4 bytes at `p` with the little-endian encoding of `v` —
/// for forging header fields the strict encoder refuses to produce.
void put_u32_at(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Header + body as one contiguous frame, the bytes a peer puts on the wire.
/// `body` may be shorter than header.body_len, to forge a truncated frame.
std::vector<std::uint8_t> frame_bytes(const comm::FrameHeader& header,
                                      std::span<const std::uint8_t> body = {}) {
  const auto head = comm::encode_frame_header(header);
  std::vector<std::uint8_t> out(head.size() + body.size());
  std::copy(head.begin(), head.end(), out.begin());
  std::copy(body.begin(), body.end(), out.begin() + head.size());
  return out;
}

/// `len` bytes of a position-dependent pattern, so a misplaced, dropped or
/// duplicated byte shows up in an equality check.
std::vector<std::uint8_t> patterned(std::size_t len, std::uint8_t salt) {
  std::vector<std::uint8_t> out(len);
  for (std::size_t k = 0; k < len; ++k) {
    out[k] = static_cast<std::uint8_t>((k * 131 + (k >> 8) * 7 + salt) & 0xFF);
  }
  return out;
}

/// Calls `body` and asserts it throws util::CheckError whose message
/// contains `needle`.
template <typename Body>
void expect_check_error(Body&& body, const std::string& needle) {
  try {
    body();
    FAIL() << "expected CheckError containing \"" << needle << "\"";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "got: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// Frame header codec.
// ---------------------------------------------------------------------------

TEST(Frame, HeaderRoundTripsEveryField) {
  const comm::FrameHeader header{
      .kind = 3, .from = 517, .seq = 0x1122334455667788ULL, .body_len = 41};
  const auto head = comm::encode_frame_header(header);
  ASSERT_EQ(head.size(), comm::kFrameHeaderBytes);
  const comm::FrameHeader back = comm::decode_frame_header(head);
  EXPECT_EQ(back.kind, header.kind);
  EXPECT_EQ(back.from, header.from);
  EXPECT_EQ(back.seq, header.seq);
  EXPECT_EQ(back.body_len, header.body_len);
}

TEST(Frame, StrictDecodeRejectsHostileHeaders) {
  const auto good = comm::encode_frame_header(
      {.kind = 1, .from = 0, .seq = 0, .body_len = 0});

  // Short buffer.
  expect_check_error(
      [&] {
        comm::decode_frame_header(
            std::span<const std::uint8_t>(good.data(), 10));
      },
      "short");
  // Bad magic.
  {
    auto m = good;
    m[0] ^= 0xFF;
    expect_check_error([&] { comm::decode_frame_header(m); }, "magic");
  }
  // Unknown version.
  {
    auto m = good;
    m[4] = static_cast<std::uint8_t>(comm::kFrameVersion + 1);
    expect_check_error([&] { comm::decode_frame_header(m); }, "version");
  }
  // Nonzero reserved bytes (u8 at 7, u16 at 10).
  for (std::size_t at : {7UL, 10UL, 11UL}) {
    auto m = good;
    m[at] = 0x5A;
    expect_check_error([&] { comm::decode_frame_header(m); }, "reserved");
  }
  // Oversized body length (forged byte-level: the encoder refuses it).
  {
    auto m = good;
    put_u32_at(m.data() + 12,
               static_cast<std::uint32_t>(comm::kMaxFrameBody + 1));
    expect_check_error([&] { comm::decode_frame_header(m); }, "oversized");
  }
}

TEST(Frame, SeqArithmeticOrdersThroughWraparound) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  EXPECT_TRUE(comm::seq_less(0, 1));
  EXPECT_FALSE(comm::seq_less(1, 0));
  EXPECT_FALSE(comm::seq_less(5, 5));
  // Wraparound: 2^64-1 precedes 1, and raw `<` would say the opposite.
  EXPECT_TRUE(comm::seq_less(kMax, 0));
  EXPECT_TRUE(comm::seq_less(kMax, 1));
  EXPECT_FALSE(comm::seq_less(1, kMax));
  EXPECT_EQ(comm::seq_distance(kMax, 1), 2U);
  EXPECT_EQ(comm::seq_distance(7, 7), 0U);
  EXPECT_EQ(comm::seq_distance(kMax - 1, kMax + 1), 2U);
}

TEST(Frame, Fnv1a32MatchesReferenceVectors) {
  // Published FNV-1a 32-bit vectors: the empty string is the offset basis.
  const auto hash = [](const std::string& s) {
    return comm::fnv1a32(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  };
  EXPECT_EQ(hash(""), 0x811c9dc5U);
  EXPECT_EQ(hash("a"), 0xe40c292cU);
  EXPECT_EQ(hash("foobar"), 0xbf9cf968U);
}

// ---------------------------------------------------------------------------
// Channel timed pop.
// ---------------------------------------------------------------------------

TEST(Channel, TryPopForDistinguishesTimeoutFromEndOfStream) {
  Channel<int> ch(2);
  bool closed_and_drained = true;
  // Empty but open: timeout, NOT end-of-stream.
  EXPECT_FALSE(
      ch.try_pop_for(std::chrono::milliseconds(5), closed_and_drained)
          .has_value());
  EXPECT_FALSE(closed_and_drained);
  int v = 42;
  ASSERT_TRUE(ch.try_push(v));
  ch.close();
  // Closed with a buffered message: drain semantics still deliver it.
  const std::optional<int> got =
      ch.try_pop_for(std::chrono::milliseconds(5), closed_and_drained);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42);
  EXPECT_FALSE(closed_and_drained);
  // Closed and drained: end-of-stream, distinct from a mere timeout.
  EXPECT_FALSE(
      ch.try_pop_for(std::chrono::milliseconds(5), closed_and_drained)
          .has_value());
  EXPECT_TRUE(closed_and_drained);
}

// ---------------------------------------------------------------------------
// InMemoryTransport semantics.
// ---------------------------------------------------------------------------

TEST(InMemoryTransport, PerProducerFifoAcrossSenders) {
  InMemoryTransport transport(3, 8);
  Endpoint& receiver = transport.endpoint(2);
  for (std::uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(transport.endpoint(0).send(
        2, {.kind = 1, .from = 0, .seq = k, .payload = nullptr}));
    ASSERT_TRUE(transport.endpoint(1).send(
        2, {.kind = 1, .from = 1, .seq = k, .payload = nullptr}));
  }
  std::vector<std::uint64_t> next(2, 0);
  for (int i = 0; i < 8; ++i) {
    const std::optional<TransportMessage> m = receiver.recv();
    ASSERT_TRUE(m.has_value());
    ASSERT_LT(m->from, 2U);
    EXPECT_EQ(m->seq, next[m->from]) << "sender " << m->from;
    next[m->from] += 1;
  }
}

TEST(InMemoryTransport, MutualBurstsAtCapacityOneMakeProgress) {
  // Both endpoints send a full burst before either receives: with capacity-1
  // inboxes a naive blocking send would deadlock.  The transport's
  // drain-own-inbox rule (matching the pre-Transport threaded engine) must
  // keep both sides moving; messages drained early are served first on recv
  // in arrival order.
  constexpr std::uint64_t kMessages = 200;
  InMemoryTransport transport(2, 1);
  const auto run_side = [&](std::size_t self) {
    Endpoint& ep = transport.endpoint(self);
    for (std::uint64_t k = 0; k < kMessages; ++k) {
      ASSERT_TRUE(ep.send(
          1 - self, {.kind = 1, .from = self, .seq = k, .payload = nullptr}));
    }
    for (std::uint64_t k = 0; k < kMessages; ++k) {
      const std::optional<TransportMessage> m = ep.recv();
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->from, 1 - self);
      EXPECT_EQ(m->seq, k);  // FIFO survives the pending stash
    }
  };
  std::thread peer([&] { run_side(1); });
  run_side(0);
  peer.join();
}

TEST(InMemoryTransport, ShutdownWakesBlockedRecvAndFailsSends) {
  InMemoryTransport transport(2, 1);
  std::thread blocked([&] {
    EXPECT_FALSE(transport.endpoint(1).recv().has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  transport.shutdown();
  blocked.join();
  EXPECT_FALSE(transport.endpoint(0).send(
      1, {.kind = 1, .from = 0, .seq = 0, .payload = nullptr}));
}

TEST(InMemoryTransport, BufferedMessagesDrainAfterShutdown) {
  InMemoryTransport transport(2, 4);
  ASSERT_TRUE(transport.endpoint(0).send(
      1, {.kind = 5, .from = 0, .seq = 7, .payload = bytes({1, 2})}));
  transport.shutdown();
  const std::optional<TransportMessage> m = transport.endpoint(1).recv();
  ASSERT_TRUE(m.has_value());  // accepted before shutdown, still delivered
  EXPECT_EQ(m->kind, 5);
  EXPECT_EQ(m->seq, 7U);
  EXPECT_FALSE(transport.endpoint(1).recv().has_value());  // then EOS
}

TEST(InMemoryTransport, ZeroTimeoutRecvTakesAQueuedMessage) {
  InMemoryTransport transport(2, 4);
  ASSERT_TRUE(transport.endpoint(0).send(
      1, {.kind = 1, .from = 0, .seq = 3, .payload = bytes({9})}));
  transport.endpoint(0).flush();
  bool timed_out = true;
  const std::optional<TransportMessage> m =
      transport.endpoint(1).recv_for(std::chrono::milliseconds(0), timed_out);
  ASSERT_TRUE(m.has_value()) << "recv_for(0) gave up before looking";
  EXPECT_EQ(m->seq, 3U);
  EXPECT_FALSE(timed_out);
}

// ---------------------------------------------------------------------------
// SocketTransport mesh round-trips.
// ---------------------------------------------------------------------------

void exercise_mesh(SocketTransport::Family family) {
  constexpr std::size_t kEndpoints = 3;
  constexpr std::uint64_t kMessages = 5;
  SocketTransport transport(kEndpoints, 2, family);

  const auto run_endpoint = [&](std::size_t self) {
    Endpoint& ep = transport.establish(self);
    for (std::uint64_t k = 0; k < kMessages; ++k) {
      for (std::size_t to = 0; to < kEndpoints; ++to) {
        if (to == self) continue;
        ASSERT_TRUE(ep.send(
            to, {.kind = 1,
                 .from = self,
                 .seq = k,
                 .payload = bytes({static_cast<std::uint8_t>(self),
                                   static_cast<std::uint8_t>(k)})}));
      }
    }
    std::vector<std::uint64_t> next(kEndpoints, 0);
    for (std::size_t i = 0; i < (kEndpoints - 1) * kMessages; ++i) {
      const std::optional<TransportMessage> m = ep.recv();
      ASSERT_TRUE(m.has_value());
      ASSERT_NE(m->from, self);
      EXPECT_EQ(m->seq, next[m->from]) << "sender " << m->from;
      next[m->from] += 1;
      ASSERT_TRUE(m->payload != nullptr);
      EXPECT_EQ(*m->payload,
                (std::vector<std::uint8_t>{static_cast<std::uint8_t>(m->from),
                                           static_cast<std::uint8_t>(m->seq)}));
    }
    ep.flush();  // drain queued tail frames before this endpoint goes quiet
  };

  std::vector<std::thread> peers;
  for (std::size_t id = 0; id + 1 < kEndpoints; ++id) {
    peers.emplace_back([&, id] { run_endpoint(id); });
  }
  run_endpoint(kEndpoints - 1);
  for (std::thread& t : peers) t.join();
}

TEST(SocketTransport, MeshRoundTripUnixSockets) {
  exercise_mesh(SocketTransport::Family::kUnix);
}

TEST(SocketTransport, MeshRoundTripTcpSockets) {
  exercise_mesh(SocketTransport::Family::kTcp);
}

TEST(SocketTransport, MutualLargeBurstsRespectQueueBoundWithoutDeadlock) {
  // Large payloads with a capacity-1 send queue: both sides burst before
  // receiving, so kernel socket buffers fill and send() must block in its
  // pump — which keeps reading — rather than deadlock write-against-write.
  // A 64 KiB frame fits the default kernel send buffer
  // (net.core.wmem_default, typically 208 KiB), so the transport never
  // enlarges it here: the 40-frame burst overruns the kernel buffer and the
  // blocking path stays exercised.
  constexpr std::uint64_t kMessages = 40;
  const auto payload = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>(64 * 1024, 0xCD));
  SocketTransport transport(2, 1);
  const auto run_side = [&](std::size_t self) {
    Endpoint& ep = transport.establish(self);
    for (std::uint64_t k = 0; k < kMessages; ++k) {
      ASSERT_TRUE(ep.send(
          1 - self, {.kind = 1, .from = self, .seq = k, .payload = payload}));
    }
    for (std::uint64_t k = 0; k < kMessages; ++k) {
      const std::optional<TransportMessage> m = ep.recv();
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->seq, k);
      EXPECT_EQ(m->body_size(), payload->size());
    }
    ep.flush();  // see FlushDeliversTailFrames: quiet endpoints stop pumping
  };
  std::thread peer([&] { run_side(1); });
  run_side(0);
  peer.join();
}

TEST(SocketTransport, ZeroTimeoutRecvTakesAFlushedFrame) {
  // Once the sender's flush() returns, the frame sits in the receiver's
  // socket; one zero-timeout receive must poll for it, not report a timeout.
  SocketTransport transport(2, 4);
  std::thread sender([&] {
    Endpoint& ep = transport.establish(1);
    ASSERT_TRUE(
        ep.send(0, {.kind = 1, .from = 1, .seq = 5, .payload = bytes({4})}));
    ep.flush();
  });
  Endpoint& ep = transport.establish(0);
  sender.join();
  bool timed_out = true;
  const std::optional<TransportMessage> m =
      ep.recv_for(std::chrono::milliseconds(0), timed_out);
  ASSERT_TRUE(m.has_value()) << "recv_for(0) gave up before polling";
  EXPECT_EQ(m->seq, 5U);
  EXPECT_FALSE(timed_out);
}

TEST(SocketTransport, FlushDeliversTailFramesBeforeEndpointGoesQuiet) {
  // send() may return with up to `send_queue_capacity` frames still in the
  // user-space queue, and only this endpoint's own send/recv/flush calls
  // pump them out.  A sender that goes quiet right after its last send must
  // flush, or the tail frame dies in the queue and the receiver waits
  // forever — this is the regression test for exactly that loss.
  SocketTransport transport(2, 1);
  std::thread sender([&] {
    Endpoint& ep = transport.establish(1);
    for (std::uint64_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(
          ep.send(0, {.kind = 1, .from = 1, .seq = k, .payload = nullptr}));
    }
    ep.flush();
    // Thread exits; nobody pumps endpoint 1 ever again.
  });
  Endpoint& ep = transport.establish(0);
  for (std::uint64_t k = 0; k < 3; ++k) {
    const std::optional<TransportMessage> m = ep.recv();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->seq, k);
  }
  sender.join();
}

// ---------------------------------------------------------------------------
// SocketTransport fault injection: a raw client speaks (or violates) the
// wire protocol against a live endpoint.
// ---------------------------------------------------------------------------

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_GE(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t sent = ::send(fd, data + done, len - done, MSG_NOSIGNAL);
    ASSERT_GT(sent, 0);
    done += static_cast<std::size_t>(sent);
  }
}

void read_all(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t got = ::recv(fd, data + done, len - done, 0);
    ASSERT_GT(got, 0);
    done += static_cast<std::size_t>(got);
  }
}

struct RawPeer {
  int fd;
  Endpoint& ep;
};

/// Connects a raw client to endpoint 0 of `transport`, completes the
/// handshake as endpoint 1, and establishes endpoint 0.  Both sides run in
/// this thread: the client's hello waits in the socket buffer until
/// establish(0) reads it, which works because every handshake message fits
/// the kernel buffers.
RawPeer raw_peer_link(SocketTransport& transport) {
  const int fd = connect_unix(transport.address(0));
  const auto hello = comm::encode_frame_header(
      {.kind = 0, .from = 1, .seq = 0, .body_len = 0});
  write_all(fd, hello.data(), hello.size());
  Endpoint& ep = transport.establish(0);
  std::uint8_t reply[comm::kFrameHeaderBytes];
  read_all(fd, reply, sizeof(reply));  // endpoint 0's hello
  return {fd, ep};
}

TEST(SocketTransport, PeerClosingDuringHandshakeFailsFast) {
  SocketTransport transport(2, 4);
  const int fd = connect_unix(transport.address(0));
  ::close(fd);  // vanish before sending the hello
  expect_check_error([&] { transport.establish(0); },
                     "peer closed during transport handshake");
}

TEST(SocketTransport, GarbageHelloIsRejected) {
  SocketTransport transport(2, 4);
  const int fd = connect_unix(transport.address(0));
  std::vector<std::uint8_t> garbage(comm::kFrameHeaderBytes, 0x5A);
  write_all(fd, garbage.data(), garbage.size());
  expect_check_error([&] { transport.establish(0); }, "magic");
  ::close(fd);
}

TEST(SocketTransport, HelloFromImpossiblePeerIsRejected) {
  SocketTransport transport(2, 4);
  const int fd = connect_unix(transport.address(0));
  // A valid hello claiming to be endpoint 0 itself — the acceptor only
  // expects higher-id peers on its listener.
  const auto hello = comm::encode_frame_header(
      {.kind = 0, .from = 0, .seq = 0, .body_len = 0});
  write_all(fd, hello.data(), hello.size());
  expect_check_error([&] { transport.establish(0); }, "unexpected peer");
  ::close(fd);
}

TEST(SocketTransport, TruncatedFrameMidStreamFailsFast) {
  SocketTransport transport(2, 4);
  const RawPeer link = raw_peer_link(transport);

  // A frame announcing a 100-byte body, followed by only 10 bytes and EOF:
  // the decoder must report a truncated stream, not wait forever for the
  // rest.
  const auto frame =
      frame_bytes({.kind = 2, .from = 1, .seq = 0, .body_len = 100},
                  std::vector<std::uint8_t>(10, 0x11));
  write_all(link.fd, frame.data(), frame.size());
  ::close(link.fd);
  expect_check_error([&] { link.ep.recv(); }, "truncated frame mid-stream");
}

TEST(SocketTransport, OversizedFrameHeaderFailsFast) {
  SocketTransport transport(2, 4);
  const RawPeer link = raw_peer_link(transport);

  auto evil = comm::encode_frame_header(
      {.kind = 2, .from = 1, .seq = 0, .body_len = 0});
  put_u32_at(evil.data() + 12,
             static_cast<std::uint32_t>(comm::kMaxFrameBody + 1));
  write_all(link.fd, evil.data(), evil.size());
  expect_check_error([&] { link.ep.recv(); }, "oversized");
  ::close(link.fd);
}

TEST(SocketTransport, FrameFromWrongPeerOnLinkIsRejected) {
  SocketTransport transport(3, 4);
  // Raw client completes the handshake as peer 1, leaving peer 2's link
  // unestablished — irrelevant here, endpoint 0 only needs link 1 live.
  const int fd1 = connect_unix(transport.address(0));
  const auto hello1 = comm::encode_frame_header(
      {.kind = 0, .from = 1, .seq = 0, .body_len = 0});
  write_all(fd1, hello1.data(), hello1.size());
  const int fd2 = connect_unix(transport.address(0));
  const auto hello2 = comm::encode_frame_header(
      {.kind = 0, .from = 2, .seq = 0, .body_len = 0});
  write_all(fd2, hello2.data(), hello2.size());
  Endpoint& ep = transport.establish(0);
  std::uint8_t reply[comm::kFrameHeaderBytes];
  read_all(fd1, reply, sizeof(reply));

  // A frame on link 1 whose header claims from=2 (peer spoofing).
  const auto frame =
      frame_bytes({.kind = 2, .from = 2, .seq = 0, .body_len = 0});
  write_all(fd1, frame.data(), frame.size());
  expect_check_error([&] { ep.recv(); }, "wrong peer");
  ::close(fd1);
  ::close(fd2);
}

TEST(SocketTransport, CleanPeerCloseIsEndOfStreamAfterBufferedFrames) {
  SocketTransport transport(2, 4);
  const RawPeer link = raw_peer_link(transport);

  // Two complete frames, then a clean close: both frames must still be
  // received, then recv reports end-of-stream (nullopt), not an error.
  const std::vector<std::uint8_t> body{7, 8, 9};
  std::vector<std::uint8_t> frames =
      frame_bytes({.kind = 2, .from = 1, .seq = 0, .body_len = 3}, body);
  const auto empty =
      frame_bytes({.kind = 2, .from = 1, .seq = 1, .body_len = 0});
  frames.insert(frames.end(), empty.begin(), empty.end());
  write_all(link.fd, frames.data(), frames.size());
  ::close(link.fd);

  const std::optional<TransportMessage> first = link.ep.recv();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->seq, 0U);
  EXPECT_EQ(*first->payload, (std::vector<std::uint8_t>{7, 8, 9}));
  const std::optional<TransportMessage> second = link.ep.recv();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->seq, 1U);
  EXPECT_FALSE(link.ep.recv().has_value());  // all links closed -> EOS
}

// ---------------------------------------------------------------------------
// SocketTransport framing: frames arriving in arbitrary pieces, bodies too
// large for the receive staging buffer (64 KiB) read straight into their
// payload, and payload ownership while a frame waits in the send queue.
// ---------------------------------------------------------------------------

/// Bytes written on `fd` that its peer has not read yet (SIOCOUTQ).
int unread_by_peer(int fd) {
  int n = 0;
  EXPECT_EQ(::ioctl(fd, SIOCOUTQ, &n), 0);
  return n;
}

/// Writes `frame` in two writes split at `cut`.  The endpoint reads every
/// byte of the first part before the second is written, and must not
/// deliver anything until the frame is whole.
void deliver_split(const RawPeer& link, const std::vector<std::uint8_t>& frame,
                   std::size_t cut, std::optional<TransportMessage>& out) {
  write_all(link.fd, frame.data(), cut);
  while (unread_by_peer(link.fd) > 0) {
    bool timed_out = false;
    ASSERT_FALSE(link.ep.recv_for(std::chrono::milliseconds(1), timed_out)
                     .has_value())
        << "frame delivered before its last byte (cut " << cut << ")";
  }
  write_all(link.fd, frame.data() + cut, frame.size() - cut);
  out = link.ep.recv();
}

TEST(SocketTransport, FrameSplitAtEveryByteOffsetReassembles) {
  SocketTransport transport(2, 4);
  const RawPeer link = raw_peer_link(transport);
  std::uint64_t seq = 0;
  const auto check_splits = [&](std::size_t body_len,
                                const std::vector<std::size_t>& cuts) {
    const std::vector<std::uint8_t> body =
        patterned(body_len, static_cast<std::uint8_t>(body_len));
    for (const std::size_t cut : cuts) {
      SCOPED_TRACE("body " + std::to_string(body_len) + " cut " +
                   std::to_string(cut));
      const auto frame = frame_bytes(
          {.kind = 2, .from = 1, .seq = seq, .body_len = body_len}, body);
      std::optional<TransportMessage> m;
      deliver_split(link, frame, cut, m);
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->seq, seq);
      ASSERT_TRUE(m->payload != nullptr);
      EXPECT_TRUE(*m->payload == body);
      ++seq;
    }
  };
  // A staged frame, split at every byte offset of its header and body.
  constexpr std::size_t kSmall = 40;
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 1; cut < comm::kFrameHeaderBytes + kSmall; ++cut) {
    cuts.push_back(cut);
  }
  check_splits(kSmall, cuts);
  // A directly read body: every offset of the header, then a stride through
  // the body that crosses the staging-buffer size, and its last byte.
  constexpr std::size_t kLarge = 100'003;
  cuts.clear();
  for (std::size_t cut = 1; cut <= comm::kFrameHeaderBytes; ++cut) {
    cuts.push_back(cut);
  }
  for (std::size_t cut = comm::kFrameHeaderBytes + 1;
       cut < comm::kFrameHeaderBytes + kLarge; cut += 997) {
    cuts.push_back(cut);
  }
  cuts.push_back(comm::kFrameHeaderBytes + kLarge - 1);
  check_splits(kLarge, cuts);
  ::close(link.fd);
}

TEST(SocketTransport, StagedAndDirectBodiesBackToBackInOneWrite) {
  SocketTransport transport(2, 4);
  const RawPeer link = raw_peer_link(transport);
  const std::vector<std::vector<std::uint8_t>> bodies = {
      patterned(37, 1), patterned(200 * 1024 + 5, 2), patterned(11, 3)};
  std::vector<std::uint8_t> stream;
  for (std::size_t k = 0; k < bodies.size(); ++k) {
    const auto frame = frame_bytes({.kind = 2,
                                    .from = 1,
                                    .seq = k,
                                    .body_len = bodies[k].size()},
                                   bodies[k]);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  // One write; a thread, because it exceeds the raw client's send buffer.
  std::thread writer(
      [&] { write_all(link.fd, stream.data(), stream.size()); });
  for (std::size_t k = 0; k < bodies.size(); ++k) {
    const std::optional<TransportMessage> m = link.ep.recv();
    EXPECT_TRUE(m.has_value());
    if (!m) break;  // link closed: the writer fails too, so the join returns
    EXPECT_EQ(m->seq, k);
    EXPECT_TRUE(m->payload && *m->payload == bodies[k]);
  }
  writer.join();
  ::close(link.fd);
}

TEST(SocketTransport, TruncatedDirectlyReadBodyFailsFast) {
  SocketTransport transport(2, 4);
  const RawPeer link = raw_peer_link(transport);
  // A 1 MiB body announced, 100 KiB of it sent, then EOF.
  const auto frame =
      frame_bytes({.kind = 2, .from = 1, .seq = 0, .body_len = 1 << 20},
                  patterned(100 * 1024, 4));
  write_all(link.fd, frame.data(), frame.size());
  ::close(link.fd);
  expect_check_error([&] { link.ep.recv(); }, "truncated frame mid-stream");
}

TEST(SocketTransport, HostileMaxBodyHeaderCostsOnlyTheBytesSent) {
  // A header announcing kMaxFrameBody (1 GiB) followed by 1 KiB and EOF:
  // the receiver must commit memory for what arrived, not for what was
  // announced.
  SocketTransport transport(2, 4);
  const RawPeer link = raw_peer_link(transport);
  const auto frame = frame_bytes(
      {.kind = 2, .from = 1, .seq = 0, .body_len = comm::kMaxFrameBody},
      patterned(1024, 5));
  write_all(link.fd, frame.data(), frame.size());
  ::close(link.fd);
  expect_check_error([&] { link.ep.recv(); }, "truncated frame mid-stream");
  struct rusage usage{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &usage), 0);
  EXPECT_LT(usage.ru_maxrss, 256L * 1024L) << "max RSS in KiB";
}

TEST(SocketTransport, QueuedPayloadOutlivesTheSendersReference) {
  // Frames larger than the kernel accepts at once (net.core.wmem_max caps
  // the send buffer), so send() returns with bytes still queued in user
  // space.  The sender keeps no reference to the payload after send() and
  // reuses the memory at once; the receiver must still get the original
  // bytes.
  constexpr std::size_t kBytes = 6 << 20;
  constexpr std::uint64_t kFrames = 2;
  SocketTransport transport(2, 4);
  std::thread sender([&] {
    Endpoint& ep = transport.establish(1);
    for (std::uint64_t k = 0; k < kFrames; ++k) {
      ASSERT_TRUE(ep.send(
          0, {.kind = 1,
              .from = 1,
              .seq = k,
              .payload = std::make_shared<const std::vector<std::uint8_t>>(
                  patterned(kBytes, static_cast<std::uint8_t>(k)))}));
      const std::vector<std::uint8_t> scribble(kBytes, 0xEE);
      ASSERT_EQ(scribble[kBytes / 2], 0xEE);
    }
    ep.flush();
  });
  Endpoint& ep = transport.establish(0);
  for (std::uint64_t k = 0; k < kFrames; ++k) {
    const std::optional<TransportMessage> m = ep.recv();
    EXPECT_TRUE(m.has_value());
    if (!m) break;  // link closed: the sender fails too, so the join returns
    EXPECT_EQ(m->seq, k);
    EXPECT_TRUE(m->payload &&
                *m->payload ==
                    patterned(kBytes, static_cast<std::uint8_t>(k)));
  }
  sender.join();
}

TEST(SocketTransport, LargeFrameLeavesBeforeThePeerReads) {
  // The kernel send buffer grows to hold a whole large frame, so flush()
  // returns while the receiver is still busy elsewhere, before it calls
  // recv() at all.  Without the resize, flush() would block until the
  // receiver drained the frame in default-buffer-sized pieces.
  constexpr std::size_t kBytes = 3 << 20;
  std::ifstream wmem_max_file("/proc/sys/net/core/wmem_max");
  std::size_t wmem_max = 0;
  if (!(wmem_max_file >> wmem_max) || wmem_max < kBytes) {
    GTEST_SKIP() << "net.core.wmem_max below 3 MiB: the kernel caps the "
                    "send buffer under one frame";
  }
  const auto payload = std::make_shared<const std::vector<std::uint8_t>>(
      patterned(kBytes, 6));
  SocketTransport transport(2, 1);
  std::future<void> sender = std::async(std::launch::async, [&] {
    Endpoint& ep = transport.establish(1);
    ASSERT_TRUE(
        ep.send(0, {.kind = 1, .from = 1, .seq = 0, .payload = payload}));
    ep.flush();
  });
  Endpoint& ep = transport.establish(0);
  EXPECT_EQ(sender.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "flush() waited for the receiver: the frame did not fit the "
         "kernel send buffer";
  const std::optional<TransportMessage> m = ep.recv();  // unblocks a stuck
  sender.get();                                         // sender too
  ASSERT_TRUE(m.has_value());
  ASSERT_TRUE(m->payload != nullptr);
  EXPECT_TRUE(*m->payload == *payload);
}

// ---------------------------------------------------------------------------
// Deterministic fault plan (runtime/fault.h).
// ---------------------------------------------------------------------------

dist::FaultInjectionConfig mixed_faults(std::uint64_t seed) {
  dist::FaultInjectionConfig f;
  f.seed = seed;
  f.drop = 0.1;
  f.delay = 0.1;
  f.duplicate = 0.1;
  f.reorder = 0.1;
  f.corrupt = 0.1;
  return f;
}

TEST(FaultPlan, DecisionsArePureInSeedLinkAndIndex) {
  const FaultPlan plan(mixed_faults(17), 3);
  // Same (link, index) -> identical decision, however often and in whatever
  // order it is asked — the property that makes chaos schedules replayable.
  for (std::uint64_t i = 0; i < 256; ++i) {
    const runtime::FaultDecision a = plan.decide(0, 2, i);
    const runtime::FaultDecision b = plan.decide(0, 2, i);
    EXPECT_EQ(a.drop, b.drop);
    EXPECT_EQ(a.corrupt, b.corrupt);
    EXPECT_EQ(a.duplicate, b.duplicate);
    EXPECT_EQ(a.hold, b.hold);
    EXPECT_EQ(a.salt, b.salt);
  }
}

TEST(FaultPlan, SeedAndLinkDirectionChangeTheSchedule) {
  const FaultPlan plan_a(mixed_faults(1), 3);
  const FaultPlan plan_b(mixed_faults(2), 3);
  const auto signature = [](const FaultPlan& plan, std::size_t from,
                            std::size_t to) {
    std::string sig;
    for (std::uint64_t i = 0; i < 512; ++i) {
      const runtime::FaultDecision d = plan.decide(from, to, i);
      sig += d.drop ? 'd' : d.corrupt ? 'c' : d.duplicate ? '2' : '.';
      sig += static_cast<char>('0' + d.hold % 10);
    }
    return sig;
  };
  EXPECT_NE(signature(plan_a, 0, 1), signature(plan_b, 0, 1));  // seed
  EXPECT_NE(signature(plan_a, 0, 1), signature(plan_a, 1, 0));  // direction
  EXPECT_NE(signature(plan_a, 0, 1), signature(plan_a, 0, 2));  // link
}

TEST(FaultPlan, RejectsProbabilitiesSummingPastOne) {
  dist::FaultInjectionConfig f;
  f.drop = 0.6;
  f.corrupt = 0.6;
  expect_check_error([&] { FaultPlan plan(f, 2); (void)plan; },
                     "sum to <= 1");
}

TEST(FaultInjectingEndpoint, CertainDropSwallowsAndCountsEveryMessage) {
  dist::FaultInjectionConfig f;
  f.drop = 1.0;
  const FaultPlan plan(f, 2);
  InMemoryTransport transport(2, 8);
  FaultInjectingEndpoint chaotic(transport.endpoint(0), plan, 0, 2);
  constexpr std::uint64_t kMessages = 16;
  for (std::uint64_t k = 0; k < kMessages; ++k) {
    ASSERT_TRUE(
        chaotic.send(1, {.kind = 1, .from = 0, .seq = k, .payload = nullptr}));
  }
  chaotic.flush();
  EXPECT_EQ(chaotic.counters().drops, kMessages);
  // Nothing survived to the fabric.
  bool timed_out = false;
  EXPECT_FALSE(transport.endpoint(1)
                   .recv_for(std::chrono::milliseconds(10), timed_out)
                   .has_value());
  EXPECT_TRUE(timed_out);
}

// ---------------------------------------------------------------------------
// Reliable delivery (runtime/reliable.h) repairing an injected-fault fabric.
// ---------------------------------------------------------------------------

ReliableParams test_reliable_params(std::size_t self) {
  ReliableParams p;
  p.self = self;
  p.endpoints = 2;
  p.max_retries = 20;
  p.backoff_initial = std::chrono::duration<double, std::milli>(1.0);
  p.backoff_max = std::chrono::duration<double, std::milli>(20.0);
  p.window = 8;
  p.silence_timeout = std::chrono::milliseconds(10000);
  p.heartbeat_interval = std::chrono::milliseconds(200);
  return p;
}

TEST(ReliableEndpoint, ExactlyOnceInOrderOverAHeavilyFaultedFabric) {
  // The headline property at unit scale: both sides stack
  // reliable -> injector -> channel fabric, the injector mangles every class
  // of fault at high probability, and the application still sees per-link
  // FIFO, no loss, no duplicates, no corruption.
  dist::FaultInjectionConfig f;
  f.seed = 99;
  f.drop = 0.15;
  f.delay = 0.1;
  f.duplicate = 0.1;
  f.reorder = 0.1;
  f.corrupt = 0.1;
  const FaultPlan plan(f, 2);
  InMemoryTransport transport(2, 4);
  constexpr std::uint64_t kMessages = 60;

  const auto run_side = [&](std::size_t self) {
    FaultInjectingEndpoint chaotic(transport.endpoint(self), plan, self, 2);
    ReliableEndpoint ep(chaotic, test_reliable_params(self));
    std::uint64_t sent = 0;
    std::uint64_t got = 0;
    std::uint8_t fill = static_cast<std::uint8_t>(0xA0 + self);
    while (sent < kMessages || got < kMessages) {
      if (sent < kMessages) {
        ASSERT_TRUE(ep.send(
            1 - self,
            {.kind = 1,
             .from = self,
             .seq = sent,
             .payload = std::make_shared<const std::vector<std::uint8_t>>(
                 std::vector<std::uint8_t>{
                     fill, static_cast<std::uint8_t>(sent)})}));
        ++sent;
      }
      bool timed_out = false;
      const std::optional<TransportMessage> m =
          ep.recv_for(std::chrono::milliseconds(got < kMessages ? 50 : 0),
                      timed_out);
      if (!m) continue;
      ASSERT_LT(got, kMessages);
      EXPECT_EQ(m->kind, 1);
      EXPECT_EQ(m->from, 1 - self);
      EXPECT_EQ(m->seq, got);  // strict per-link FIFO, exactly once
      ASSERT_TRUE(m->payload != nullptr);
      EXPECT_EQ(*m->payload,
                (std::vector<std::uint8_t>{
                    static_cast<std::uint8_t>(0xA0 + (1 - self)),
                    static_cast<std::uint8_t>(got)}));
      ++got;
    }
    ep.flush();  // drain window + bye fence before the thread goes quiet
    // Quiet for good: later sends to this side fail fast instead of
    // spinning on an inbox nobody drains (the peer's parting bye can still
    // be on its way).
    transport.close_endpoint(self);
  };
  std::thread peer([&] { run_side(1); });
  run_side(0);
  peer.join();
}

TEST(ReliableEndpoint, ZeroTimeoutRecvTakesAQueuedMessage) {
  // The envelope is in the receiver's inbox as soon as send() returns on the
  // in-memory fabric; one zero-timeout receive must pump it through.
  InMemoryTransport transport(2, 8);
  ReliableEndpoint sender(transport.endpoint(0), test_reliable_params(0));
  ReliableEndpoint receiver(transport.endpoint(1), test_reliable_params(1));
  ASSERT_TRUE(
      sender.send(1, {.kind = 1, .from = 0, .seq = 6, .payload = bytes({2})}));
  bool timed_out = true;
  const std::optional<TransportMessage> m =
      receiver.recv_for(std::chrono::milliseconds(0), timed_out);
  ASSERT_TRUE(m.has_value()) << "recv_for(0) gave up before pumping";
  EXPECT_EQ(m->seq, 6U);
  EXPECT_FALSE(timed_out);
  // Both sides flush at once: each acks and byes the other.
  std::thread peer([&] { receiver.flush(); });
  sender.flush();
  peer.join();
}

// ---------------------------------------------------------------------------
// Reliable teardown: a lost bye must not hold flush() for the silence window.
// ---------------------------------------------------------------------------

/// Which bye frames to drop: (sender, receiver, how many byes the sender has
/// already sent that receiver).
using ByeDropRule = std::function<bool(std::size_t from, std::size_t to,
                                       std::size_t nth)>;

/// Drops the bye frames its rule picks before they reach the fabric; every
/// other call passes straight through, except that with `report_links`
/// false every link reads open, so a departed peer shows only as a failed
/// send.  Sits under a ReliableEndpoint, where the fault injector would.
class ByeDropper final : public Endpoint {
 public:
  ByeDropper(Endpoint& inner, std::size_t self, std::size_t endpoints,
             ByeDropRule drop, bool report_links)
      : inner_(inner), self_(self), byes_(endpoints, 0),
        drop_(std::move(drop)), report_links_(report_links) {}

  bool send(std::size_t to, TransportMessage message) override {
    if (message.kind == comm::kByeKind && drop_(self_, to, byes_[to]++)) {
      return true;  // lost on the wire
    }
    return inner_.send(to, std::move(message));
  }

  std::optional<TransportMessage> recv_for(std::chrono::milliseconds timeout,
                                           bool& timed_out) override {
    return inner_.recv_for(timeout, timed_out);
  }

  [[nodiscard]] runtime::LinkState link_state(std::size_t peer) const override {
    return report_links_ ? inner_.link_state(peer) : runtime::LinkState::kOpen;
  }

  [[nodiscard]] bool is_shut_down() const override {
    return inner_.is_shut_down();
  }

 private:
  Endpoint& inner_;
  std::size_t self_;
  std::vector<std::size_t> byes_;  ///< byes sent so far, per receiver
  ByeDropRule drop_;
  bool report_links_;
};

/// A silence window far longer than any clean teardown: a flush that waits
/// it out shows as a 20-s stall.
constexpr std::chrono::milliseconds kTeardownSilence{20000};

/// One thread per endpoint of an in-memory mesh (inbox `capacity`), each
/// behind reliable -> ByeDropper -> fabric: every endpoint sends one message
/// to every peer and receives one from each, then flushes and closes its
/// endpoint, as the threads engine does.  Returns each flush's duration; an
/// endpoint that fails counts as having waited out the silence window.
std::vector<std::chrono::milliseconds> timed_flushes(
    std::size_t endpoints, const ByeDropRule& drop, bool report_links = true,
    std::chrono::milliseconds heartbeat = std::chrono::milliseconds(200),
    std::size_t capacity = 8) {
  InMemoryTransport transport(endpoints, capacity);
  std::vector<std::chrono::milliseconds> took(endpoints);
  const auto run_side = [&](std::size_t self) {
    ByeDropper dropper(transport.endpoint(self), self, endpoints, drop,
                       report_links);
    ReliableParams params = test_reliable_params(self);
    params.endpoints = endpoints;
    params.silence_timeout = kTeardownSilence;
    params.heartbeat_interval = heartbeat;
    ReliableEndpoint ep(dropper, params);
    try {
      for (std::size_t peer = 0; peer < endpoints; ++peer) {
        if (peer == self) continue;
        EXPECT_TRUE(ep.send(
            peer, {.kind = 1, .from = self, .seq = 0, .payload = bytes({7})}));
      }
      for (std::size_t got = 0; got + 1 < endpoints; ++got) {
        EXPECT_TRUE(ep.recv().has_value());
      }
      const auto start = std::chrono::steady_clock::now();
      ep.flush();
      took[self] = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
    } catch (const util::CheckError& e) {
      ADD_FAILURE() << "endpoint " << self << ": " << e.what();
      took[self] = kTeardownSilence;
    }
    transport.close_endpoint(self);
  };
  std::vector<std::thread> peers;
  for (std::size_t id = 1; id < endpoints; ++id) {
    peers.emplace_back(run_side, id);
  }
  run_side(0);
  for (std::thread& t : peers) t.join();
  return took;
}

void expect_prompt_flushes(const std::vector<std::chrono::milliseconds>& took) {
  for (std::size_t id = 0; id < took.size(); ++id) {
    EXPECT_LT(took[id], kTeardownSilence / 4)
        << "endpoint " << id << "'s flush waited out the silence window";
  }
}

TEST(ReliableEndpoint, LostByesInARingDoNotStallFlush) {
  // Each of three endpoints loses its first bye to its predecessor.  Every
  // endpoint then holds one peer's bye and waits on the other's: a cycle
  // that only a bye re-sent to a peer that already byed can break.
  expect_prompt_flushes(timed_flushes(
      3, [](std::size_t from, std::size_t to, std::size_t nth) {
        return to == (from + 2) % 3 && nth == 0;
      }));
}

TEST(ReliableEndpoint, PeerThatNeverByesIsReleasedWhenItLeaves) {
  // Endpoint 0 loses every bye it sends, so endpoint 1 learns that 0 has
  // flushed and closed its endpoint only from the fabric: from the closed
  // link, or, with links hidden, from its next heartbeat failing to send.
  // Either must settle the peer, not a wait for silence.
  for (bool report_links : {true, false}) {
    SCOPED_TRACE(report_links ? "closed link reported" : "closed link hidden");
    expect_prompt_flushes(timed_flushes(
        2,
        [](std::size_t from, std::size_t, std::size_t) { return from == 0; },
        report_links));
  }
}

TEST(ReliableEndpoint, MillisecondHeartbeatsStillReceive) {
  // A heartbeat due within a millisecond truncates every pump's wait to
  // 0 ms, so every receive is a zero-timeout look at the fabric: it must
  // still take what is queued, or no peer is ever heard and the exchange
  // dies of silence.
  expect_prompt_flushes(timed_flushes(
      2, [](std::size_t, std::size_t, std::size_t) { return false; },
      /*report_links=*/true, std::chrono::milliseconds(1),
      /*capacity=*/1024));
}

// ---------------------------------------------------------------------------
// Session watchdog deadline on the in-memory fabric.
// ---------------------------------------------------------------------------

TEST(InMemoryTransport, ExpiredDeadlineFailsBlockingCallsDescriptively) {
  InMemoryTransport transport(2, 1);
  transport.set_deadline(std::chrono::steady_clock::now() -
                         std::chrono::seconds(1));
  // recv on an empty inbox would block forever; the watchdog turns it into a
  // structured error instead.
  expect_check_error([&] { transport.endpoint(0).recv(); },
                     "session watchdog deadline exceeded");
  // A send blocked on a full inbox hits the same watchdog.
  ASSERT_TRUE(transport.endpoint(0).send(
      1, {.kind = 1, .from = 0, .seq = 0, .payload = nullptr}));
  expect_check_error(
      [&] {
        transport.endpoint(0).send(
            1, {.kind = 1, .from = 0, .seq = 1, .payload = nullptr});
      },
      "session watchdog deadline exceeded");
}

}  // namespace
}  // namespace sidco
