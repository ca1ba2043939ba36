// Length-prefixed frame header for socket transports (runtime module).
//
// The comm codec (codec.h) defines what a gradient payload *is*; this header
// defines how one message is delimited on a byte stream that has no message
// boundaries of its own (a TCP or Unix-domain socket).  Every frame is a
// fixed 24-byte header followed by `body_len` opaque body bytes — for
// gradient traffic the body is the exact codec buffer, byte for byte, so
// framing adds delimitation without re-encoding anything:
//
//   offset size field
//   0      4    magic 0x53464d31 ("1MFS" on the wire, little-endian)
//   4      2    version (kFrameVersion; decoders reject anything else)
//   6      1    kind (transport message kind; opaque to the framing layer)
//   7      1    reserved, must be zero
//   8      2    from (sender endpoint id)
//   10     2    reserved, must be zero
//   12     4    body_len (bytes following the header, <= kMaxFrameBody)
//   16     8    seq (sender-assigned sequence / iteration tag)
//
// All fields are little-endian and written byte-by-byte, the same
// endianness-normalization-by-construction contract as the codec header.
//
// Decoding is strict: a short buffer, wrong magic, unknown version, nonzero
// reserved bytes, or a body_len beyond kMaxFrameBody throws util::CheckError
// with a descriptive message.  A receiver therefore fails fast on a corrupt
// or hostile stream instead of mis-framing it — the transport layer turns
// that into a session error rather than a hang.
//
// The put_*/get_* helpers are exported so transport-level message
// serializers (runtime/topology.cpp) reuse the exact same little-endian
// primitives instead of growing private copies.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace sidco::comm {

inline constexpr std::uint32_t kFrameMagic = 0x53464d31;  // "1MFS" LE
inline constexpr std::uint16_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 24;

// Frame kinds 0xE0..0xFF are reserved for transport-internal protocols and
// never reach the topology layer: 0 is the socket handshake hello
// (socket_transport.cpp), the application kinds of runtime/topology.h start
// at 1, and the reliable-delivery decorator (runtime/reliable.h) uses the
// constants below for its envelope/ack/liveness traffic.
inline constexpr std::uint8_t kReliableDataKind = 0xF0;  ///< crc+orig envelope
inline constexpr std::uint8_t kReliableAckKind = 0xF1;   ///< seq = acked rseq
inline constexpr std::uint8_t kHeartbeatKind = 0xF2;     ///< liveness beacon
inline constexpr std::uint8_t kByeKind = 0xF3;           ///< clean-close fence
inline constexpr std::uint8_t kReservedKindBase = 0xE0;  ///< first reserved
/// Upper bound on a frame body.  Far above any real payload (the largest,
/// a VGG19 proxy's dense push or parameter snapshot, is 5.59 MB); its job is
/// to make a corrupt length field fail fast instead of asking the receiver
/// to buffer gigabytes.
inline constexpr std::size_t kMaxFrameBody = std::size_t{1} << 30;

/// Little-endian scalar append/read primitives shared by the frame codec and
/// the transport message serializers.
inline void put_u32_le(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void put_u64_le(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// Doubles cross the wire as their IEEE 754 bit pattern: bit-exact by
/// construction, which the cross-engine bit-identity contracts rely on.
inline void put_f64_le(std::vector<std::uint8_t>& out, double v) {
  put_u64_le(out, std::bit_cast<std::uint64_t>(v));
}

inline void put_f32_le(std::vector<std::uint8_t>& out, float v) {
  put_u32_le(out, std::bit_cast<std::uint32_t>(v));
}

// -- Sequence-number arithmetic ---------------------------------------------
//
// The frame `seq` field is a free-running 64-bit counter with *serial number
// arithmetic* semantics (RFC 1982): values compare modulo 2^64, so a counter
// that wraps past 2^64-1 keeps ordering correctly as long as two live
// sequence numbers are never more than 2^63 apart — unreachable in practice,
// and the ack/retransmission layer keeps at most a small window in flight.
// Every consumer that orders or diffs seq values MUST use these helpers
// instead of raw `<` / `-`, or a long session that wraps would misinterpret
// sequence reuse.

/// True when `a` precedes `b` in serial order (modulo 2^64).  Neither total
/// nor antisymmetric at the exact antipode (distance 2^63) — callers keep
/// live windows far smaller than that.
[[nodiscard]] constexpr bool seq_less(std::uint64_t a, std::uint64_t b) {
  return a != b && (b - a) < (std::uint64_t{1} << 63);
}

/// Forward distance from `a` to `b` modulo 2^64 (0 when equal).  Well-defined
/// through wraparound: seq_distance(2^64 - 1, 1) == 2.
[[nodiscard]] constexpr std::uint64_t seq_distance(std::uint64_t a,
                                                   std::uint64_t b) {
  return b - a;
}

/// FNV-1a 32-bit hash, used by the reliable-delivery decorator as a payload
/// checksum (detects injected/real corruption before a frame is acked).  Not
/// cryptographic — an integrity fingerprint, not an authenticator.
[[nodiscard]] std::uint32_t fnv1a32(std::span<const std::uint8_t> bytes);

std::uint16_t get_u16_le(std::span<const std::uint8_t> buffer,
                         std::size_t pos);
std::uint32_t get_u32_le(std::span<const std::uint8_t> buffer,
                         std::size_t pos);
std::uint64_t get_u64_le(std::span<const std::uint8_t> buffer,
                         std::size_t pos);
double get_f64_le(std::span<const std::uint8_t> buffer, std::size_t pos);

/// Parsed frame header (everything except the body bytes themselves).
struct FrameHeader {
  std::uint8_t kind = 0;
  std::uint16_t from = 0;
  std::uint64_t seq = 0;
  std::size_t body_len = 0;
};

/// Serializes a frame header.  Throws util::CheckError when body_len exceeds
/// kMaxFrameBody (a sender must never emit a frame its peers would reject).
std::array<std::uint8_t, kFrameHeaderBytes> encode_frame_header(
    const FrameHeader& header);

/// Strictly parses the frame header at the front of `buffer` (which may hold
/// more bytes — the body, further frames).  Throws util::CheckError on a
/// buffer shorter than kFrameHeaderBytes, wrong magic, unknown version,
/// nonzero reserved bytes, or an oversized body_len.
FrameHeader decode_frame_header(std::span<const std::uint8_t> buffer);

}  // namespace sidco::comm
