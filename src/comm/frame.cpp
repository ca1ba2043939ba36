#include "comm/frame.h"

#include <string>

#include "util/check.h"

namespace sidco::comm {

namespace {

void require(std::span<const std::uint8_t> buffer, std::size_t pos,
             std::size_t bytes) {
  util::check(pos + bytes <= buffer.size(),
              "frame: read past the end of the buffer");
}

// Offsets of the header's reserved regions (see the layout table in
// frame.h).  The single source of truth for "which bytes must be zero" —
// encode and decode both derive from it, so the two can never drift apart.
constexpr std::size_t kReservedByteOffsets[] = {7, 10, 11};

void require_reserved_zero(std::span<const std::uint8_t> buffer) {
  for (const std::size_t off : kReservedByteOffsets) {
    util::check(buffer[off] == 0, "frame: nonzero reserved byte");
  }
}

}  // namespace

std::uint32_t fnv1a32(std::span<const std::uint8_t> bytes) {
  std::uint32_t hash = 0x811c9dc5u;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x01000193u;
  }
  return hash;
}

std::uint16_t get_u16_le(std::span<const std::uint8_t> buffer,
                         std::size_t pos) {
  require(buffer, pos, 2);
  return static_cast<std::uint16_t>(buffer[pos] |
                                    (std::uint16_t{buffer[pos + 1]} << 8));
}

std::uint32_t get_u32_le(std::span<const std::uint8_t> buffer,
                         std::size_t pos) {
  require(buffer, pos, 4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | buffer[pos + static_cast<std::size_t>(i)];
  }
  return v;
}

std::uint64_t get_u64_le(std::span<const std::uint8_t> buffer,
                         std::size_t pos) {
  require(buffer, pos, 8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | buffer[pos + static_cast<std::size_t>(i)];
  }
  return v;
}

double get_f64_le(std::span<const std::uint8_t> buffer, std::size_t pos) {
  return std::bit_cast<double>(get_u64_le(buffer, pos));
}

std::array<std::uint8_t, kFrameHeaderBytes> encode_frame_header(
    const FrameHeader& header) {
  util::check(header.body_len <= kMaxFrameBody,
              "frame: body length exceeds kMaxFrameBody");
  std::array<std::uint8_t, kFrameHeaderBytes> out{};
  std::size_t pos = 0;
  const auto put = [&](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out[pos++] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  put(kFrameMagic, 4);
  put(kFrameVersion, 2);
  put(header.kind, 1);
  put(0, 1);  // reserved
  put(header.from, 2);
  put(0, 2);  // reserved
  put(static_cast<std::uint32_t>(header.body_len), 4);
  put(header.seq, 8);
  return out;
}

FrameHeader decode_frame_header(std::span<const std::uint8_t> buffer) {
  util::check(buffer.size() >= kFrameHeaderBytes,
              "frame: buffer shorter than a frame header");
  util::check(get_u32_le(buffer, 0) == kFrameMagic, "frame: bad magic");
  util::check(get_u16_le(buffer, 4) == kFrameVersion,
              "frame: unknown version");
  require_reserved_zero(buffer);
  FrameHeader header;
  header.kind = buffer[6];
  header.from = get_u16_le(buffer, 8);
  header.body_len = get_u32_le(buffer, 12);
  header.seq = get_u64_le(buffer, 16);
  if (header.body_len > kMaxFrameBody) {
    util::check_fail("frame: oversized body length " +
                     std::to_string(header.body_len) + " (max " +
                     std::to_string(kMaxFrameBody) + ")");
  }
  return header;
}

}  // namespace sidco::comm
