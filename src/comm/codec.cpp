#include "comm/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "comm/codec_simd.h"
#include "comm/varint.h"
#include "util/check.h"
#include "util/simd.h"

namespace sidco::comm {

using detail::get_varint;
using detail::put_varint;
using detail::varint_size;

namespace {

constexpr std::uint8_t kMagic0 = 0x53;  // 'S'
constexpr std::uint8_t kMagic1 = 0x43;  // 'C'

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xFF));
  }
}

std::uint64_t get_u64(std::span<const std::uint8_t> buf, std::size_t at) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(buf[at + b]) << (8 * b);
  }
  return v;
}

std::uint32_t get_u32(std::span<const std::uint8_t> buf, std::size_t at) {
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b) {
    v |= static_cast<std::uint32_t>(buf[at + b]) << (8 * b);
  }
  return v;
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}

float get_f32(std::span<const std::uint8_t> buf, std::size_t at) {
  return std::bit_cast<float>(get_u32(buf, at));
}

void write_header(std::vector<std::uint8_t>& out, PayloadKind kind,
                  std::uint8_t flags, std::uint8_t aux, std::uint64_t dense_dim,
                  std::uint64_t count) {
  out.clear();
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(kind));
  out.push_back(flags);
  out.push_back(aux);
  put_u16(out, 0);  // reserved
  put_u64(out, dense_dim);
  put_u64(out, count);
}

void write_values(util::simd::Level level, std::vector<std::uint8_t>& out,
                  std::span<const float> values, ValueMode mode) {
  // Fast paths assume the host byte order matches the little-endian wire
  // order; the forced-scalar level keeps the reference per-element loops.
  if constexpr (std::endian::native == std::endian::little) {
    if (level != util::simd::Level::kScalar) {
      if (mode == ValueMode::kFp32) {
        // Appended, not zero-filled and then copied over.
        const auto* bytes =
            reinterpret_cast<const std::uint8_t*>(values.data());
        out.insert(out.end(), bytes, bytes + values.size() * 4);
      } else {
        const std::size_t at = out.size();
        out.resize(at + values.size() * 2);
        detail::float_to_half_bytes(level, values.data(), values.size(),
                                    out.data() + at);
      }
      return;
    }
  }
  if (mode == ValueMode::kFp32) {
    for (float v : values) put_f32(out, v);
  } else {
    for (float v : values) put_u16(out, float_to_half(v));
  }
}

float read_value(std::span<const std::uint8_t> buf, std::size_t at,
                 ValueMode mode) {
  if (mode == ValueMode::kFp32) return get_f32(buf, at);
  return half_to_float(
      static_cast<std::uint16_t>(buf[at] | (buf[at + 1] << 8)));
}

/// Decodes out.size() values starting at byte `at` into `out`.
void read_values(util::simd::Level level, std::span<const std::uint8_t> buf,
                 std::size_t at, ValueMode mode, std::span<float> out) {
  if constexpr (std::endian::native == std::endian::little) {
    if (level != util::simd::Level::kScalar) {
      if (mode == ValueMode::kFp32) {
        if (!out.empty()) {
          std::memcpy(out.data(), buf.data() + at, out.size() * 4);
        }
      } else {
        detail::half_to_float_bytes(level, buf.data() + at, out.size(),
                                    out.data());
      }
      return;
    }
  }
  const std::size_t vb = value_bytes(mode);
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = read_value(buf, at + j * vb, mode);
  }
}

void check_canonical_for_encode(const tensor::SparseGradient& g) {
  util::check(g.dense_dim <= std::numeric_limits<std::uint32_t>::max(),
              "wire: dense_dim exceeds the u32 index range");
  // One authoritative definition of canonical form (arity match, strictly
  // increasing in-range indices): SparseGradient::is_canonical().
  util::check(g.is_canonical(),
              "wire: sparse gradient is not canonical (sorted unique "
              "in-range indices required)");
}

}  // namespace

std::uint16_t float_to_half(float value) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (bits >> 16) & 0x8000U;
  const std::uint32_t exponent = (bits >> 23) & 0xFFU;
  std::uint32_t mantissa = bits & 0x007FFFFFU;

  if (exponent == 0xFFU) {  // inf / NaN
    return static_cast<std::uint16_t>(
        sign | 0x7C00U | (mantissa != 0 ? 0x0200U : 0));
  }
  // Rebias 127 -> 15.
  const int half_exp = static_cast<int>(exponent) - 127 + 15;
  if (half_exp >= 0x1F) {  // overflow -> inf
    return static_cast<std::uint16_t>(sign | 0x7C00U);
  }
  if (half_exp <= 0) {  // subnormal or zero
    if (half_exp < -10) return static_cast<std::uint16_t>(sign);
    mantissa |= 0x00800000U;  // implicit leading 1
    const int shift = 14 - half_exp;  // in [14, 24]
    const std::uint32_t rounded =
        (mantissa >> shift) +
        // Round to nearest, ties to even.
        (((mantissa >> (shift - 1)) & 1U) &&
                 ((mantissa & ((1U << (shift - 1)) - 1U)) != 0 ||
                  ((mantissa >> shift) & 1U))
             ? 1U
             : 0U);
    return static_cast<std::uint16_t>(sign | rounded);
  }
  std::uint32_t half =
      static_cast<std::uint32_t>(half_exp) << 10 | (mantissa >> 13);
  // Round to nearest, ties to even, possibly carrying into the exponent
  // (and to infinity at the top — IEEE-correct).
  const std::uint32_t round_bits = mantissa & 0x1FFFU;
  if (round_bits > 0x1000U || (round_bits == 0x1000U && (half & 1U))) {
    half += 1;
  }
  return static_cast<std::uint16_t>(sign | half);
}

float half_to_float(std::uint16_t half) {
  const std::uint32_t sign = static_cast<std::uint32_t>(half & 0x8000U) << 16;
  const std::uint32_t exponent = (half >> 10) & 0x1FU;
  std::uint32_t mantissa = half & 0x03FFU;

  std::uint32_t bits;
  if (exponent == 0x1FU) {  // inf / NaN
    bits = sign | 0x7F800000U | (mantissa << 13);
  } else if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // signed zero
    } else {
      // Normalize the subnormal.
      int e = -1;
      do {
        mantissa <<= 1;
        ++e;
      } while ((mantissa & 0x0400U) == 0);
      mantissa &= 0x03FFU;
      bits = sign |
             (static_cast<std::uint32_t>(127 - 15 - e) << 23) |
             (mantissa << 13);
    }
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(bits);
}

void float_to_half_n(const float* in, std::size_t n, std::uint16_t* out) {
  // The byte-stream helpers speak little-endian wire order, which matches
  // the in-memory u16 layout only on little-endian hosts.
  if constexpr (std::endian::native == std::endian::little) {
    detail::float_to_half_bytes(util::simd::active(), in, n,
                                reinterpret_cast<std::uint8_t*>(out));
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = float_to_half(in[i]);
  }
}

void half_to_float_n(const std::uint16_t* in, std::size_t n, float* out) {
  if constexpr (std::endian::native == std::endian::little) {
    detail::half_to_float_bytes(util::simd::active(),
                                reinterpret_cast<const std::uint8_t*>(in), n,
                                out);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = half_to_float(in[i]);
  }
}

std::size_t varint_index_bytes(const tensor::SparseGradient& gradient) {
  std::size_t bytes = 0;
  std::uint32_t prev = 0;
  for (std::size_t j = 0; j < gradient.indices.size(); ++j) {
    const std::uint64_t delta =
        j == 0 ? gradient.indices[0]
               : static_cast<std::uint64_t>(gradient.indices[j]) - prev - 1;
    bytes += varint_size(delta);
    prev = gradient.indices[j];
  }
  return bytes;
}

IndexMode select_index_mode(const tensor::SparseGradient& gradient) {
  return varint_index_bytes(gradient) <= bitmap_index_bytes(gradient.dense_dim)
             ? IndexMode::kVarintDelta
             : IndexMode::kBitmap;
}

std::size_t encoded_sparse_bytes(const tensor::SparseGradient& gradient,
                                 ValueMode mode) {
  const std::size_t index_bytes =
      std::min(varint_index_bytes(gradient),
               bitmap_index_bytes(gradient.dense_dim));
  return kHeaderBytes + index_bytes + gradient.nnz() * value_bytes(mode);
}

std::size_t encode_sparse(const tensor::SparseGradient& gradient,
                          ValueMode mode, std::vector<std::uint8_t>& out) {
  check_canonical_for_encode(gradient);
  const std::size_t vbytes = varint_index_bytes(gradient);
  const std::size_t bbytes = bitmap_index_bytes(gradient.dense_dim);
  // Same tie-break as select_index_mode: varint unless the bitmap is
  // strictly smaller.
  const IndexMode index_mode =
      vbytes <= bbytes ? IndexMode::kVarintDelta : IndexMode::kBitmap;
  const std::uint8_t flags =
      static_cast<std::uint8_t>(index_mode) |
      static_cast<std::uint8_t>(static_cast<std::uint8_t>(mode) << 1);
  write_header(out, PayloadKind::kSparse, flags, 0, gradient.dense_dim,
               gradient.nnz());

  const util::simd::Level level = util::simd::active();
  const std::size_t index_at = out.size();
  if (index_mode == IndexMode::kVarintDelta) {
    out.resize(index_at + vbytes);
    detail::encode_varint_deltas(level, gradient.indices,
                                 out.data() + index_at);
  } else {
    out.resize(index_at + bbytes, 0);
    detail::build_bitmap(level, gradient.indices, out.data() + index_at,
                         bbytes);
  }
  write_values(level, out, gradient.values, mode);
  return out.size();
}

MessageInfo peek_header(std::span<const std::uint8_t> buffer) {
  util::check(buffer.size() >= kHeaderBytes, "wire: buffer shorter than header");
  util::check(buffer[0] == kMagic0 && buffer[1] == kMagic1,
              "wire: bad magic");
  util::check(buffer[2] == kWireVersion, "wire: unsupported wire version");
  const std::uint8_t kind = buffer[3];
  util::check(kind <= static_cast<std::uint8_t>(PayloadKind::kQuantized),
              "wire: unknown payload kind");
  const std::uint8_t flags = buffer[4];
  util::check((flags & ~0x03U) == 0, "wire: unknown flag bits");
  util::check(buffer[6] == 0 && buffer[7] == 0, "wire: nonzero reserved bytes");

  MessageInfo info;
  info.kind = static_cast<PayloadKind>(kind);
  info.index_mode = static_cast<IndexMode>(flags & 0x01U);
  info.value_mode = static_cast<ValueMode>((flags >> 1) & 0x01U);
  info.symbol_bits = buffer[5];
  const std::uint64_t dense_dim = get_u64(buffer, 8);
  const std::uint64_t count = get_u64(buffer, 16);
  util::check(dense_dim <= std::numeric_limits<std::uint32_t>::max(),
              "wire: dense_dim exceeds the u32 index range");
  info.dense_dim = static_cast<std::size_t>(dense_dim);
  info.count = static_cast<std::size_t>(count);
  info.encoded_bytes = buffer.size();
  if (info.kind == PayloadKind::kQuantized) {
    util::check(info.symbol_bits >= 1 && info.symbol_bits <= 32,
                "wire: quantized symbol bits out of range");
  } else {
    util::check(info.symbol_bits == 0, "wire: nonzero aux byte");
  }
  return info;
}

MessageInfo decode_sparse(std::span<const std::uint8_t> buffer,
                          tensor::SparseGradient& out) {
  const MessageInfo info = peek_header(buffer);
  util::check(info.kind == PayloadKind::kSparse,
              "wire: expected a sparse payload");
  util::check(info.count <= info.dense_dim, "wire: nnz exceeds dense_dim");
  // The encoder never emits bitmap indexing for an empty selection: varint
  // costs 0 index bytes there and select_index_mode breaks ties toward
  // varint.  A bitmap header claiming zero nnz is therefore always a forged
  // or corrupt buffer — reject it outright instead of accepting a payload no
  // encoder can produce.
  util::check(info.index_mode == IndexMode::kVarintDelta || info.count > 0,
              "wire: bitmap index mode with zero nnz");

  // Bound the declared nnz by what the buffer could possibly hold (>= 1
  // byte per varint index / the full bitmap, plus the value section) BEFORE
  // reserving output storage — a 24-byte hostile buffer claiming 2^32
  // entries must fail with CheckError, not a multi-GB allocation.
  const std::size_t vb = value_bytes(info.value_mode);
  if (info.index_mode == IndexMode::kVarintDelta) {
    util::check(buffer.size() >= kHeaderBytes + info.count * (1 + vb),
                "wire: buffer too small for declared nnz");
  } else {
    util::check(buffer.size() == kHeaderBytes +
                                     bitmap_index_bytes(info.dense_dim) +
                                     info.count * vb,
                "wire: payload size does not match header");
  }

  out.dense_dim = info.dense_dim;
  out.indices.clear();
  out.values.clear();
  out.indices.reserve(info.count);
  out.values.reserve(info.count);

  const util::simd::Level level = util::simd::active();
  std::size_t pos = kHeaderBytes;
  if (info.index_mode == IndexMode::kVarintDelta) {
    detail::decode_varint_deltas(level, buffer, pos, info.count,
                                 info.dense_dim, out.indices);
  } else {
    const std::size_t bitmap_bytes = bitmap_index_bytes(info.dense_dim);
    detail::scan_bitmap(level, buffer.data() + pos, bitmap_bytes,
                        info.dense_dim, out.indices);
    util::check(out.indices.size() == info.count,
                "wire: bitmap population does not match nnz");
    pos += bitmap_bytes;
  }

  util::check(buffer.size() == pos + info.count * vb,
              "wire: payload size does not match header");
  out.values.resize(info.count);
  read_values(level, buffer, pos, info.value_mode, out.values);
  return info;
}

std::size_t encode_dense(std::span<const float> values, ValueMode mode,
                         std::vector<std::uint8_t>& out) {
  const std::uint8_t flags =
      static_cast<std::uint8_t>(static_cast<std::uint8_t>(mode) << 1);
  out.clear();
  out.reserve(encoded_dense_bytes(values.size(), mode));
  write_header(out, PayloadKind::kDense, flags, 0, values.size(),
               values.size());
  write_values(util::simd::active(), out, values, mode);
  return out.size();
}

MessageInfo check_dense(std::span<const std::uint8_t> buffer) {
  const MessageInfo info = peek_header(buffer);
  util::check(info.kind == PayloadKind::kDense,
              "wire: expected a dense payload");
  util::check(info.count == info.dense_dim,
              "wire: dense count must equal dense_dim");
  util::check(info.index_mode == IndexMode::kVarintDelta,
              "wire: dense payloads take no index mode bit");
  const std::size_t vb = value_bytes(info.value_mode);
  util::check(buffer.size() == kHeaderBytes + info.count * vb,
              "wire: payload size does not match header");
  return info;
}

void read_dense_values(std::span<const std::uint8_t> buffer,
                       const MessageInfo& info, std::size_t first,
                       std::span<float> out) {
  util::check(first <= info.count && out.size() <= info.count - first &&
                  buffer.size() == encoded_dense_bytes(info.count,
                                                       info.value_mode),
              "wire: dense value range outside the message");
  read_values(util::simd::active(), buffer,
              kHeaderBytes + first * value_bytes(info.value_mode),
              info.value_mode, out);
}

MessageInfo decode_dense(std::span<const std::uint8_t> buffer,
                         std::vector<float>& out) {
  const MessageInfo info = check_dense(buffer);
  out.resize(info.count);
  read_dense_values(buffer, info, 0, out);
  return info;
}

std::size_t encode_quantized(const QuantizedPayload& payload,
                             std::vector<std::uint8_t>& out) {
  util::check(payload.symbol_bits >= 1 && payload.symbol_bits <= 32,
              "wire: quantized symbol bits out of range");
  const std::size_t n = payload.symbols.size();
  write_header(out, PayloadKind::kQuantized, 0, payload.symbol_bits, n, n);
  put_f32(out, payload.scale);

  const std::size_t packed_bytes =
      (n * payload.symbol_bits + 7) / 8;
  const std::size_t packed_at = out.size();
  out.resize(out.size() + packed_bytes, 0);
  detail::pack_symbols(util::simd::active(), payload.symbols,
                       payload.symbol_bits, out.data() + packed_at);
  return out.size();
}

MessageInfo decode_quantized(std::span<const std::uint8_t> buffer,
                             QuantizedPayload& out) {
  const MessageInfo info = peek_header(buffer);
  util::check(info.kind == PayloadKind::kQuantized,
              "wire: expected a quantized payload");
  util::check(info.count == info.dense_dim,
              "wire: quantized count must equal dense_dim");
  util::check(info.index_mode == IndexMode::kVarintDelta &&
                  info.value_mode == ValueMode::kFp32,
              "wire: quantized payloads take no mode bits");
  const std::size_t packed_bytes = (info.count * info.symbol_bits + 7) / 8;
  util::check(buffer.size() == kHeaderBytes + 4 + packed_bytes,
              "wire: payload size does not match header");

  out.scale = get_f32(buffer, kHeaderBytes);
  out.symbol_bits = info.symbol_bits;
  out.symbols.clear();
  out.symbols.reserve(info.count);
  detail::unpack_symbols(util::simd::active(), buffer.data() + kHeaderBytes + 4,
                         info.count, info.symbol_bits, out.symbols);
  return info;
}

std::size_t encode_gradient(const tensor::SparseGradient& gradient,
                            ValueMode mode, std::vector<std::uint8_t>& out) {
  if (gradient.nnz() == gradient.dense_dim) {
    return encode_dense(gradient.values, mode, out);
  }
  return encode_sparse(gradient, mode, out);
}

std::size_t encode_dense_or_sparse(std::span<const float> values,
                                   ValueMode mode,
                                   tensor::SparseGradient& scratch,
                                   std::vector<std::uint8_t>& out) {
  scratch.dense_dim = values.size();
  scratch.indices.clear();
  scratch.values.clear();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != 0.0F) {
      scratch.indices.push_back(static_cast<std::uint32_t>(i));
      scratch.values.push_back(values[i]);
    }
  }
  if (encoded_sparse_bytes(scratch, mode) <
      encoded_dense_bytes(values.size(), mode)) {
    return encode_sparse(scratch, mode, out);
  }
  return encode_dense(values, mode, out);
}

}  // namespace sidco::comm
