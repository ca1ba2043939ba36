// Versioned wire-format codec for compressed gradient exchange.
//
// Everything the dist runtime prices as "bytes on the wire" is produced by
// this codec: a compressed gradient is actually serialized into a byte
// buffer, and the buffer's size — not an analytic `k x 8` estimate — feeds
// the timing models and the scenario metrics.  Three payload kinds share one
// fixed 24-byte header:
//
//   offset size field
//   0      2    magic "SC" (0x53 0x43)
//   2      1    version (kWireVersion; decoders reject anything else)
//   3      1    kind (0 sparse, 1 dense, 2 quantized)
//   4      1    flags (bit 0: index mode, bit 1: value mode; rest zero)
//   5      1    aux (quantized: bits per symbol; otherwise zero)
//   6      2    reserved, must be zero
//   8      8    dense_dim (u64)
//   16     8    count (sparse: nnz; dense/quantized: element count)
//
// All multi-byte fields are little-endian and written byte-by-byte, so the
// encoding is identical on any host (endianness-normalized by construction).
//
// Sparse payloads carry an index section followed by a value section.  The
// encoder picks whichever index mode is smaller for the payload at hand:
//
//  - kVarintDelta: LEB128 varints — the first index raw, then successive
//    gaps minus one (indices are strictly increasing, so every gap is >= 1).
//    ~1 byte/index for dense tails, <= 5 bytes worst case.
//  - kBitmap: ceil(dense_dim / 8) bytes, bit i (LSB-first within each byte)
//    set iff index i is present.  Cheaper than varints once density exceeds
//    roughly 1/8 (exactly: when the summed varint size passes the bitmap
//    size; with single-byte gaps that is nnz > ceil(dense_dim / 8)).
//
// Values follow in ascending index order as fp32 (bit-exact) or fp16
// (round-to-nearest-even, lossy).  Dense payloads are just a value section.
// Quantized payloads (SignSGD / QSGD) carry one fp32 scale plus bit-packed
// symbols of `symbol_bits` each, LSB-first.
//
// Allocation contract: encode_* reuse the caller's output buffer and
// decode_* reuse the output gradient/vector storage, so steady-state
// encode/decode performs zero heap allocations once buffers reach their
// high-water capacity (the same contract as compressors::compress_into).
//
// Decoders are strict: wrong magic, unknown version/kind/flag bits, nonzero
// reserved bytes, truncated or oversized buffers, out-of-range or
// non-increasing indices, and bitmap popcount mismatches all throw
// util::CheckError.  A canonical (sorted, unique, in-range) SparseGradient
// is therefore the only thing a successful sparse decode can produce.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/sparse.h"

namespace sidco::comm {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;

enum class PayloadKind : std::uint8_t {
  kSparse = 0,
  kDense = 1,
  kQuantized = 2,
};

enum class IndexMode : std::uint8_t {
  kVarintDelta = 0,
  kBitmap = 1,
};

enum class ValueMode : std::uint8_t {
  kFp32 = 0,
  kFp16 = 1,
};

/// Decoded header summary returned by every decode_* call (and peek_header).
struct MessageInfo {
  PayloadKind kind = PayloadKind::kSparse;
  IndexMode index_mode = IndexMode::kVarintDelta;  ///< sparse only
  ValueMode value_mode = ValueMode::kFp32;         ///< sparse/dense only
  std::uint8_t symbol_bits = 0;                    ///< quantized only
  std::size_t dense_dim = 0;
  std::size_t count = 0;
  std::size_t encoded_bytes = 0;  ///< total message size, header included
};

/// IEEE 754 binary16 conversions (round-to-nearest-even on the way down).
std::uint16_t float_to_half(float value);
float half_to_float(std::uint16_t half);

/// Batch binary16 conversions over contiguous arrays.  Dispatched through
/// util::simd (F16C on AVX2 hosts) but bit-identical per element to the
/// scalar functions above for every input, NaNs included — the vector paths
/// canonicalize NaN exactly like float_to_half and preserve signaling-NaN
/// payloads exactly like half_to_float.
void float_to_half_n(const float* in, std::size_t n, std::uint16_t* out);
void half_to_float_n(const std::uint16_t* in, std::size_t n, float* out);

/// Exact size of the varint-delta index section for a canonical gradient.
std::size_t varint_index_bytes(const tensor::SparseGradient& gradient);

/// Size of the bitmap index section for a given dense dimension.
inline std::size_t bitmap_index_bytes(std::size_t dense_dim) {
  return (dense_dim + 7) / 8;
}

/// The encoder's mode choice: varint-delta unless the bitmap is strictly
/// smaller (ties go to varint).
IndexMode select_index_mode(const tensor::SparseGradient& gradient);

/// Bytes per value for a mode (4 for fp32, 2 for fp16).
inline std::size_t value_bytes(ValueMode mode) {
  return mode == ValueMode::kFp32 ? 4 : 2;
}

/// Serializes a canonical sparse gradient (header + auto-selected index
/// section + values) into `out`, reusing its storage.  Returns the encoded
/// size.  Throws util::CheckError when `gradient` is not canonical.
std::size_t encode_sparse(const tensor::SparseGradient& gradient,
                          ValueMode mode, std::vector<std::uint8_t>& out);

/// Decodes a sparse message into `out` (storage reused).  Returns the header
/// summary.  Strict: rejects anything that is not a well-formed version-1
/// sparse message covering the whole buffer.
MessageInfo decode_sparse(std::span<const std::uint8_t> buffer,
                          tensor::SparseGradient& out);

/// Serializes a dense value vector (header + values).  Returns encoded size.
std::size_t encode_dense(std::span<const float> values, ValueMode mode,
                         std::vector<std::uint8_t>& out);

/// Decodes a dense message into `out` (storage reused): check_dense, then
/// read_dense_values over every value.
MessageInfo decode_dense(std::span<const std::uint8_t> buffer,
                         std::vector<float>& out);

/// Validates a dense message without decoding it (the checks and messages of
/// decode_dense) and returns its header summary.
MessageInfo check_dense(std::span<const std::uint8_t> buffer);

/// Decodes values [first, first + out.size()) of a dense message that
/// check_dense accepted (`info` is its summary) into `out`, so a reader can
/// stream a large message through a small buffer.
void read_dense_values(std::span<const std::uint8_t> buffer,
                       const MessageInfo& info, std::size_t first,
                       std::span<float> out);

/// A bit-packed quantized payload: `symbols[i]` in [0, 2^symbol_bits) plus
/// one fp32 scale.  SignSGD packs sign bits (symbol_bits = 1); QSGD packs
/// zigzag-coded signed levels.
struct QuantizedPayload {
  float scale = 0.0F;
  std::uint8_t symbol_bits = 1;
  std::vector<std::uint32_t> symbols;
};

/// Serializes a quantized payload (header + scale + packed symbols).
std::size_t encode_quantized(const QuantizedPayload& payload,
                             std::vector<std::uint8_t>& out);

/// Decodes a quantized message into `out` (storage reused).
MessageInfo decode_quantized(std::span<const std::uint8_t> buffer,
                             QuantizedPayload& out);

/// Parses and validates only the 24-byte header (any kind).
MessageInfo peek_header(std::span<const std::uint8_t> buffer);

/// Encoded size of a sparse gradient without materializing the bytes
/// (header + min(varint, bitmap) + values).
std::size_t encoded_sparse_bytes(const tensor::SparseGradient& gradient,
                                 ValueMode mode);

/// Encoded size of a dense payload of `n` values.
inline std::size_t encoded_dense_bytes(std::size_t n, ValueMode mode) {
  return kHeaderBytes + n * value_bytes(mode);
}

/// Serializes a canonical sparse gradient as whichever message is smaller.
/// When it covers every coordinate (nnz == dense_dim) its value array IS the
/// dense vector, and a dense message always beats paying for indices; a
/// partial gradient encodes sparse.  This is the worker-push entry point.
std::size_t encode_gradient(const tensor::SparseGradient& gradient,
                            ValueMode mode, std::vector<std::uint8_t>& out);

/// Serializes a dense vector as whichever message is smaller: a dense
/// message, or a sparse message over its nonzero support.  `scratch` stages
/// the sparse candidate (storage reused).  This is the aggregated-update
/// (server-pull) entry point — the honest place where aggregation-side
/// densification shows up as bytes.
std::size_t encode_dense_or_sparse(std::span<const float> values,
                                   ValueMode mode,
                                   tensor::SparseGradient& scratch,
                                   std::vector<std::uint8_t>& out);

}  // namespace sidco::comm
