// Sparse collective aggregation over decoded wire payloads.
//
// These primitives are the receive side of the codec: a parameter server (or
// each allgather participant) accumulates per-worker payloads — decoded from
// their wire buffers — into one dense mean.  The accumulation order and the
// per-element operation (`out[i] += scale * v`, fp32) are exactly those of
// tensor::aggregate_mean, so with fp32 value payloads the result is
// bit-identical to the dense reference mean of the decoded gradients.
//
// Hostile inputs are rejected, never mis-summed: encoded buffers go through
// the strict codec validation, and raw SparseGradient inputs are checked for
// canonical form (sorted unique in-range indices) before any element lands
// in the accumulator.  The check is O(k) on a payload whose accumulation is
// already O(k), so it stays on in release builds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "comm/codec.h"
#include "tensor/sparse.h"

namespace sidco::comm {

/// Throws util::CheckError unless `gradient` is canonical: index/value arity
/// match, indices strictly increasing and < dense_dim.
void check_canonical(const tensor::SparseGradient& gradient);

/// Accumulates worker payloads into a dense sum, mirroring the exact
/// float-add order of tensor::aggregate_mean.  All scratch (the dense buffer
/// and the sparse decode staging) is reused across rounds: steady-state
/// accumulation performs zero heap allocations.
class SparseAccumulator {
 public:
  /// Starts a fresh round over `dense_dim` elements (buffer reused).
  void reset(std::size_t dense_dim);

  /// Adds `scale * part` into the dense buffer.  `part` must be canonical
  /// and share the round's dense_dim.
  void accumulate(const tensor::SparseGradient& part, float scale);

  /// Accumulates an encoded sparse or dense message: a sparse one decoded
  /// into internal staging, a dense one added straight from its bytes (the
  /// same sum as decode_dense plus the scale-add, bit for bit, and the same
  /// rejections).  Returns the decoded header summary.
  MessageInfo accumulate_encoded(std::span<const std::uint8_t> buffer,
                                 float scale);

  [[nodiscard]] std::span<const float> dense() const { return dense_; }
  [[nodiscard]] std::size_t dense_dim() const { return dense_.size(); }

 private:
  std::vector<float> dense_;
  tensor::SparseGradient staging_;
};

/// The decode-side mean of one round: resets `acc` to `dense_dim`,
/// decode-accumulates every encoded payload at 1/payloads.size() in order,
/// and returns the mean (a view into `acc`).  Bit-identical to
/// tensor::aggregate_mean of the decoded parts, so replicas reducing the same
/// payloads in the same order hold the same mean.  An empty payload list is
/// a util::CheckError.  Every session driver reduces its payloads here.
std::span<const float> decoded_mean(
    SparseAccumulator& acc,
    std::span<const std::span<const std::uint8_t>> payloads,
    std::size_t dense_dim);

}  // namespace sidco::comm
