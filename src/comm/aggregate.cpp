#include "comm/aggregate.h"

#include <algorithm>
#include <array>

#include "util/check.h"

namespace sidco::comm {

void check_canonical(const tensor::SparseGradient& gradient) {
  // One authoritative definition of canonical form lives on SparseGradient.
  util::check(gradient.is_canonical(),
              "aggregate: sparse payload is not canonical (sorted unique "
              "in-range indices required)");
}

void SparseAccumulator::reset(std::size_t dense_dim) {
  dense_.assign(dense_dim, 0.0F);
}

void SparseAccumulator::accumulate(const tensor::SparseGradient& part,
                                   float scale) {
  util::check(part.dense_dim == dense_.size(),
              "aggregate: part dense_dim mismatch");
  check_canonical(part);
  // Same element op and order as tensor::SparseGradient::add_to — the
  // bit-identity contract with the dense reference mean rests on this.
  for (std::size_t j = 0; j < part.indices.size(); ++j) {
    dense_[part.indices[j]] += scale * part.values[j];
  }
}

MessageInfo SparseAccumulator::accumulate_encoded(
    std::span<const std::uint8_t> buffer, float scale) {
  if (peek_header(buffer).kind == PayloadKind::kDense) {
    const MessageInfo info = check_dense(buffer);
    util::check(info.dense_dim == dense_.size(),
                "aggregate: dense payload dimension mismatch");
    // Straight from the payload bytes, a cache-resident chunk at a time: one
    // pass over the payload instead of a gradient-sized staged copy.  Same
    // element op and order as accumulate().
    std::array<float, 2048> chunk;
    for (std::size_t at = 0; at < info.count; at += chunk.size()) {
      const std::span<float> values =
          std::span(chunk).first(std::min(chunk.size(), info.count - at));
      read_dense_values(buffer, info, at, values);
      float* sum = dense_.data() + at;
      for (std::size_t j = 0; j < values.size(); ++j) {
        sum[j] += scale * values[j];
      }
    }
    return info;
  }
  // decode_sparse guarantees canonical output (and rejects anything else),
  // so the canonical re-check in accumulate() only guards raw callers.
  const MessageInfo info = decode_sparse(buffer, staging_);
  accumulate(staging_, scale);
  return info;
}

std::span<const float> decoded_mean(
    SparseAccumulator& acc,
    std::span<const std::span<const std::uint8_t>> payloads,
    std::size_t dense_dim) {
  util::check(!payloads.empty(),
              "aggregate: a round mean needs at least one payload");
  acc.reset(dense_dim);
  const auto scale =
      static_cast<float>(1.0 / static_cast<double>(payloads.size()));
  for (const std::span<const std::uint8_t> payload : payloads) {
    acc.accumulate_encoded(payload, scale);
  }
  return acc.dense();
}

}  // namespace sidco::comm
