// Sparse collective aggregation over encoded wire payloads.
//
// Contract under test: the drivers' decode-mean (comm::decoded_mean) and
// PS-side accumulate, operating on *decoded* comm-codec payloads, produce a
// mean that is bit-identical to the dense reference mean
// (tensor::aggregate_mean) of the original gradients — for real compressor
// outputs (3 schemes x error feedback on/off, multi-step residual
// simulation), for crafted overlapping-index merges, and for the
// all-workers-disjoint case.  Hostile payloads (unsorted / duplicate /
// out-of-range indices) and a round with no payload are rejected with
// CheckError, never silently mis-summed.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "comm/aggregate.h"
#include "comm/codec.h"
#include "core/factory.h"
#include "util/check.h"
#include "util/rng.h"

namespace sidco {
namespace {

std::vector<float> random_gradient(std::size_t d, std::uint64_t seed) {
  util::Rng rng(seed);
  std::normal_distribution<float> normal(0.0F, 1.0F);
  std::vector<float> g(d);
  for (float& x : g) x = normal(rng);
  return g;
}

void expect_bits_equal(std::span<const float> got,
                       std::span<const float> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i;
  }
}

/// The round mean of `encoded` through comm::decoded_mean, copied out of the
/// accumulator.
std::vector<float> round_mean(
    const std::vector<std::vector<std::uint8_t>>& encoded, std::size_t dim) {
  const std::vector<std::span<const std::uint8_t>> payloads(encoded.begin(),
                                                            encoded.end());
  comm::SparseAccumulator accumulator;
  const std::span<const float> mean =
      comm::decoded_mean(accumulator, payloads, dim);
  return {mean.begin(), mean.end()};
}

/// Runs `workers` compressor instances over `steps` EC-simulated iterations
/// and checks, every iteration, that aggregation over the encoded payloads
/// is bit-identical to the dense reference mean of the produced gradients.
void run_scheme_aggregation(core::Scheme scheme, bool error_feedback) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kDim = 4096;
  constexpr std::size_t kSteps = 3;
  constexpr double kRatio = 0.01;

  std::vector<std::unique_ptr<compressors::Compressor>> compressors;
  std::vector<std::vector<float>> residual(kWorkers,
                                           std::vector<float>(kDim, 0.0F));
  for (std::size_t w = 0; w < kWorkers; ++w) {
    compressors.push_back(core::make_compressor(scheme, kRatio, 77 + w));
  }

  comm::SparseAccumulator accumulator;
  for (std::size_t step = 0; step < kSteps; ++step) {
    std::vector<tensor::SparseGradient> parts;
    std::vector<std::vector<std::uint8_t>> encoded(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) {
      std::vector<float> gradient =
          random_gradient(kDim, 0xA66ULL ^ (step * 131) ^ w);
      if (error_feedback) {
        for (std::size_t i = 0; i < kDim; ++i) gradient[i] += residual[w][i];
      }
      const compressors::CompressResult result =
          compressors[w]->compress(gradient);
      if (error_feedback) {
        residual[w] = gradient;
        for (std::size_t j = 0; j < result.sparse.nnz(); ++j) {
          residual[w][result.sparse.indices[j]] = 0.0F;
        }
      }
      comm::encode_sparse(result.sparse, comm::ValueMode::kFp32, encoded[w]);
      parts.push_back(result.sparse);
    }

    const std::vector<float> reference = tensor::aggregate_mean(
        parts, kDim, static_cast<double>(kWorkers));

    // The drivers' decode-mean: one call over all encoded payloads.
    const std::vector<float> gathered = round_mean(encoded, kDim);
    expect_bits_equal(gathered, reference);

    // PS-side accumulate: payloads arrive one by one, in worker order.
    accumulator.reset(kDim);
    const auto scale = static_cast<float>(1.0 / kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w) {
      accumulator.accumulate_encoded(encoded[w], scale);
    }
    expect_bits_equal(accumulator.dense(), reference);
  }
}

TEST(SparseAggregation, BitIdenticalToDenseReferenceAcrossSchemes) {
  for (core::Scheme scheme : {core::Scheme::kTopK, core::Scheme::kDgc,
                              core::Scheme::kSidcoExponential}) {
    for (bool ec : {false, true}) {
      SCOPED_TRACE(core::scheme_name(scheme));
      run_scheme_aggregation(scheme, ec);
    }
  }
}

TEST(SparseAggregation, OverlappingIndexMerge) {
  // Three parts sharing coordinate 5 (and pairwise overlaps elsewhere):
  // contributions must sum, in part order, exactly as the dense path does.
  constexpr std::size_t kDim = 16;
  std::vector<tensor::SparseGradient> parts(3);
  parts[0] = {.indices = {1, 5, 9}, .values = {1.0F, 2.0F, 3.0F},
              .dense_dim = kDim};
  parts[1] = {.indices = {5, 9, 12}, .values = {-0.5F, 0.25F, 8.0F},
              .dense_dim = kDim};
  parts[2] = {.indices = {0, 5}, .values = {7.0F, 0.125F}, .dense_dim = kDim};

  std::vector<std::vector<std::uint8_t>> encoded(parts.size());
  for (std::size_t w = 0; w < parts.size(); ++w) {
    comm::encode_sparse(parts[w], comm::ValueMode::kFp32, encoded[w]);
  }
  const std::vector<float> reference =
      tensor::aggregate_mean(parts, kDim, 3.0);
  const std::vector<float> gathered = round_mean(encoded, kDim);
  expect_bits_equal(gathered, reference);

  // Spot-check the merge itself.
  const float scale = static_cast<float>(1.0 / 3.0);
  EXPECT_EQ(gathered[5],
            scale * 2.0F + scale * -0.5F + scale * 0.125F);
  EXPECT_EQ(gathered[2], 0.0F);
}

TEST(SparseAggregation, AllWorkersDisjoint) {
  // Workers own disjoint index ranges; the mean must scatter every value,
  // untouched by any merge, at 1/N scale.
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kWorkers = 4;
  std::vector<tensor::SparseGradient> parts(kWorkers);
  std::vector<std::vector<std::uint8_t>> encoded(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    parts[w].dense_dim = kDim;
    for (std::size_t j = 0; j < kDim / kWorkers; ++j) {
      const std::size_t index = w * (kDim / kWorkers) + j;
      parts[w].indices.push_back(static_cast<std::uint32_t>(index));
      parts[w].values.push_back(static_cast<float>(index) + 0.5F);
    }
    comm::encode_sparse(parts[w], comm::ValueMode::kFp32, encoded[w]);
  }
  const std::vector<float> reference =
      tensor::aggregate_mean(parts, kDim, static_cast<double>(kWorkers));
  const std::vector<float> gathered = round_mean(encoded, kDim);
  expect_bits_equal(gathered, reference);
  const auto scale = static_cast<float>(1.0 / kWorkers);
  for (std::size_t i = 0; i < kDim; ++i) {
    EXPECT_EQ(gathered[i], scale * (static_cast<float>(i) + 0.5F));
  }
}

TEST(SparseAggregation, DenseAndSparsePayloadsMix) {
  // A full-coverage worker ships a dense message (encode_gradient picks it);
  // aggregation must treat it exactly like the equivalent sparse payload.
  constexpr std::size_t kDim = 128;
  tensor::SparseGradient full;
  full.dense_dim = kDim;
  for (std::size_t i = 0; i < kDim; ++i) {
    full.indices.push_back(static_cast<std::uint32_t>(i));
    full.values.push_back(static_cast<float>(i) * 0.25F - 3.0F);
  }
  tensor::SparseGradient partial = {.indices = {3, 64},
                                    .values = {1.5F, -2.5F},
                                    .dense_dim = kDim};

  std::vector<std::vector<std::uint8_t>> encoded(2);
  comm::encode_gradient(full, comm::ValueMode::kFp32, encoded[0]);
  comm::encode_sparse(partial, comm::ValueMode::kFp32, encoded[1]);
  ASSERT_EQ(comm::peek_header(encoded[0]).kind, comm::PayloadKind::kDense);

  const std::vector<tensor::SparseGradient> parts = {full, partial};
  const std::vector<float> reference =
      tensor::aggregate_mean(parts, kDim, 2.0);
  const std::vector<float> gathered = round_mean(encoded, kDim);
  expect_bits_equal(gathered, reference);
}

TEST(SparseAggregation, HostilePartsAreRejectedNotMisSummed) {
  comm::SparseAccumulator accumulator;
  accumulator.reset(10);

  // A decoder can never produce these (the codec rejects them on the wire);
  // a hand-built part must hit the same wall at the accumulator.
  tensor::SparseGradient unsorted;
  unsorted.dense_dim = 10;
  unsorted.indices = {7, 2};
  unsorted.values = {1.0F, 1.0F};
  EXPECT_THROW(accumulator.accumulate(unsorted, 1.0F), util::CheckError);

  tensor::SparseGradient duplicate;
  duplicate.dense_dim = 10;
  duplicate.indices = {4, 4};
  duplicate.values = {1.0F, 1.0F};
  EXPECT_THROW(accumulator.accumulate(duplicate, 1.0F), util::CheckError);

  tensor::SparseGradient out_of_range;
  out_of_range.dense_dim = 10;
  out_of_range.indices = {10};
  out_of_range.values = {1.0F};
  EXPECT_THROW(accumulator.accumulate(out_of_range, 1.0F), util::CheckError);

  tensor::SparseGradient arity;
  arity.dense_dim = 10;
  arity.indices = {1, 2};
  arity.values = {1.0F};
  EXPECT_THROW(accumulator.accumulate(arity, 1.0F), util::CheckError);

  tensor::SparseGradient wrong_dim;
  wrong_dim.dense_dim = 11;
  wrong_dim.indices = {1};
  wrong_dim.values = {1.0F};
  EXPECT_THROW(accumulator.accumulate(wrong_dim, 1.0F), util::CheckError);

  // A rejected part must leave the accumulator untouched.
  for (float v : accumulator.dense()) EXPECT_EQ(v, 0.0F);

  // Dimension mismatch on an encoded dense payload.
  std::vector<std::uint8_t> dense_buffer;
  const std::vector<float> eleven(11, 1.0F);
  comm::encode_dense(eleven, comm::ValueMode::kFp32, dense_buffer);
  EXPECT_THROW(accumulator.accumulate_encoded(dense_buffer, 1.0F),
               util::CheckError);

  // A round with no payload has no mean; it must not come back as zeros.
  try {
    (void)comm::decoded_mean(accumulator, {}, 10);
    ADD_FAILURE() << "an empty round produced a mean";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("at least one payload"),
              std::string::npos)
        << e.what();
  }
}

/// The CheckError message `f` throws, or "" when it does not throw.
template <typename F>
std::string check_error_of(F&& f) {
  try {
    f();
  } catch (const util::CheckError& e) {
    return e.what();
  }
  return "";
}

// A dense payload is added straight from its bytes; the sum must equal
// decode_dense followed by the scale-add, bit for bit, on top of whatever
// the round already holds.  The values cover signed zeros, subnormals and
// +-FLT_MAX (whose scaled sum overflows the same way on both paths), the
// dimension spans several decode chunks, and fp16 payloads decode through
// the same conversion.
TEST(SparseAggregation, DenseAccumulateEqualsDecodePlusScaleAdd) {
  constexpr std::size_t kDim = 5000;
  std::vector<float> values = random_gradient(kDim, 31);
  const float specials[] = {-0.0F,
                            0.0F,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1.5e-39F,
                            -2.75e-40F,
                            std::numeric_limits<float>::max(),
                            -std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::min(),
                            6.1e-5F};
  for (std::size_t i = 0; i < kDim; i += 7) {
    values[i] = specials[(i / 7) % std::size(specials)];
  }
  tensor::SparseGradient prior;
  prior.dense_dim = kDim;
  for (std::uint32_t i = 0; i < kDim; i += 3) {
    prior.indices.push_back(i);
    prior.values.push_back(i % 2 == 0 ? std::numeric_limits<float>::max()
                                      : -0.0F);
  }

  for (const comm::ValueMode mode :
       {comm::ValueMode::kFp32, comm::ValueMode::kFp16}) {
    std::vector<std::uint8_t> buffer;
    comm::encode_dense(values, mode, buffer);
    for (const float scale : {1.0F, 0.5F, static_cast<float>(1.0 / 3.0)}) {
      SCOPED_TRACE(std::string(mode == comm::ValueMode::kFp32 ? "fp32"
                                                              : "fp16") +
                   ", scale " + std::to_string(scale));
      comm::SparseAccumulator direct;
      direct.reset(kDim);
      direct.accumulate(prior, scale);
      const comm::MessageInfo info = direct.accumulate_encoded(buffer, scale);
      EXPECT_EQ(info.kind, comm::PayloadKind::kDense);
      EXPECT_EQ(info.count, kDim);

      comm::SparseAccumulator staged;
      staged.reset(kDim);
      staged.accumulate(prior, scale);
      std::vector<float> decoded;
      comm::decode_dense(buffer, decoded);
      std::vector<float> want(staged.dense().begin(), staged.dense().end());
      for (std::size_t i = 0; i < kDim; ++i) want[i] += scale * decoded[i];
      expect_bits_equal(direct.dense(), want);
    }
  }
}

// Hostile dense payloads fail the direct accumulate with decode_dense's own
// messages (a dimension mismatch with the accumulator's), before any element
// lands in the sum.
TEST(SparseAggregation, HostileDensePayloadsFailWithDecodeDenseMessages) {
  constexpr std::size_t kDim = 10;
  std::vector<std::uint8_t> good;
  comm::encode_dense(std::vector<float>(kDim, 1.0F), comm::ValueMode::kFp32,
                     good);
  std::vector<std::uint8_t> wrong_dim;
  comm::encode_dense(std::vector<float>(kDim + 1, 1.0F),
                     comm::ValueMode::kFp32, wrong_dim);
  const std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
  std::vector<std::uint8_t> count_mismatch = good;
  count_mismatch[16] = kDim - 1;  // count (u64 LE at byte 16)
  std::vector<std::uint8_t> index_bit = good;
  index_bit[4] |= 0x01;  // flags bit 0: index mode

  struct Case {
    const char* name;
    const std::vector<std::uint8_t>& buffer;
    bool decodes;  ///< a well-formed message, just not this round's size
    std::string want;
  };
  const Case cases[] = {
      {"wrong dense_dim", wrong_dim, true,
       "aggregate: dense payload dimension mismatch"},
      {"truncated body", truncated, false,
       "wire: payload size does not match header"},
      {"count != dense_dim", count_mismatch, false,
       "wire: dense count must equal dense_dim"},
      {"index-mode bit", index_bit, false,
       "wire: dense payloads take no index mode bit"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<float> decoded;
    const std::string decode_error =
        check_error_of([&] { comm::decode_dense(c.buffer, decoded); });
    comm::SparseAccumulator accumulator;
    accumulator.reset(kDim);
    const std::string error = check_error_of(
        [&] { accumulator.accumulate_encoded(c.buffer, 1.0F); });
    EXPECT_TRUE(error.ends_with("check failed: " + c.want)) << error;
    // The same check site, so the same message, location included.
    EXPECT_EQ(decode_error, c.decodes ? "" : error);
    for (float v : accumulator.dense()) EXPECT_EQ(v, 0.0F);
  }
}

TEST(SparseAggregation, SteadyStateAccumulatorReusesStorage) {
  constexpr std::size_t kDim = 8192;
  comm::SparseAccumulator accumulator;
  std::vector<std::uint8_t> buffer;
  tensor::SparseGradient part;
  part.dense_dim = kDim;
  for (std::uint32_t i = 0; i < kDim; i += 16) {
    part.indices.push_back(i);
    part.values.push_back(1.0F);
  }
  comm::encode_sparse(part, comm::ValueMode::kFp32, buffer);

  accumulator.reset(kDim);
  accumulator.accumulate_encoded(buffer, 0.25F);
  const std::span<const float> warm = accumulator.dense();
  for (int round = 0; round < 4; ++round) {
    accumulator.reset(kDim);
    accumulator.accumulate_encoded(buffer, 0.25F);
    // Same dense_dim, same backing array: reset must not reallocate.
    EXPECT_EQ(accumulator.dense().data(), warm.data());
  }
}

}  // namespace
}  // namespace sidco
