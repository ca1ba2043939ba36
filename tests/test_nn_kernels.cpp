// Differential suite for the vectorized Conv2D and Dense kernels: every
// output, input gradient, weight gradient and bias gradient must match the
// frozen scalar loops in legacy_nn_kernels.h byte for byte (memcmp, so a
// -0.0 where the scalar loop left +0.0 fails too).
//
// Shapes: every convolution and fully connected layer of the ResNet20 and
// VGG19 zoo models (nn/zoo.cpp), plus odd shapes that reach the channel and
// tap remainders, stride 3, kernel 5, non-square planes and 1-wide outputs.
// Batches 1, 3, 8, 16 and 17 cover a partial lane block, whole blocks and a
// block plus one.  Inputs and output gradients are about 40% exact zeros
// (ReLU-like), and the gradient arena starts nonzero so the accumulate
// contract is checked, not just a fresh sum.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "legacy_nn_kernels.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "util/rng.h"

namespace sidco {
namespace {

constexpr std::size_t kBatches[] = {1, 3, 8, 16, 17};

/// Normal values with about 40% exact (+0.0) zeros.
std::vector<float> sparse_normal(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.uniform() < 0.4 ? 0.0F : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return v;
}

std::vector<float> normal(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

void expect_bytes_equal(const std::vector<float>& got,
                        const std::vector<float>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      ADD_FAILURE() << what << ": first difference at " << i << " of "
                    << got.size() << ": " << got[i] << " vs scalar "
                    << want[i];
      return;
    }
  }
}

/// Runs forward + backward of `layer` and of the scalar reference on the
/// same data and compares all four results.  Parameters are bound to
/// `params` / `grads`; `reference_grads` is the reference's copy of the
/// arena.  grad_in starts as NaN so an element the layer never writes shows.
template <typename Forward, typename Backward>
void compare_round(nn::Layer& layer, std::vector<float>& grads,
                   std::vector<float>& reference_grads, std::size_t batch,
                   util::Rng& rng, Forward reference_forward,
                   Backward reference_backward, const std::string& what) {
  const std::vector<float> in = sparse_normal(batch * layer.in_features(), rng);
  std::vector<float> out(batch * layer.out_features());
  std::vector<float> want_out(out.size());
  layer.forward(in, out, batch);
  reference_forward(in, want_out, batch);
  expect_bytes_equal(out, want_out, what + " output");

  const std::vector<float> grad_out =
      sparse_normal(batch * layer.out_features(), rng);
  const float poison = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> grad_in(batch * layer.in_features(), poison);
  std::vector<float> want_grad_in(grad_in.size(), poison);
  layer.backward(in, grad_out, grad_in, batch);
  reference_backward(in, grad_out, want_grad_in, batch);
  expect_bytes_equal(grad_in, want_grad_in, what + " grad_in");
  expect_bytes_equal(grads, reference_grads, what + " parameter gradients");
}

struct ConvCase {
  const char* name;
  nn::ConvShape in;
  std::size_t out_channels;
  std::size_t kernel;
  std::size_t stride;
  std::size_t pad;
};

// ResNet20 (3 stages, base width 8) and VGG19 (16-32-32-64) on 3x16x16.
const ConvCase kConvCases[] = {
    {"resnet20_stem_3to8", {3, 16, 16}, 8, 3, 1, 1},
    {"resnet20_stage0_8to8", {8, 16, 16}, 8, 3, 1, 1},
    {"resnet20_stage1_conv1_stride2", {8, 16, 16}, 16, 3, 2, 1},
    {"resnet20_stage1_skip_1x1", {8, 16, 16}, 16, 1, 2, 0},
    {"resnet20_stage1_16to16", {16, 8, 8}, 16, 3, 1, 1},
    {"resnet20_stage2_conv1_stride2", {16, 8, 8}, 32, 3, 2, 1},
    {"resnet20_stage2_skip_1x1", {16, 8, 8}, 32, 1, 2, 0},
    {"resnet20_stage2_32to32", {32, 4, 4}, 32, 3, 1, 1},
    {"vgg19_conv1_3to16", {3, 16, 16}, 16, 3, 1, 1},
    {"vgg19_conv2_16to32", {16, 8, 8}, 32, 3, 1, 1},
    {"vgg19_conv3_32to32", {32, 8, 8}, 32, 3, 1, 1},
    {"vgg19_conv4_32to64", {32, 4, 4}, 64, 3, 1, 1},
    {"odd_channels_5to7", {5, 6, 6}, 7, 3, 1, 1},
    {"kernel5_pad2_nonsquare", {2, 7, 5}, 3, 5, 1, 2},
    {"stride3_pad1", {3, 9, 8}, 2, 3, 3, 1},
    {"no_pad_1x1_plane_out", {4, 3, 3}, 6, 3, 1, 0},
    {"stride2_no_pad", {1, 6, 6}, 1, 2, 2, 0},
};

class ConvKernels : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvKernels, MatchesScalarLoopsBitForBit) {
  const ConvCase& cc = GetParam();
  nn::Conv2D layer(cc.in, cc.out_channels, cc.kernel, cc.stride, cc.pad);
  const std::size_t n = layer.parameter_count();
  const std::size_t weights = n - cc.out_channels;
  util::Rng rng(0xC0DE + n);
  std::vector<float> params = normal(n, rng);
  // A nonzero arena: the layer must accumulate, not overwrite.
  std::vector<float> grads = normal(n, rng);
  std::vector<float> reference_grads = grads;
  layer.bind(params, grads);

  const std::span<const float> all_params(params);
  const std::span<float> all_reference(reference_grads);
  const nn::legacy::ConvParams reference{
      .in = cc.in,
      .out = layer.out_shape(),
      .kernel = cc.kernel,
      .stride = cc.stride,
      .pad = cc.pad,
      .weight = all_params.subspan(0, weights),
      .bias = all_params.subspan(weights),
      .grad_weight = all_reference.subspan(0, weights),
      .grad_bias = all_reference.subspan(weights)};
  auto reference_forward = [&](std::span<const float> in, std::span<float> out,
                               std::size_t batch) {
    nn::legacy::conv2d_forward(reference, in, out, batch);
  };
  auto reference_backward = [&](std::span<const float> in,
                                std::span<const float> grad_out,
                                std::span<float> grad_in, std::size_t batch) {
    nn::legacy::conv2d_backward(reference, in, grad_out, grad_in, batch);
  };
  // One layer across every batch size, so the shared scratch is reused at
  // shrinking and growing sizes.
  for (std::size_t batch : kBatches) {
    compare_round(layer, grads, reference_grads, batch, rng, reference_forward,
                  reference_backward,
                  std::string(cc.name) + " batch " + std::to_string(batch));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ZooAndOddShapes, ConvKernels, ::testing::ValuesIn(kConvCases),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      return std::string(info.param.name);
    });

struct DenseCase {
  const char* name;
  std::size_t in;
  std::size_t out;
};

// ResNet20's head after global pooling, VGG19's three FC layers, and odd
// sizes for the row-block and lane remainders.
const DenseCase kDenseCases[] = {
    {"resnet20_head_32to10", 32, 10},
    {"vgg19_fc1_256to1024", 256, 1024},
    {"vgg19_fc2_1024to1024", 1024, 1024},
    {"vgg19_fc3_1024to50", 1024, 50},
    {"odd_7to5", 7, 5},
    {"single_output_3to1", 3, 1},
};

class DenseKernels : public ::testing::TestWithParam<DenseCase> {};

TEST_P(DenseKernels, MatchesScalarLoopsBitForBit) {
  const DenseCase& dc = GetParam();
  nn::Dense layer(dc.in, dc.out);
  const std::size_t n = layer.parameter_count();
  const std::size_t weights = dc.in * dc.out;
  util::Rng rng(0xDE05E + n);
  std::vector<float> params = normal(n, rng);
  std::vector<float> grads = normal(n, rng);
  std::vector<float> reference_grads = grads;
  layer.bind(params, grads);

  const std::span<const float> all_params(params);
  const std::span<float> all_reference(reference_grads);
  const nn::legacy::DenseParams reference{
      .in_features = dc.in,
      .out_features = dc.out,
      .weight = all_params.subspan(0, weights),
      .bias = all_params.subspan(weights),
      .grad_weight = all_reference.subspan(0, weights),
      .grad_bias = all_reference.subspan(weights)};
  auto reference_forward = [&](std::span<const float> in, std::span<float> out,
                               std::size_t batch) {
    nn::legacy::dense_forward(reference, in, out, batch);
  };
  auto reference_backward = [&](std::span<const float> in,
                                std::span<const float> grad_out,
                                std::span<float> grad_in, std::size_t batch) {
    nn::legacy::dense_backward(reference, in, grad_out, grad_in, batch);
  };
  for (std::size_t batch : kBatches) {
    compare_round(layer, grads, reference_grads, batch, rng, reference_forward,
                  reference_backward,
                  std::string(dc.name) + " batch " + std::to_string(batch));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ZooAndOddShapes, DenseKernels, ::testing::ValuesIn(kDenseCases),
    [](const ::testing::TestParamInfo<DenseCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace sidco
