// 2D convolution, max pooling, global average pooling, and a residual block
// (ReLU after the sum, as in He et al. 2016) — the building blocks of the
// ResNet/VGG proxy models.
//
// Tensors are (batch, C, H, W) row-major flattened into the generic
// (batch, features) buffers.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace sidco::nn {

struct ConvShape {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;
  [[nodiscard]] std::size_t features() const { return channels * height * width; }
};

class Conv2D final : public Layer {
 public:
  /// 3x3 (or kxk) convolution with `stride` and symmetric zero padding `pad`.
  Conv2D(ConvShape in, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad);

  [[nodiscard]] ConvShape out_shape() const { return out_; }
  [[nodiscard]] std::size_t parameter_count() const override;
  void bind(std::span<float> params, std::span<float> grads) override;
  void init(util::Rng& rng) override;
  void forward(std::span<const float> in, std::span<float> out,
               std::size_t batch) override;
  void backward(std::span<const float> in, std::span<const float> grad_out,
                std::span<float> grad_in, std::size_t batch) override;

 private:
  ConvShape in_;
  ConvShape out_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t pad_;
  std::span<float> weight_;  // (Cout, Cin, K, K)
  std::span<float> bias_;    // (Cout)
  std::span<float> grad_weight_;
  std::span<float> grad_bias_;
};

class MaxPool2D final : public Layer {
 public:
  /// 2x2 max pooling with stride 2 (input dims must be even).
  explicit MaxPool2D(ConvShape in);

  [[nodiscard]] ConvShape out_shape() const { return out_; }
  [[nodiscard]] std::size_t parameter_count() const override { return 0; }
  void bind(std::span<float> params, std::span<float> grads) override;
  void init(util::Rng& /*rng*/) override {}
  void forward(std::span<const float> in, std::span<float> out,
               std::size_t batch) override;
  void backward(std::span<const float> in, std::span<const float> grad_out,
                std::span<float> grad_in, std::size_t batch) override;

 private:
  ConvShape in_;
  ConvShape out_;
  std::vector<std::uint32_t> argmax_;  // cached per forward
};

class GlobalAvgPool final : public Layer {
 public:
  explicit GlobalAvgPool(ConvShape in);

  [[nodiscard]] std::size_t parameter_count() const override { return 0; }
  void bind(std::span<float> params, std::span<float> grads) override;
  void init(util::Rng& /*rng*/) override {}
  void forward(std::span<const float> in, std::span<float> out,
               std::size_t batch) override;
  void backward(std::span<const float> in, std::span<const float> grad_out,
                std::span<float> grad_in, std::size_t batch) override;

 private:
  ConvShape in_;
};

/// Basic residual block: out = relu(conv2(relu(conv1(x))) + skip(x)).
/// When `stride` is 2 (or channels change) the skip path is a 1x1 strided
/// convolution, as in He et al.
class ResidualBlock final : public Layer {
 public:
  ResidualBlock(ConvShape in, std::size_t out_channels, std::size_t stride);

  [[nodiscard]] ConvShape out_shape() const { return out_; }
  [[nodiscard]] std::size_t parameter_count() const override;
  void bind(std::span<float> params, std::span<float> grads) override;
  void init(util::Rng& rng) override;
  void forward(std::span<const float> in, std::span<float> out,
               std::size_t batch) override;
  void backward(std::span<const float> in, std::span<const float> grad_out,
                std::span<float> grad_in, std::size_t batch) override;

 private:
  ConvShape in_;
  ConvShape out_;
  std::unique_ptr<Conv2D> conv1_;
  std::unique_ptr<Conv2D> conv2_;
  std::unique_ptr<Conv2D> skip_;  // nullptr for identity skip
  // Cached activations (sized on demand for the largest batch seen).  The
  // backward pass's buffers are per-thread scratch (nn/kernel_scratch.h).
  std::vector<float> pre1_;   // conv1 output (pre-relu)
  std::vector<float> act1_;   // relu(conv1)
  std::vector<float> pre2_;   // conv2 output
  std::vector<float> skip_out_;
};

}  // namespace sidco::nn
