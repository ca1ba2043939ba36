// Sequential model with flat parameter/gradient arenas.
//
// The arenas give distributed training exactly what Horovod-style systems
// fuse into one buffer: a single contiguous gradient vector per backward
// pass.  forward() caches all activations so a single backward() can follow.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/layer.h"

namespace sidco::nn {

class Model {
 public:
  Model() = default;

  /// Appends a layer; dimensions must chain (checked in bind()).
  Model& add(std::unique_ptr<Layer> layer);

  /// Allocates the arenas and binds every layer to its slices.  Parameters
  /// are zero until init() draws them or the caller copies them in.
  void bind();

  /// Initializes every bound layer from one stream seeded with `seed`, in
  /// layer order.  Binding all layers first does not change the draws: no
  /// layer's init touches anything but its own parameters.
  void init(std::uint64_t seed);

  [[nodiscard]] bool built() const { return !params_.empty(); }
  [[nodiscard]] std::size_t parameter_count() const;
  [[nodiscard]] std::size_t in_features() const;
  [[nodiscard]] std::size_t out_features() const;
  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }

  [[nodiscard]] std::span<float> parameters() { return params_; }
  [[nodiscard]] std::span<const float> parameters() const { return params_; }
  [[nodiscard]] std::span<float> gradients() { return grads_; }
  [[nodiscard]] std::span<const float> gradients() const { return grads_; }

  void zero_gradients();

  /// Runs the network; returns the logits buffer (batch x out_features),
  /// valid until the next forward().
  std::span<const float> forward(std::span<const float> input,
                                 std::size_t batch);

  /// Backpropagates from d(logits); accumulates into gradients().  Must
  /// follow a forward() with the same batch size.
  void backward(std::span<const float> grad_logits);

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<float> params_;
  std::vector<float> grads_;
  // Activation buffers: acts_[0] = input copy, acts_[i+1] = layer i output.
  std::vector<std::vector<float>> acts_;
  std::vector<std::vector<float>> grad_bufs_;  // ping-pong for backward
  std::size_t last_batch_ = 0;
};

}  // namespace sidco::nn
