#include "nn/model.h"

#include <algorithm>

#include "util/check.h"

namespace sidco::nn {

Model& Model::add(std::unique_ptr<Layer> layer) {
  util::check(layer != nullptr, "cannot add a null layer");
  util::check(!built(), "cannot add layers after bind()");
  layers_.push_back(std::move(layer));
  return *this;
}

std::size_t Model::parameter_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer->parameter_count();
  return n;
}

std::size_t Model::in_features() const {
  util::check(!layers_.empty(), "model has no layers");
  return layers_.front()->in_features();
}

std::size_t Model::out_features() const {
  util::check(!layers_.empty(), "model has no layers");
  return layers_.back()->out_features();
}

void Model::bind() {
  util::check(!layers_.empty(), "model has no layers");
  util::check(!built(), "bind() called twice");
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    if (layers_[i]->in_features() != layers_[i - 1]->out_features()) {
      util::check_fail("layer dimension mismatch between layers " +
                       std::to_string(i - 1) + " and " + std::to_string(i));
    }
  }
  const std::size_t total = parameter_count();
  params_.assign(total, 0.0F);
  grads_.assign(total, 0.0F);
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    const std::size_t n = layer->parameter_count();
    layer->bind(std::span<float>(params_).subspan(offset, n),
                std::span<float>(grads_).subspan(offset, n));
    offset += n;
  }
  acts_.resize(layers_.size() + 1);
  grad_bufs_.resize(2);
}

void Model::init(std::uint64_t seed) {
  util::check(built(), "init() before bind()");
  util::Rng rng(seed);
  for (auto& layer : layers_) layer->init(rng);
}

void Model::zero_gradients() { std::fill(grads_.begin(), grads_.end(), 0.0F); }

std::span<const float> Model::forward(std::span<const float> input,
                                      std::size_t batch) {
  util::check(built(), "forward() before bind()");
  util::check(input.size() == batch * in_features(),
              "forward input size mismatch");
  last_batch_ = batch;
  acts_[0].assign(input.begin(), input.end());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    acts_[i + 1].resize(batch * layers_[i]->out_features());
    layers_[i]->forward(acts_[i], acts_[i + 1], batch);
  }
  return acts_.back();
}

void Model::backward(std::span<const float> grad_logits) {
  util::check(last_batch_ > 0, "backward() before forward()");
  util::check(grad_logits.size() == last_batch_ * out_features(),
              "backward gradient size mismatch");
  grad_bufs_[0].assign(grad_logits.begin(), grad_logits.end());
  std::size_t cur = 0;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    const std::size_t next = 1 - cur;
    grad_bufs_[next].resize(last_batch_ * layers_[i]->in_features());
    layers_[i]->backward(acts_[i], grad_bufs_[cur], grad_bufs_[next],
                         last_batch_);
    cur = next;
  }
}

}  // namespace sidco::nn
