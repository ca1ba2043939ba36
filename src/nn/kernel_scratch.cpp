#include "nn/kernel_scratch.h"

namespace sidco::nn::detail {

KernelScratch& kernel_scratch() {
  static thread_local KernelScratch scratch;
  return scratch;
}

float* grow(std::vector<float>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
  return v.data();
}

void to_lanes(const float* src, std::size_t features, std::size_t count,
              float* dst) {
  for (std::size_t f = 0; f < features; ++f) {
    float* d = dst + f * kLanes;
    std::size_t l = 0;
    for (; l < count; ++l) d[l] = src[l * features + f];
    for (; l < kLanes; ++l) d[l] = 0.0F;
  }
}

}  // namespace sidco::nn::detail
