// Per-thread scratch and sample-lane helpers shared by the Conv2D and Dense
// kernels and by ResidualBlock's backward pass (README "Performance", nn
// kernels).
//
// The kernels vectorize across independent outputs: a block of kLanes
// samples is copied to a sample-minor layout, and each vector lane then runs
// one sample's scalar multiply-add chain in exactly its old order.  The
// scratch is one set per thread, shared by every layer, so it costs no
// memory per layer; the kernels' buffers are sized to one sample block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace sidco::nn::detail {

/// Samples held side by side in one vector block.
inline constexpr std::size_t kLanes = 8;

/// Four floats as one value: one SSE2 or NEON register.  GCC and Clang apply
/// each arithmetic operator lane by lane with IEEE single-precision
/// rounding.  The kernels use this type rather than plain loops over lanes
/// because the auto-vectorizer may vectorize a different loop of a nest
/// than the lane loop (e.g. the tap loop, as an in-order reduction).
typedef float Vec __attribute__((vector_size(16)));
inline constexpr std::size_t kVecLanes = 4;
/// Vectors per sample block.
inline constexpr std::size_t kBlockVecs = kLanes / kVecLanes;
static_assert(kBlockVecs * kVecLanes == kLanes);

inline Vec load(const float* p) {
  Vec v{};
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }

inline Vec splat(float s) { return Vec{s, s, s, s}; }

/// One sample block's outputs: lane l of the block (vector l / kVecLanes)
/// goes to p[l * stride], for the first `count` lanes.
inline void scatter(const Vec (&v)[kBlockVecs], std::size_t count, float* p,
                    std::size_t stride) {
  for (std::size_t l = 0; l < count; ++l) {
    p[l * stride] = v[l / kVecLanes][l % kVecLanes];
  }
}

/// One convolution tap: a spatial offset in the plane the loop reads and the
/// kernel offset kr * kernel + kc that connects it to the loop's position.
struct ConvTap {
  std::uint32_t pos;
  std::uint32_t k;
};

/// Per-position tap lists in CSR form: position p owns
/// taps[begin[p], begin[p + 1]).
struct TapTable {
  std::vector<std::uint32_t> begin;
  std::vector<ConvTap> taps;
};

struct KernelScratch {
  std::vector<float> lanes;  // one sample block, [feature][kLanes]
  std::vector<float> col;    // im2col rows of one block of output positions
  std::vector<float> nz_grad;          // one channel's nonzero gradients
  std::vector<std::uint32_t> nz_pos;   // ... and their output positions
  TapTable forward_taps;
  TapTable backward_taps;
  // ResidualBlock::backward's batch gradients: d(sum), d(conv1 output) and
  // the skip path's input gradient.  Separate from the buffers above, which
  // the convolutions it calls use.
  std::vector<float> block_sum;
  std::vector<float> block_mid;
  std::vector<float> block_skip;
};

/// The calling thread's scratch (thread_local, grown on demand, never shrunk).
/// The kernel scratch is sized to one sample block; the ResidualBlock
/// buffers hold one batch of one block's gradients, which every block of the
/// thread's models shares instead of keeping its own.
KernelScratch& kernel_scratch();

/// Returns v.data() with at least n elements; grows but never shrinks, so a
/// warm buffer neither allocates nor re-initializes.
float* grow(std::vector<float>& v, std::size_t n);

/// Copies `count` <= kLanes samples of `features` floats each (row-major,
/// starting at src) to dst[f * kLanes + l]; lanes count..kLanes-1 get zeros.
void to_lanes(const float* src, std::size_t features, std::size_t count,
              float* dst);

}  // namespace sidco::nn::detail
