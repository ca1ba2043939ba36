#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "nn/kernel_scratch.h"
#include "util/check.h"

namespace sidco::nn {

namespace {

using detail::ConvTap;
using detail::kBlockVecs;
using detail::kLanes;
using detail::kVecLanes;
using detail::load;
using detail::splat;
using detail::store;
using detail::TapTable;
using detail::Vec;

ConvShape conv_out_shape(const ConvShape& in, std::size_t out_channels,
                         std::size_t kernel, std::size_t stride,
                         std::size_t pad) {
  sidco::util::check(stride >= 1, "conv stride must be >= 1");
  sidco::util::check(kernel >= 1, "conv kernel must be >= 1");
  sidco::util::check(in.height + 2 * pad >= kernel &&
                         in.width + 2 * pad >= kernel,
                     "conv kernel larger than padded input");
  return {.channels = out_channels,
          .height = (in.height + 2 * pad - kernel) / stride + 1,
          .width = (in.width + 2 * pad - kernel) / stride + 1};
}

// ------------------------------------------------------------ Conv2D kernels
//
// Every Conv2D output keeps the summation order and the skips of the scalar
// loop it replaced (one chain per output: bias, then (ci, kr, kc) ascending
// over the taps inside the input; tests/legacy_nn_kernels.h keeps that loop).
// The vector lanes hold independent outputs instead:
//   - forward and grad_in: the lane is the sample, over a sample-minor copy
//     of one block of kLanes samples;
//   - weight gradient: the lane is the tap, one im2col row per output
//     position, because that sum runs over (b, r, c) with the batch
//     outermost.
// So the results are bit-identical to the scalar loop (test_nn_kernels).
//
// Two places add a term that the scalar loop skipped.  Both are exact:
//   - grad_in adds g * w for an output gradient g == 0.  That term is +-0,
//     and the element it lands on started at +0.0 in this call;
//   - the weight gradient adds g * 0 for a padding tap (im2col stores 0
//     there).  That term is +-0, and Worker::step zeroes the gradient arena
//     to +0.0 before every backward.
// Under round-to-nearest, x + (+-0) == x for every x != 0, and +0 + (+-0) is
// +0; a sum that starts at +0.0 never reaches -0.0 (x + -x is +0).  So the
// extra terms change no bit.  This holds for finite weights and
// activations: with an Inf in them, 0 * Inf is NaN where the scalar loop
// skipped, so a model that has already diverged can diverge to NaN instead.
// No FMA: `acc += w * x` must round the product, so no -march, -ffast-math
// or FMA target may reach this file (README "Performance").

/// Output channels (forward) or input channels (grad_in) per register block.
constexpr std::size_t kChannelBlock = 4;

/// Calls body(std::integral_constant<size_t, n>, first) for blocks of
/// kChannelBlock channels, then once for the 1..3 channels left over, so the
/// remainder also runs on a compile-time block size.
template <typename Body>
void for_channel_blocks(std::size_t channels, Body&& body) {
  static_assert(kChannelBlock == 4);
  std::size_t c = 0;
  for (; c + kChannelBlock <= channels; c += kChannelBlock) {
    body(std::integral_constant<std::size_t, kChannelBlock>{}, c);
  }
  switch (channels - c) {
    case 3: body(std::integral_constant<std::size_t, 3>{}, c); break;
    case 2: body(std::integral_constant<std::size_t, 2>{}, c); break;
    case 1: body(std::integral_constant<std::size_t, 1>{}, c); break;
    default: break;
  }
}

struct ConvDims {
  ConvShape in;
  ConvShape out;
  std::size_t kernel;
  std::size_t stride;
  std::size_t pad;
  std::size_t cin;
  std::size_t cout;
  std::size_t in_plane;   // ih * iw
  std::size_t out_plane;  // oh * ow
  std::size_t kk;         // kernel * kernel
  [[nodiscard]] std::size_t in_features() const { return cin * in_plane; }
  [[nodiscard]] std::size_t out_features() const { return cout * out_plane; }
  /// Weights of one output channel: (Cin, K, K).
  [[nodiscard]] std::size_t filter() const { return cin * kk; }
};

ConvDims conv_dims(const ConvShape& in, const ConvShape& out,
                   std::size_t kernel, std::size_t stride, std::size_t pad) {
  return {.in = in,
          .out = out,
          .kernel = kernel,
          .stride = stride,
          .pad = pad,
          .cin = in.channels,
          .cout = out.channels,
          .in_plane = in.height * in.width,
          .out_plane = out.height * out.width,
          .kk = kernel * kernel};
}

/// For every output position r * ow + c, the taps that fall inside the
/// input, in (kr, kc) ascending order; pos = ir * iw + ic.  The valid range
/// is decided on unsigned coordinates before any offset is formed.
void build_forward_taps(const ConvDims& d, TapTable& table) {
  table.begin.clear();
  table.taps.clear();
  table.begin.push_back(0);
  for (std::size_t r = 0; r < d.out.height; ++r) {
    for (std::size_t c = 0; c < d.out.width; ++c) {
      for (std::size_t kr = 0; kr < d.kernel; ++kr) {
        const std::size_t top = r * d.stride + kr;  // ir + pad
        if (top < d.pad || top - d.pad >= d.in.height) continue;
        for (std::size_t kc = 0; kc < d.kernel; ++kc) {
          const std::size_t left = c * d.stride + kc;  // ic + pad
          if (left < d.pad || left - d.pad >= d.in.width) continue;
          table.taps.push_back(
              {.pos = static_cast<std::uint32_t>((top - d.pad) * d.in.width +
                                                 (left - d.pad)),
               .k = static_cast<std::uint32_t>(kr * d.kernel + kc)});
        }
      }
      table.begin.push_back(static_cast<std::uint32_t>(table.taps.size()));
    }
  }
}

/// For every input position ir * iw + ic, the taps whose output position
/// exists, with (kr, kc) *descending*; pos = r * ow + c.  The scalar loop
/// added into each input gradient over (co, r, c) ascending, and for a fixed
/// input position r = (ir + pad - kr) / stride ascends as kr descends.
void build_backward_taps(const ConvDims& d, TapTable& table) {
  table.begin.clear();
  table.taps.clear();
  table.begin.push_back(0);
  for (std::size_t ir = 0; ir < d.in.height; ++ir) {
    for (std::size_t ic = 0; ic < d.in.width; ++ic) {
      for (std::size_t kr = d.kernel; kr-- > 0;) {
        if (ir + d.pad < kr) continue;
        const std::size_t top = ir + d.pad - kr;  // r * stride
        if (top % d.stride != 0 || top / d.stride >= d.out.height) continue;
        for (std::size_t kc = d.kernel; kc-- > 0;) {
          if (ic + d.pad < kc) continue;
          const std::size_t left = ic + d.pad - kc;  // c * stride
          if (left % d.stride != 0 || left / d.stride >= d.out.width) continue;
          table.taps.push_back(
              {.pos = static_cast<std::uint32_t>(top / d.stride * d.out.width +
                                                 left / d.stride),
               .k = static_cast<std::uint32_t>(kr * d.kernel + kc)});
        }
      }
      table.begin.push_back(static_cast<std::uint32_t>(table.taps.size()));
    }
  }
}

/// Forward of kCo output channels for one sample block.  `xt` is the block
/// in lane layout, `w` and `bias` start at the first channel, `y` at its
/// plane in sample 0 of the block; `count` lanes are real samples.
template <std::size_t kCo>
void forward_channels(const ConvDims& d, const TapTable& taps, const float* xt,
                      const float* w, const float* bias, float* y,
                      std::size_t count) {
  for (std::size_t p = 0; p < d.out_plane; ++p) {
    Vec acc[kCo][kBlockVecs];
    for (std::size_t j = 0; j < kCo; ++j) {
      for (std::size_t h = 0; h < kBlockVecs; ++h) acc[j][h] = splat(bias[j]);
    }
    const ConvTap* first = taps.taps.data() + taps.begin[p];
    const ConvTap* last = taps.taps.data() + taps.begin[p + 1];
    for (std::size_t ci = 0; ci < d.cin; ++ci) {
      const float* xc = xt + ci * d.in_plane * kLanes;
      const float* wc = w + ci * d.kk;
      for (const ConvTap* t = first; t != last; ++t) {
        Vec x[kBlockVecs];
        for (std::size_t h = 0; h < kBlockVecs; ++h) {
          x[h] = load(xc + t->pos * kLanes + h * kVecLanes);
        }
        for (std::size_t j = 0; j < kCo; ++j) {
          const Vec wv = splat(wc[j * d.filter() + t->k]);
          for (std::size_t h = 0; h < kBlockVecs; ++h) acc[j][h] += wv * x[h];
        }
      }
    }
    for (std::size_t j = 0; j < kCo; ++j) {
      detail::scatter(acc[j], count, y + j * d.out_plane + p, d.out_features());
    }
  }
}

/// grad_in of kCi input channels for one sample block; `dyt` is grad_out in
/// lane layout, `w` starts at input channel ci of output channel 0, `dx` at
/// that channel's plane in sample 0 of the block.  Each element is written
/// once, so the grad_in buffer needs no zero fill.
template <std::size_t kCi>
void grad_in_channels(const ConvDims& d, const TapTable& taps, const float* dyt,
                      const float* w, float* dx, std::size_t count) {
  for (std::size_t q = 0; q < d.in_plane; ++q) {
    Vec acc[kCi][kBlockVecs];
    for (std::size_t j = 0; j < kCi; ++j) {
      for (std::size_t h = 0; h < kBlockVecs; ++h) acc[j][h] = splat(0.0F);
    }
    const ConvTap* first = taps.taps.data() + taps.begin[q];
    const ConvTap* last = taps.taps.data() + taps.begin[q + 1];
    for (std::size_t co = 0; co < d.cout; ++co) {
      const float* gc = dyt + co * d.out_plane * kLanes;
      const float* wc = w + co * d.filter();
      for (const ConvTap* t = first; t != last; ++t) {
        Vec g[kBlockVecs];
        for (std::size_t h = 0; h < kBlockVecs; ++h) {
          g[h] = load(gc + t->pos * kLanes + h * kVecLanes);
        }
        for (std::size_t j = 0; j < kCi; ++j) {
          const Vec wv = splat(wc[j * d.kk + t->k]);
          for (std::size_t h = 0; h < kBlockVecs; ++h) acc[j][h] += g[h] * wv;
        }
      }
    }
    for (std::size_t j = 0; j < kCi; ++j) {
      detail::scatter(acc[j], count, dx + j * d.in_plane + q, d.in_features());
    }
  }
}

/// im2col row length: one output position's taps over every input channel,
/// padded to the narrowest weight-gradient block.
constexpr std::size_t kColAlign = 16;
std::size_t col_row(const ConvDims& d) {
  return (d.filter() + kColAlign - 1) / kColAlign * kColAlign;
}

/// Output positions per im2col block: about this many floats of rows, so a
/// block stays in L1 while every output channel reads it, and the scratch
/// does not grow with the plane.
constexpr std::size_t kColFloats = 4096;

/// Row p - p0 of `col` holds, at ci * K * K + kr * K + kc, the input under
/// that tap of output position p of sample `x`, and 0 for a padding tap or
/// the row's tail.
void im2col(const ConvDims& d, const TapTable& taps, const float* x,
            std::size_t p0, std::size_t p1, float* col, std::size_t row) {
  for (std::size_t p = p0; p < p1; ++p) {
    float* dst = col + (p - p0) * row;
    std::fill(dst, dst + row, 0.0F);
    const ConvTap* first = taps.taps.data() + taps.begin[p];
    const ConvTap* last = taps.taps.data() + taps.begin[p + 1];
    for (const ConvTap* t = first; t != last; ++t) {
      for (std::size_t ci = 0; ci < d.cin; ++ci) {
        dst[ci * d.kk + t->k] = x[ci * d.in_plane + t->pos];
      }
    }
  }
}

/// dw[0, width) += g[k] * (im2col row pos[k])[0, width) for k ascending, the
/// lane being the tap.  kVecs * kVecLanes taps are computed (the im2col row
/// is zero-padded that far); only `width` are loaded and stored.
template <std::size_t kVecs>
void accumulate_rows(float* dw, std::size_t width, const float* col,
                     std::size_t row, const float* g, const std::uint32_t* pos,
                     std::size_t n) {
  float edge[kVecs * kVecLanes] = {};
  std::copy(dw, dw + width, edge);
  Vec acc[kVecs];
  for (std::size_t v = 0; v < kVecs; ++v) acc[v] = load(edge + v * kVecLanes);
  for (std::size_t k = 0; k < n; ++k) {
    const Vec gk = splat(g[k]);
    const float* src = col + pos[k] * row;
    for (std::size_t v = 0; v < kVecs; ++v) {
      acc[v] += gk * load(src + v * kVecLanes);
    }
  }
  for (std::size_t v = 0; v < kVecs; ++v) store(edge + v * kVecLanes, acc[v]);
  std::copy(edge, edge + width, dw);
}

/// Adds one sample's weight and bias gradients for output positions
/// [p0, p1), whose im2col rows are in `col`.  Per output channel, the
/// positions with g != 0 are listed first (the scalar loop's skip), then
/// every weight sums over them in (r, c) order.
void accumulate_weight_gradient(const ConvDims& d, const float* dy,
                                std::size_t p0, std::size_t p1,
                                const float* col, std::size_t row,
                                detail::KernelScratch& scratch,
                                float* grad_weight, float* grad_bias) {
  constexpr std::size_t kWide = 2 * kColAlign;
  constexpr std::size_t kNarrowVecs = kColAlign / kVecLanes;
  const std::size_t width = d.filter();
  float* nz_grad = scratch.nz_grad.data();
  std::uint32_t* nz_pos = scratch.nz_pos.data();
  for (std::size_t co = 0; co < d.cout; ++co) {
    const float* g = dy + co * d.out_plane;
    std::size_t n = 0;
    for (std::size_t p = p0; p < p1; ++p) {  // branch-free compaction
      nz_grad[n] = g[p];
      nz_pos[n] = static_cast<std::uint32_t>(p - p0);
      n += g[p] != 0.0F ? 1 : 0;
    }
    for (std::size_t k = 0; k < n; ++k) grad_bias[co] += nz_grad[k];
    float* dw = grad_weight + co * width;
    std::size_t t = 0;
    for (; t + kWide <= width; t += kWide) {
      accumulate_rows<2 * kNarrowVecs>(dw + t, kWide, col + t, row, nz_grad,
                                       nz_pos, n);
    }
    for (; t < width; t += kColAlign) {
      accumulate_rows<kNarrowVecs>(dw + t, std::min(kColAlign, width - t),
                                   col + t, row, nz_grad, nz_pos, n);
    }
  }
}

}  // namespace

// --------------------------------------------------------------------- Conv2D

Conv2D::Conv2D(ConvShape in, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t pad)
    : Layer(in.features(),
            conv_out_shape(in, out_channels, kernel, stride, pad).features()),
      in_(in),
      out_(conv_out_shape(in, out_channels, kernel, stride, pad)),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {}

std::size_t Conv2D::parameter_count() const {
  return out_.channels * in_.channels * kernel_ * kernel_ + out_.channels;
}

void Conv2D::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.size() == parameter_count(), "Conv2D bind size mismatch");
  const std::size_t w = out_.channels * in_.channels * kernel_ * kernel_;
  weight_ = params.subspan(0, w);
  bias_ = params.subspan(w);
  grad_weight_ = grads.subspan(0, w);
  grad_bias_ = grads.subspan(w);
}

void Conv2D::init(util::Rng& rng) {
  const double fan_in =
      static_cast<double>(in_.channels * kernel_ * kernel_);
  const double stddev = std::sqrt(2.0 / fan_in);
  for (float& w : weight_) w = static_cast<float>(rng.normal(0.0, stddev));
  for (float& b : bias_) b = 0.0F;
}

void Conv2D::forward(std::span<const float> in, std::span<float> out,
                     std::size_t batch) {
  detail::KernelScratch& scratch = detail::kernel_scratch();
  const ConvDims d = conv_dims(in_, out_, kernel_, stride_, pad_);
  build_forward_taps(d, scratch.forward_taps);
  float* xt = detail::grow(scratch.lanes, kLanes * d.in_features());
  for (std::size_t b0 = 0; b0 < batch; b0 += kLanes) {
    const std::size_t count = std::min(kLanes, batch - b0);
    detail::to_lanes(in.data() + b0 * d.in_features(), d.in_features(), count,
                     xt);
    float* y = out.data() + b0 * d.out_features();
    for_channel_blocks(d.cout, [&](auto block, std::size_t co) {
      forward_channels<block()>(d, scratch.forward_taps, xt,
                                weight_.data() + co * d.filter(),
                                bias_.data() + co, y + co * d.out_plane, count);
    });
  }
}

void Conv2D::backward(std::span<const float> in, std::span<const float> grad_out,
                      std::span<float> grad_in, std::size_t batch) {
  detail::KernelScratch& scratch = detail::kernel_scratch();
  const ConvDims d = conv_dims(in_, out_, kernel_, stride_, pad_);
  build_forward_taps(d, scratch.forward_taps);
  build_backward_taps(d, scratch.backward_taps);
  const std::size_t row = col_row(d);
  const std::size_t positions =
      std::min(d.out_plane, std::max<std::size_t>(1, kColFloats / row));
  float* col = detail::grow(scratch.col, positions * row);
  scratch.nz_grad.resize(positions);
  scratch.nz_pos.resize(positions);
  float* dyt = detail::grow(scratch.lanes, kLanes * d.out_features());
  for (std::size_t b0 = 0; b0 < batch; b0 += kLanes) {
    const std::size_t count = std::min(kLanes, batch - b0);
    detail::to_lanes(grad_out.data() + b0 * d.out_features(),
                     d.out_features(), count, dyt);
    float* dx = grad_in.data() + b0 * d.in_features();
    for_channel_blocks(d.cin, [&](auto block, std::size_t ci) {
      grad_in_channels<block()>(d, scratch.backward_taps, dyt,
                                weight_.data() + ci * d.kk,
                                dx + ci * d.in_plane, count);
    });
    for (std::size_t b = b0; b < b0 + count; ++b) {
      for (std::size_t p0 = 0; p0 < d.out_plane; p0 += positions) {
        const std::size_t p1 = std::min(d.out_plane, p0 + positions);
        im2col(d, scratch.forward_taps, in.data() + b * d.in_features(), p0,
               p1, col, row);
        accumulate_weight_gradient(d, grad_out.data() + b * d.out_features(),
                                   p0, p1, col, row, scratch,
                                   grad_weight_.data(), grad_bias_.data());
      }
    }
  }
}

// ------------------------------------------------------------------ MaxPool2D

MaxPool2D::MaxPool2D(ConvShape in)
    : Layer(in.features(), in.channels * (in.height / 2) * (in.width / 2)),
      in_(in),
      out_{.channels = in.channels,
           .height = in.height / 2,
           .width = in.width / 2} {
  util::check(in.height % 2 == 0 && in.width % 2 == 0,
              "MaxPool2D requires even input dims");
}

void MaxPool2D::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.empty() && grads.empty(), "pooling owns no parameters");
}

void MaxPool2D::forward(std::span<const float> in, std::span<float> out,
                        std::size_t batch) {
  argmax_.resize(batch * out_.features());
  const std::size_t ih = in_.height;
  const std::size_t iw = in_.width;
  const std::size_t oh = out_.height;
  const std::size_t ow = out_.width;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * in_.features();
    float* y = out.data() + b * out_.features();
    std::uint32_t* am = argmax_.data() + b * out_.features();
    for (std::size_t ch = 0; ch < in_.channels; ++ch) {
      const float* xc = x + ch * ih * iw;
      float* yc = y + ch * oh * ow;
      std::uint32_t* amc = am + ch * oh * ow;
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          const std::size_t base = (2 * r) * iw + 2 * c;
          std::size_t best = base;
          float best_v = xc[base];
          const std::size_t candidates[3] = {base + 1, base + iw, base + iw + 1};
          for (std::size_t cand : candidates) {
            if (xc[cand] > best_v) {
              best_v = xc[cand];
              best = cand;
            }
          }
          yc[r * ow + c] = best_v;
          amc[r * ow + c] = static_cast<std::uint32_t>(ch * ih * iw + best);
        }
      }
    }
  }
}

void MaxPool2D::backward(std::span<const float> /*in*/,
                         std::span<const float> grad_out,
                         std::span<float> grad_in, std::size_t batch) {
  std::fill(grad_in.begin(), grad_in.begin() + static_cast<std::ptrdiff_t>(
                                                   batch * in_.features()),
            0.0F);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* dy = grad_out.data() + b * out_.features();
    float* dx = grad_in.data() + b * in_.features();
    const std::uint32_t* am = argmax_.data() + b * out_.features();
    for (std::size_t o = 0; o < out_.features(); ++o) dx[am[o]] += dy[o];
  }
}

// --------------------------------------------------------------- GlobalAvgPool

GlobalAvgPool::GlobalAvgPool(ConvShape in)
    : Layer(in.features(), in.channels), in_(in) {}

void GlobalAvgPool::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.empty() && grads.empty(), "pooling owns no parameters");
}

void GlobalAvgPool::forward(std::span<const float> in, std::span<float> out,
                            std::size_t batch) {
  const std::size_t area = in_.height * in_.width;
  const float inv = 1.0F / static_cast<float>(area);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * in_.features();
    float* y = out.data() + b * in_.channels;
    for (std::size_t ch = 0; ch < in_.channels; ++ch) {
      const float* xc = x + ch * area;
      float acc = 0.0F;
      for (std::size_t i = 0; i < area; ++i) acc += xc[i];
      y[ch] = acc * inv;
    }
  }
}

void GlobalAvgPool::backward(std::span<const float> /*in*/,
                             std::span<const float> grad_out,
                             std::span<float> grad_in, std::size_t batch) {
  const std::size_t area = in_.height * in_.width;
  const float inv = 1.0F / static_cast<float>(area);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* dy = grad_out.data() + b * in_.channels;
    float* dx = grad_in.data() + b * in_.features();
    for (std::size_t ch = 0; ch < in_.channels; ++ch) {
      const float g = dy[ch] * inv;
      float* dxc = dx + ch * area;
      for (std::size_t i = 0; i < area; ++i) dxc[i] = g;
    }
  }
}

// -------------------------------------------------------------- ResidualBlock

ResidualBlock::ResidualBlock(ConvShape in, std::size_t out_channels,
                             std::size_t stride)
    : Layer(in.features(),
            conv_out_shape(in, out_channels, 3, stride, 1).features()),
      in_(in),
      out_(conv_out_shape(in, out_channels, 3, stride, 1)) {
  conv1_ = std::make_unique<Conv2D>(in, out_channels, 3, stride, 1);
  conv2_ = std::make_unique<Conv2D>(conv1_->out_shape(), out_channels, 3, 1, 1);
  if (stride != 1 || out_channels != in.channels) {
    skip_ = std::make_unique<Conv2D>(in, out_channels, 1, stride, 0);
  }
}

std::size_t ResidualBlock::parameter_count() const {
  return conv1_->parameter_count() + conv2_->parameter_count() +
         (skip_ ? skip_->parameter_count() : 0);
}

void ResidualBlock::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.size() == parameter_count(),
              "ResidualBlock bind size mismatch");
  std::size_t offset = 0;
  auto take = [&](Layer& layer) {
    const std::size_t n = layer.parameter_count();
    layer.bind(params.subspan(offset, n), grads.subspan(offset, n));
    offset += n;
  };
  take(*conv1_);
  take(*conv2_);
  if (skip_) take(*skip_);
}

void ResidualBlock::init(util::Rng& rng) {
  conv1_->init(rng);
  conv2_->init(rng);
  if (skip_) skip_->init(rng);
}

void ResidualBlock::forward(std::span<const float> in, std::span<float> out,
                            std::size_t batch) {
  const std::size_t mid = batch * conv1_->out_features();
  const std::size_t fin = batch * out_features();
  pre1_.resize(mid);
  act1_.resize(mid);
  pre2_.resize(fin);
  skip_out_.resize(fin);

  conv1_->forward(in, pre1_, batch);
  for (std::size_t i = 0; i < mid; ++i) {
    act1_[i] = pre1_[i] > 0.0F ? pre1_[i] : 0.0F;
  }
  conv2_->forward(act1_, pre2_, batch);
  if (skip_) {
    skip_->forward(in, skip_out_, batch);
  } else {
    std::copy(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(fin),
              skip_out_.begin());
  }
  for (std::size_t i = 0; i < fin; ++i) {
    const float s = pre2_[i] + skip_out_[i];
    out[i] = s > 0.0F ? s : 0.0F;
    pre2_[i] = s;  // cache pre-relu sum for backward
  }
}

void ResidualBlock::backward(std::span<const float> in,
                             std::span<const float> grad_out,
                             std::span<float> grad_in, std::size_t batch) {
  const std::size_t mid = batch * conv1_->out_features();
  const std::size_t fin = batch * out_features();
  detail::KernelScratch& scratch = detail::kernel_scratch();
  const std::span<float> dsum(detail::grow(scratch.block_sum, fin), fin);
  const std::span<float> dact1(detail::grow(scratch.block_mid, mid), mid);

  // Through the final relu: d(sum) = grad_out * relu'(sum).
  for (std::size_t i = 0; i < fin; ++i) {
    dsum[i] = pre2_[i] > 0.0F ? grad_out[i] : 0.0F;
  }

  // Branch 1: conv2 <- relu <- conv1.
  conv2_->backward(act1_, dsum, dact1, batch);
  for (std::size_t i = 0; i < mid; ++i) {
    if (pre1_[i] <= 0.0F) dact1[i] = 0.0F;
  }
  conv1_->backward(in, dact1, grad_in, batch);

  // Branch 2 (skip): add its input-gradient contribution.
  if (skip_) {
    const std::size_t nin = batch * in_features();
    const std::span<float> dskip(detail::grow(scratch.block_skip, nin), nin);
    skip_->backward(in, dsum, dskip, batch);
    for (std::size_t i = 0; i < nin; ++i) grad_in[i] += dskip[i];
  } else {
    for (std::size_t i = 0; i < fin; ++i) grad_in[i] += dsum[i];
  }
}

}  // namespace sidco::nn
