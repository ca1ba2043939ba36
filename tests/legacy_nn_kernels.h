// Frozen reference copies of the scalar Conv2D and Dense loops that the
// vectorized kernels in src/nn replaced: one serial multiply-add chain per
// output, sample by sample.  The loop bodies are verbatim; only the layer
// members became parameters.
//
// They are the oracle of tests/test_nn_kernels.cpp, which requires the
// production layers to match them bit for bit, and the "Legacy" side of the
// BM_ConvLayer / BM_DenseLayer pairs in bench/bench_micro_kernels.cpp.  Do
// not edit the loops: the point of this file is that it never changes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "nn/conv2d.h"

namespace sidco::nn::legacy {

struct ConvParams {
  ConvShape in;
  ConvShape out;
  std::size_t kernel = 0;
  std::size_t stride = 0;
  std::size_t pad = 0;
  std::span<const float> weight;  // (Cout, Cin, K, K)
  std::span<const float> bias;    // (Cout)
  std::span<float> grad_weight;
  std::span<float> grad_bias;
};

inline void conv2d_forward(const ConvParams& p, std::span<const float> in,
                           std::span<float> out, std::size_t batch) {
  const ConvShape& in_ = p.in;
  const ConvShape& out_ = p.out;
  const std::size_t kernel_ = p.kernel;
  const std::size_t stride_ = p.stride;
  const std::size_t pad_ = p.pad;
  const std::span<const float> weight_ = p.weight;
  const std::span<const float> bias_ = p.bias;
  const std::size_t ih = in_.height;
  const std::size_t iw = in_.width;
  const std::size_t oh = out_.height;
  const std::size_t ow = out_.width;
  const std::size_t cin = in_.channels;
  const std::size_t cout = out_.channels;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * in_.features();
    float* y = out.data() + b * out_.features();
    for (std::size_t co = 0; co < cout; ++co) {
      float* ychan = y + co * oh * ow;
      const float* wchan = weight_.data() + co * cin * kernel_ * kernel_;
      const float bias = bias_[co];
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          float acc = bias;
          for (std::size_t ci = 0; ci < cin; ++ci) {
            const float* xchan = x + ci * ih * iw;
            const float* wk = wchan + ci * kernel_ * kernel_;
            for (std::size_t kr = 0; kr < kernel_; ++kr) {
              const std::ptrdiff_t ir = static_cast<std::ptrdiff_t>(r * stride_ + kr) -
                                        static_cast<std::ptrdiff_t>(pad_);
              if (ir < 0 || ir >= static_cast<std::ptrdiff_t>(ih)) continue;
              for (std::size_t kc = 0; kc < kernel_; ++kc) {
                const std::ptrdiff_t ic = static_cast<std::ptrdiff_t>(c * stride_ + kc) -
                                          static_cast<std::ptrdiff_t>(pad_);
                if (ic < 0 || ic >= static_cast<std::ptrdiff_t>(iw)) continue;
                acc += wk[kr * kernel_ + kc] *
                       xchan[static_cast<std::size_t>(ir) * iw +
                             static_cast<std::size_t>(ic)];
              }
            }
          }
          ychan[r * ow + c] = acc;
        }
      }
    }
  }
}

inline void conv2d_backward(const ConvParams& p, std::span<const float> in,
                            std::span<const float> grad_out,
                            std::span<float> grad_in, std::size_t batch) {
  const ConvShape& in_ = p.in;
  const ConvShape& out_ = p.out;
  const std::size_t kernel_ = p.kernel;
  const std::size_t stride_ = p.stride;
  const std::size_t pad_ = p.pad;
  const std::span<const float> weight_ = p.weight;
  const std::span<float> grad_weight_ = p.grad_weight;
  const std::span<float> grad_bias_ = p.grad_bias;
  const std::size_t ih = in_.height;
  const std::size_t iw = in_.width;
  const std::size_t oh = out_.height;
  const std::size_t ow = out_.width;
  const std::size_t cin = in_.channels;
  const std::size_t cout = out_.channels;
  std::fill(grad_in.begin(), grad_in.begin() + static_cast<std::ptrdiff_t>(
                                                   batch * in_.features()),
            0.0F);
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * in_.features();
    const float* dy = grad_out.data() + b * out_.features();
    float* dx = grad_in.data() + b * in_.features();
    for (std::size_t co = 0; co < cout; ++co) {
      const float* dychan = dy + co * oh * ow;
      const float* wchan = weight_.data() + co * cin * kernel_ * kernel_;
      float* dwchan = grad_weight_.data() + co * cin * kernel_ * kernel_;
      for (std::size_t r = 0; r < oh; ++r) {
        for (std::size_t c = 0; c < ow; ++c) {
          const float g = dychan[r * ow + c];
          if (g == 0.0F) continue;
          grad_bias_[co] += g;
          for (std::size_t ci = 0; ci < cin; ++ci) {
            const float* xchan = x + ci * ih * iw;
            float* dxchan = dx + ci * ih * iw;
            const float* wk = wchan + ci * kernel_ * kernel_;
            float* dwk = dwchan + ci * kernel_ * kernel_;
            for (std::size_t kr = 0; kr < kernel_; ++kr) {
              const std::ptrdiff_t ir = static_cast<std::ptrdiff_t>(r * stride_ + kr) -
                                        static_cast<std::ptrdiff_t>(pad_);
              if (ir < 0 || ir >= static_cast<std::ptrdiff_t>(ih)) continue;
              for (std::size_t kc = 0; kc < kernel_; ++kc) {
                const std::ptrdiff_t ic = static_cast<std::ptrdiff_t>(c * stride_ + kc) -
                                          static_cast<std::ptrdiff_t>(pad_);
                if (ic < 0 || ic >= static_cast<std::ptrdiff_t>(iw)) continue;
                const std::size_t xi = static_cast<std::size_t>(ir) * iw +
                                       static_cast<std::size_t>(ic);
                dwk[kr * kernel_ + kc] += g * xchan[xi];
                dxchan[xi] += g * wk[kr * kernel_ + kc];
              }
            }
          }
        }
      }
    }
  }
}

struct DenseParams {
  std::size_t in_features = 0;
  std::size_t out_features = 0;
  std::span<const float> weight;  // (out, in) row-major
  std::span<const float> bias;    // (out)
  std::span<float> grad_weight;
  std::span<float> grad_bias;
};

inline void dense_forward(const DenseParams& p, std::span<const float> in,
                          std::span<float> out, std::size_t batch) {
  const std::span<const float> weight_ = p.weight;
  const std::span<const float> bias_ = p.bias;
  const std::size_t ni = p.in_features;
  const std::size_t no = p.out_features;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * ni;
    float* y = out.data() + b * no;
    for (std::size_t o = 0; o < no; ++o) {
      const float* w = weight_.data() + o * ni;
      float acc = bias_[o];
      for (std::size_t i = 0; i < ni; ++i) acc += w[i] * x[i];
      y[o] = acc;
    }
  }
}

inline void dense_backward(const DenseParams& p, std::span<const float> in,
                           std::span<const float> grad_out,
                           std::span<float> grad_in, std::size_t batch) {
  const std::span<const float> weight_ = p.weight;
  const std::span<float> grad_weight_ = p.grad_weight;
  const std::span<float> grad_bias_ = p.grad_bias;
  const std::size_t ni = p.in_features;
  const std::size_t no = p.out_features;
  for (std::size_t b = 0; b < batch; ++b) {
    const float* x = in.data() + b * ni;
    const float* dy = grad_out.data() + b * no;
    float* dx = grad_in.data() + b * ni;
    for (std::size_t i = 0; i < ni; ++i) dx[i] = 0.0F;
    for (std::size_t o = 0; o < no; ++o) {
      const float g = dy[o];
      const float* w = weight_.data() + o * ni;
      float* dw = grad_weight_.data() + o * ni;
      grad_bias_[o] += g;
      for (std::size_t i = 0; i < ni; ++i) {
        dx[i] += g * w[i];
        dw[i] += g * x[i];
      }
    }
  }
}

}  // namespace sidco::nn::legacy
