#include "nn/dense.h"

#include <algorithm>
#include <cmath>

#include "nn/kernel_scratch.h"
#include "util/check.h"

namespace sidco::nn {

namespace {

using detail::kBlockVecs;
using detail::kLanes;
using detail::kVecLanes;
using detail::load;
using detail::splat;
using detail::store;
using detail::Vec;

/// Output rows per register block.
constexpr std::size_t kRowBlock = 4;

/// Forward of kO output rows for one sample block: the lane is the sample,
/// `xt` the block in lane layout.  Every output sums bias, then w[i] * x[i]
/// for i ascending, exactly as one scalar chain would (README "Performance",
/// nn kernels).  `w`, `bias` and `y` start at the block's first row.
template <std::size_t kO>
void forward_rows(const float* xt, const float* w, const float* bias,
                  std::size_t ni, std::size_t no, float* y, std::size_t count) {
  Vec acc[kO][kBlockVecs];
  for (std::size_t j = 0; j < kO; ++j) {
    for (std::size_t h = 0; h < kBlockVecs; ++h) acc[j][h] = splat(bias[j]);
  }
  for (std::size_t i = 0; i < ni; ++i) {
    Vec x[kBlockVecs];
    for (std::size_t h = 0; h < kBlockVecs; ++h) {
      x[h] = load(xt + i * kLanes + h * kVecLanes);
    }
    for (std::size_t j = 0; j < kO; ++j) {
      const Vec wv = splat(w[j * ni + i]);
      for (std::size_t h = 0; h < kBlockVecs; ++h) acc[j][h] += wv * x[h];
    }
  }
  for (std::size_t j = 0; j < kO; ++j) detail::scatter(acc[j], count, y + j, no);
}

/// Backward of kO output rows [o, o + kO), the lane being the input index.
/// For each sample b ascending, grad_in[b] gains g[b][o + j] * w[o + j] for
/// j ascending, and weight-gradient row o + j gains g[b][o + j] * x[b].  Over
/// the call's ascending row blocks, each input gradient thus sums over o
/// ascending and each weight gradient over b ascending, as in the
/// per-sample loop.  `g`, `w` and `dw` start at row o.
template <std::size_t kO>
void backward_rows(const float* g, const float* w, const float* x,
                   std::size_t ni, std::size_t no, std::size_t batch,
                   float* dx, float* dw) {
  const std::size_t full = ni - ni % kVecLanes;
  for (std::size_t i = 0; i < full; i += kVecLanes) {
    Vec wv[kO];
    Vec acc[kO];
    for (std::size_t j = 0; j < kO; ++j) {
      wv[j] = load(w + j * ni + i);
      acc[j] = load(dw + j * ni + i);
    }
    for (std::size_t b = 0; b < batch; ++b) {
      const Vec xv = load(x + b * ni + i);
      Vec dxv = load(dx + b * ni + i);
      for (std::size_t j = 0; j < kO; ++j) {
        const Vec gj = splat(g[b * no + j]);
        dxv += gj * wv[j];
        acc[j] += gj * xv;
      }
      store(dx + b * ni + i, dxv);
    }
    for (std::size_t j = 0; j < kO; ++j) store(dw + j * ni + i, acc[j]);
  }
  for (std::size_t i = full; i < ni; ++i) {
    for (std::size_t j = 0; j < kO; ++j) {
      for (std::size_t b = 0; b < batch; ++b) {
        const float gj = g[b * no + j];
        dx[b * ni + i] += gj * w[j * ni + i];
        dw[j * ni + i] += gj * x[b * ni + i];
      }
    }
  }
}

}  // namespace

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : Layer(in_features, out_features) {
  util::check(in_features > 0 && out_features > 0,
              "Dense dimensions must be positive");
}

std::size_t Dense::parameter_count() const {
  return in_features() * out_features() + out_features();
}

void Dense::bind(std::span<float> params, std::span<float> grads) {
  util::check(params.size() == parameter_count(), "Dense bind size mismatch");
  const std::size_t w = in_features() * out_features();
  weight_ = params.subspan(0, w);
  bias_ = params.subspan(w);
  grad_weight_ = grads.subspan(0, w);
  grad_bias_ = grads.subspan(w);
}

void Dense::init(util::Rng& rng) {
  // He initialization (fan-in); biases start at zero.
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_features()));
  for (float& w : weight_) w = static_cast<float>(rng.normal(0.0, stddev));
  for (float& b : bias_) b = 0.0F;
}

void Dense::forward(std::span<const float> in, std::span<float> out,
                    std::size_t batch) {
  const std::size_t ni = in_features();
  const std::size_t no = out_features();
  float* xt = detail::grow(detail::kernel_scratch().lanes, kLanes * ni);
  for (std::size_t b0 = 0; b0 < batch; b0 += kLanes) {
    const std::size_t count = std::min(kLanes, batch - b0);
    detail::to_lanes(in.data() + b0 * ni, ni, count, xt);
    float* y = out.data() + b0 * no;
    std::size_t o = 0;
    for (; o + kRowBlock <= no; o += kRowBlock) {
      forward_rows<kRowBlock>(xt, weight_.data() + o * ni, bias_.data() + o,
                              ni, no, y + o, count);
    }
    for (; o < no; ++o) {
      forward_rows<1>(xt, weight_.data() + o * ni, bias_.data() + o, ni, no,
                      y + o, count);
    }
  }
}

void Dense::backward(std::span<const float> in, std::span<const float> grad_out,
                     std::span<float> grad_in, std::size_t batch) {
  const std::size_t ni = in_features();
  const std::size_t no = out_features();
  std::fill(grad_in.begin(),
            grad_in.begin() + static_cast<std::ptrdiff_t>(batch * ni), 0.0F);
  // Output rows outermost, in blocks: each weight row and weight-gradient
  // row is read once per call, not once per sample.
  std::size_t o = 0;
  for (; o + kRowBlock <= no; o += kRowBlock) {
    backward_rows<kRowBlock>(grad_out.data() + o, weight_.data() + o * ni,
                             in.data(), ni, no, batch, grad_in.data(),
                             grad_weight_.data() + o * ni);
  }
  for (; o < no; ++o) {
    backward_rows<1>(grad_out.data() + o, weight_.data() + o * ni, in.data(),
                     ni, no, batch, grad_in.data(),
                     grad_weight_.data() + o * ni);
  }
  for (std::size_t b = 0; b < batch; ++b) {
    for (o = 0; o < no; ++o) grad_bias_[o] += grad_out[b * no + o];
  }
}

}  // namespace sidco::nn
