#include "compressors/baselines.h"

#include <algorithm>
#include <cmath>

#include "stats/fitting.h"
#include "tensor/vector_ops.h"
#include "util/check.h"

namespace sidco::compressors {

// -------------------------------------------------------------- NoCompression

NoCompression::NoCompression(double target_ratio) : Compressor(target_ratio) {}

void NoCompression::do_compress_into(std::span<const float> gradient,
                                     CompressResult& out) {
  out.sparse.indices.resize(gradient.size());
  out.sparse.values.assign(gradient.begin(), gradient.end());
  for (std::size_t i = 0; i < gradient.size(); ++i) {
    out.sparse.indices[i] = static_cast<std::uint32_t>(i);
  }
}

// ----------------------------------------------------------------------- TopK

TopK::TopK(double target_ratio) : Compressor(target_ratio) {}

void TopK::do_compress_into(std::span<const float> gradient,
                            CompressResult& out) {
  const std::size_t k = target_k(gradient.size());
  out.threshold = tensor::top_k(gradient, k, workspace_, out.sparse);
}

// ------------------------------------------------------------------------ DGC

Dgc::Dgc(double target_ratio, std::uint64_t seed, double sample_ratio,
         std::size_t min_samples)
    : Compressor(target_ratio),
      rng_(seed),
      sample_ratio_(sample_ratio),
      min_samples_(min_samples) {
  util::check(sample_ratio > 0.0 && sample_ratio <= 1.0,
              "DGC sample ratio must be in (0, 1]");
}

void Dgc::do_compress_into(std::span<const float> gradient,
                           CompressResult& out) {
  const std::size_t d = gradient.size();
  const std::size_t k = target_k(d);

  // 1) Random sub-population.  The sample must contain enough above-threshold
  // elements for the sample quantile to be meaningful: at paper-scale d the
  // 1% sample suffices, on smaller vectors we grow it so that the expected
  // sample_k is at least ~16.
  const auto quantile_floor = static_cast<std::size_t>(
      16.0 / std::max(target_ratio(), 1e-9));
  std::size_t sample_size = std::max<std::size_t>(
      min_samples_,
      static_cast<std::size_t>(sample_ratio_ * static_cast<double>(d)));
  sample_size = std::max(sample_size, quantile_floor);
  sample_size = std::min(sample_size, d);

  float eta = 0.0F;
  if (sample_size == d) {
    // The "sample" is the full population: the trial threshold is exactly the
    // k-th largest magnitude (workspace-backed selection — no extra copy of
    // the gradient into the sample buffer).
    eta = tensor::kth_largest_abs(gradient, k, workspace_);
  } else {
    sample_buffer_.resize(sample_size);
    for (std::size_t i = 0; i < sample_size; ++i) {
      sample_buffer_[i] = std::fabs(gradient[rng_.uniform_index(d)]);
    }
    // 2) Top-k on the sample to get a trial threshold at the target quantile.
    const std::size_t sample_k = std::clamp<std::size_t>(
        static_cast<std::size_t>(
            std::llround(target_ratio() * static_cast<double>(sample_size))),
        1, sample_size);
    std::nth_element(
        sample_buffer_.begin(),
        sample_buffer_.begin() + static_cast<std::ptrdiff_t>(sample_k - 1),
        sample_buffer_.end(), std::greater<>());
    eta = sample_buffer_[sample_k - 1];
  }

  // 3) Hierarchical selection: apply the trial threshold to the full vector;
  //    if it overshoots the target, trim the (much smaller) exceedance set
  //    down to k in place — the paper's "invokes Topk twice" worst case,
  //    without materializing a second index/value pair.
  out.threshold = eta;
  tensor::extract_at_least(gradient, eta, workspace_, out.sparse);
  if (out.sparse.nnz() > k) {
    const float trim_eta =
        tensor::kth_largest_abs(out.sparse.values, k, workspace_);
    std::size_t above = 0;
    for (float v : out.sparse.values) {
      above += (std::fabs(v) > trim_eta) ? 1U : 0U;
    }
    std::size_t tie_budget = k - above;
    std::size_t w = 0;
    for (std::size_t j = 0; j < out.sparse.nnz(); ++j) {
      const float a = std::fabs(out.sparse.values[j]);
      if (a < trim_eta) continue;
      if (a == trim_eta) {
        if (tie_budget == 0) continue;
        --tie_budget;
      }
      out.sparse.indices[w] = out.sparse.indices[j];
      out.sparse.values[w] = out.sparse.values[j];
      ++w;
    }
    out.sparse.indices.resize(w);
    out.sparse.values.resize(w);
    out.threshold = trim_eta;
  }
}

// -------------------------------------------------------------------- RedSync

RedSync::RedSync(double target_ratio, int max_search_steps)
    : Compressor(target_ratio), max_search_steps_(max_search_steps) {
  util::check(max_search_steps >= 1, "RedSync needs at least one step");
}

void RedSync::do_compress_into(std::span<const float> gradient,
                               CompressResult& out) {
  const std::size_t d = gradient.size();
  const std::size_t k = target_k(d);
  // One fused pass for both anchors of the interpolation.
  const tensor::AbsMoments moments =
      tensor::abs_moments(gradient, std::numeric_limits<float>::infinity(),
                          /*with_log=*/false, &workspace_);
  const double mean_mag = moments.mean_abs();
  const double max_mag = static_cast<double>(moments.max_abs);

  // Move the interpolation ratio between mean and max upward geometrically
  // (eta = mean + r (max - mean)) and stop at the FIRST ratio whose count
  // drops to <= k — the original scheme's one-sided escalation.  The coarse
  // ratio grid is what makes the method fast, and also what makes its
  // estimate land anywhere below k at aggressive targets: one step deep in
  // the tail can jump across most of the survivors (paper Figs. 1c, 4b).
  double ratio = 1.0 / 1024.0;
  double eta = mean_mag + ratio * (max_mag - mean_mag);
  std::size_t selected = tensor::count_at_least(
      gradient, static_cast<float>(eta), &workspace_);
  for (int step = 0; step < max_search_steps_ && selected > k && ratio < 1.0;
       ++step) {
    ratio = std::min(ratio * 2.0, 1.0);
    eta = mean_mag + ratio * (max_mag - mean_mag);
    selected = tensor::count_at_least(gradient, static_cast<float>(eta),
                                      &workspace_);
  }

  out.threshold = eta;
  tensor::extract_at_least(gradient, static_cast<float>(eta), workspace_,
                           out.sparse);
}

// --------------------------------------------------------------- GaussianKSgd

GaussianKSgd::GaussianKSgd(double target_ratio, int max_adjust_steps,
                           double tolerance)
    : Compressor(target_ratio),
      max_adjust_steps_(max_adjust_steps),
      tolerance_(tolerance) {
  util::check(max_adjust_steps >= 0, "adjust steps must be non-negative");
  util::check(tolerance > 0.0, "tolerance must be positive");
}

void GaussianKSgd::do_compress_into(std::span<const float> gradient,
                                    CompressResult& out) {
  const std::size_t d = gradient.size();
  const std::size_t k = target_k(d);

  // Threshold from a Gaussian fit of the signed gradient: the (1 - delta/2)
  // quantile.  Mean and variance come from one fused pass.  The bounded
  // refinement re-evaluates the *Gaussian* quantile at an adjusted
  // probability delta_est *= k / k-hat (Shi et al.'s heuristic).  Because
  // real gradients are leptokurtic, feedback through the wrong distribution
  // converges very slowly deep in the tail (quantiles compress as z grows) —
  // the defect the paper demonstrates at delta = 0.001.
  const stats::Normal fit =
      stats::fit_normal(tensor::signed_moments(gradient, &workspace_));
  double delta_est = target_ratio();
  auto threshold_at = [&](double delta_value) {
    const double q = fit.quantile(1.0 - delta_value / 2.0);
    return std::fabs(q - fit.mean()) + std::fabs(fit.mean());
  };
  double eta = threshold_at(delta_est);
  std::size_t selected = tensor::count_at_least(
      gradient, static_cast<float>(eta), &workspace_);
  for (int it = 0; it < max_adjust_steps_; ++it) {
    const double ratio_error =
        (static_cast<double>(selected) - static_cast<double>(k)) /
        static_cast<double>(k);
    if (std::fabs(ratio_error) <= tolerance_) break;
    delta_est *= static_cast<double>(k) /
                 std::max<double>(static_cast<double>(selected), 1.0);
    delta_est = std::clamp(delta_est, 1e-12, 0.9);
    eta = threshold_at(delta_est);
    selected = tensor::count_at_least(gradient, static_cast<float>(eta),
                                      &workspace_);
  }

  out.threshold = eta;
  tensor::extract_at_least(gradient, static_cast<float>(eta), workspace_,
                           out.sparse);
}

// -------------------------------------------------------------------- RandomK

RandomK::RandomK(double target_ratio, std::uint64_t seed)
    : Compressor(target_ratio), rng_(seed) {}

void RandomK::do_compress_into(std::span<const float> gradient,
                               CompressResult& out) {
  const std::size_t d = gradient.size();
  const std::size_t k = target_k(d);
  // Floyd's algorithm for a uniform k-subset without replacement.  Membership
  // is tracked by epoch stamps in a reusable O(d) buffer: bumping the epoch
  // invalidates all previous marks, so per-call work is O(k log k), not O(d).
  if (used_stamp_.size() < d) used_stamp_.resize(d, 0);
  ++epoch_;
  if (epoch_ == 0) {  // stamp wraparound: all marks must be invalidated
    std::fill(used_stamp_.begin(), used_stamp_.end(), 0U);
    epoch_ = 1;
  }
  for (std::size_t j = d - k; j < d; ++j) {
    const std::size_t t = rng_.uniform_index(j + 1);
    const std::size_t pick = (used_stamp_[t] == epoch_) ? j : t;
    used_stamp_[pick] = epoch_;
    out.sparse.indices.push_back(static_cast<std::uint32_t>(pick));
  }
  std::sort(out.sparse.indices.begin(), out.sparse.indices.end());
  out.sparse.values.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    out.sparse.values[j] = gradient[out.sparse.indices[j]];
  }
}

}  // namespace sidco::compressors
