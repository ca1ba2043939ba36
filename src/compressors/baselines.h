// Baseline sparsifiers the paper compares against (§1.2, §4.1):
//
//  - TopK:         exact magnitude selection (nth_element, O(d) average) —
//                  the quality gold standard and the overhead strawman.
//  - Dgc:          Deep Gradient Compression (Lin et al. 2018) threshold
//                  sampling: Top-k on a random sub-population yields a
//                  threshold, then a hierarchical re-selection trims overshoot.
//  - RedSync:      (Fang et al. 2019) moves a trial ratio between the mean and
//                  max magnitude until the selected count lands near k.
//  - GaussianKSgd: (Shi et al. 2019) initial threshold from a Gaussian fit,
//                  refined by a fixed number of multiplicative adjustments.
//  - RandomK:      uniform random support (convergence baseline).
//  - NoCompression: plumbing baseline.
//
// Every scheme owns a tensor::Workspace (and scheme-specific buffers) so that
// steady-state compress_into() calls are allocation-free.
#pragma once

#include <vector>

#include "compressors/compressor.h"
#include "tensor/vector_ops.h"

namespace sidco::compressors {

class NoCompression final : public Compressor {
 public:
  explicit NoCompression(double target_ratio);
  [[nodiscard]] std::string_view name() const override { return "NoComp"; }

 private:
  void do_compress_into(std::span<const float> gradient,
                        CompressResult& out) override;
};

class TopK final : public Compressor {
 public:
  explicit TopK(double target_ratio);
  [[nodiscard]] std::string_view name() const override { return "Topk"; }

 private:
  void do_compress_into(std::span<const float> gradient,
                        CompressResult& out) override;
  tensor::Workspace workspace_;
};

class Dgc final : public Compressor {
 public:
  /// `sample_ratio` is the sub-population fraction (paper: "e.g., 1%").
  Dgc(double target_ratio, std::uint64_t seed, double sample_ratio = 0.01,
      std::size_t min_samples = 1000);
  [[nodiscard]] std::string_view name() const override { return "DGC"; }

 private:
  void do_compress_into(std::span<const float> gradient,
                        CompressResult& out) override;
  util::Rng rng_;
  double sample_ratio_;
  std::size_t min_samples_;
  std::vector<float> sample_buffer_;
  tensor::Workspace workspace_;
};

class RedSync final : public Compressor {
 public:
  /// `max_search_steps` bounds the geometric ratio escalation (and hence the
  /// number of O(d) count passes).
  explicit RedSync(double target_ratio, int max_search_steps = 12);
  [[nodiscard]] std::string_view name() const override { return "RedSync"; }

 private:
  void do_compress_into(std::span<const float> gradient,
                        CompressResult& out) override;
  int max_search_steps_;
  tensor::Workspace workspace_;
};

class GaussianKSgd final : public Compressor {
 public:
  explicit GaussianKSgd(double target_ratio, int max_adjust_steps = 3,
                        double tolerance = 0.1);
  [[nodiscard]] std::string_view name() const override { return "GaussK"; }

 private:
  void do_compress_into(std::span<const float> gradient,
                        CompressResult& out) override;
  int max_adjust_steps_;
  double tolerance_;
  tensor::Workspace workspace_;
};

class RandomK final : public Compressor {
 public:
  RandomK(double target_ratio, std::uint64_t seed);
  [[nodiscard]] std::string_view name() const override { return "Randomk"; }

 private:
  void do_compress_into(std::span<const float> gradient,
                        CompressResult& out) override;
  util::Rng rng_;
  /// Floyd-sampling membership marks, epoch-stamped so the buffer is reused
  /// across calls without an O(d) clear (and without the former per-call
  /// std::vector<bool> allocation).
  std::vector<std::uint32_t> used_stamp_;
  std::uint32_t epoch_ = 0;
};

}  // namespace sidco::compressors
