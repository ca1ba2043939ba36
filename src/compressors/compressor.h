// Common interface for all gradient sparsifiers.
//
// A compressor maps a dense gradient g in R^d to a sparse (indices, values)
// pair.  Implementations are stateful where the algorithm requires it (e.g.
// SIDCo's stage controller) and must be deterministic given their
// construction-time RNG seed.  The factory that builds any scheme by name
// lives in core/factory.h (the SIDCo variants are part of the core library).
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "tensor/sparse.h"
#include "util/rng.h"

namespace sidco::compressors {

struct CompressResult {
  tensor::SparseGradient sparse;
  /// Magnitude threshold that produced the selection (0 when the scheme is
  /// not threshold-based, e.g. Random-k).
  double threshold = 0.0;
  /// Number of estimation stages used (1 for single-stage schemes).
  int stages_used = 1;
  /// Goodness-of-fit of the scheme's statistical model on this gradient
  /// (stage-1 KS distance for the SIDCo schemes); negative when the scheme
  /// has no fit or diagnostics are disabled (see enable_fit_diagnostics).
  double fit_ks = -1.0;

  [[nodiscard]] std::size_t selected() const { return sparse.nnz(); }
  [[nodiscard]] double achieved_ratio() const { return sparse.density(); }
};

class Compressor {
 public:
  virtual ~Compressor() = default;

  Compressor(const Compressor&) = delete;
  Compressor& operator=(const Compressor&) = delete;

  /// Validates `gradient` (non-empty, all finite) then sparsifies it.  Must
  /// not modify external state other than the compressor's own adaptation
  /// statistics.
  CompressResult compress(std::span<const float> gradient);

  /// Sparsifies without re-validating — for callers that already checked
  /// validate_gradient()'s contract and want measured latency to exclude
  /// that pass.
  CompressResult compress_unchecked(std::span<const float> gradient);

  /// Sparsifies into `out`, reusing its storage.  Together with the
  /// compressor-owned scratch (tensor::Workspace, sample/exceedance buffers)
  /// this makes steady-state compression allocation-free: once `out` and the
  /// internal buffers have reached their high-water capacity, repeated calls
  /// perform zero heap allocations.
  void compress_into(std::span<const float> gradient, CompressResult& out);

  /// compress_into without re-validating the gradient.
  void compress_into_unchecked(std::span<const float> gradient,
                               CompressResult& out);

  /// Input contract shared by every scheme: the gradient must be non-empty
  /// and contain only finite values.  Throws util::CheckError otherwise.
  static void validate_gradient(std::span<const float> gradient);

  /// Scheme name as used in the paper's figures (e.g. "Topk", "DGC").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Target compression ratio delta = k/d in (0, 1].
  [[nodiscard]] double target_ratio() const { return target_ratio_; }

  /// Retunes the target ratio for subsequent compress calls (the autotune
  /// controller's actuator).  Schemes with stricter domains override to
  /// tighten the validation (SIDCo requires (0, 1)).
  virtual void set_target_ratio(double target_ratio);

  /// Opts in to per-call fit diagnostics: schemes with a statistical model
  /// (the SIDCo family) fill CompressResult::fit_ks from a subsample of at
  /// most `sample_cap` magnitudes.  Off by default — the KS pass allocates a
  /// sort buffer, so default-constructed compressors keep the steady-state
  /// zero-allocation contract of compress_into().  No-op for model-free
  /// schemes.  `sample_cap` 0 disables diagnostics again.
  void enable_fit_diagnostics(std::size_t sample_cap) {
    fit_diagnostics_cap_ = sample_cap;
  }
  [[nodiscard]] std::size_t fit_diagnostics_cap() const {
    return fit_diagnostics_cap_;
  }

  /// Target k for dimension d: max(1, round(delta * d)).
  [[nodiscard]] std::size_t target_k(std::size_t dimension) const;

 protected:
  explicit Compressor(double target_ratio);

  /// Scheme-specific selection logic; input is already validated and `out`
  /// already reset (cleared index/value vectors with retained capacity,
  /// dense_dim set, threshold 0, stages_used 1).  Implementations must only
  /// append/resize within `out` and their own reusable scratch so the
  /// steady-state allocation contract of compress_into() holds.
  virtual void do_compress_into(std::span<const float> gradient,
                                CompressResult& out) = 0;

 private:
  double target_ratio_;
  std::size_t fit_diagnostics_cap_ = 0;
};

}  // namespace sidco::compressors
