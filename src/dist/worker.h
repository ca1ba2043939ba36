// One simulated data-parallel worker: a model replica, a private data stream,
// a compressor instance, and an error-feedback memory (Algorithm 2).
//
// step() runs a real forward/backward on a locally sampled batch, adds the
// residual memory when error feedback is on, compresses, and retains the
// unselected remainder as the new residual.  apply_update() applies the
// aggregated (averaged) gradient, so replicas that start from the same
// model seed stay bit-identical across workers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "comm/codec.h"
#include "compressors/compressor.h"
#include "core/autotune.h"
#include "core/factory.h"
#include "data/dataset.h"
#include "dist/device_model.h"
#include "dist/network_model.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/zoo.h"
#include "util/rng.h"

namespace sidco::dist {

struct WorkerStepResult {
  tensor::SparseGradient sparse;
  /// The gradient as it would travel: a comm-codec message (sparse payload
  /// with auto-selected index mode, or a dense message when every coordinate
  /// is kept).  Its size is the measured bytes-on-wire for this push.
  std::vector<std::uint8_t> encoded;
  /// encoded.size() — measured, not modeled.
  std::size_t wire_bytes = 0;
  std::size_t selected = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double threshold = 0.0;
  int stages_used = 1;
  /// Wall-clock seconds spent inside compress() on this process (feeds the
  /// CPU-measured device model).
  double measured_compression_seconds = 0.0;
};

/// Deterministic pricing context for the worker-local autotune controller:
/// turns the worker's own measured wire bytes and compressor state into the
/// modeled comm/compute seconds the controller steers on.  Built by
/// dist::detail::make_worker from the session's TimingContext, so every
/// engine prices the signals with identical arithmetic — which is what keeps
/// simulated/threads/sockets bit-identical under autotuning (no decision
/// ever depends on real clocks or on other workers' state).
struct WorkerAutotuneModel {
  NetworkModel network;
  DeviceModel device;
  core::Scheme scheme = core::Scheme::kNone;
  /// Collective pricing (sparse allgather) vs a single PS-link transfer.
  bool collective = true;
  /// Dimension the timing model is evaluated at (paper scale or proxy).
  std::size_t timing_dim = 0;
  /// Modeled forward/backward seconds per step (TimingContext::base_compute).
  double base_compute = 0.0;
  /// This worker's speed multiplier (straggler / heterogeneous profiles).
  double scale = 1.0;
};

class Worker {
 public:
  /// `model_seed` fixes the replica initialization (identical across workers
  /// of one session) and the dataset; `stream_seed` fixes this worker's
  /// private batch stream and compressor randomness.  A non-empty `initial`
  /// is copied in as the replica's parameters instead of drawing them from
  /// `model_seed` (nn::make_model), which is how a session builds every
  /// replica after its first.
  Worker(nn::Benchmark benchmark, std::uint64_t model_seed,
         std::uint64_t stream_seed, core::Scheme scheme, double target_ratio,
         bool error_feedback, std::span<const float> initial = {});

  /// Arms the per-worker autotune controller: each step() observes its own
  /// modeled comm/compute split (and, in the gof modes, the compressor's
  /// stage-1 fit quality) and retunes the compressor's target ratio for the
  /// next step.  No-op when `config` is off or the scheme is kNone (nothing
  /// to tune).  Must be called before the first step().
  void enable_autotune(const core::AutotuneConfig& config,
                       const WorkerAutotuneModel& model);

  /// Forward/backward on one sampled batch of `batch_size`, then compress.
  WorkerStepResult step(std::size_t batch_size);

  /// Applies the aggregated dense gradient through this worker's optimizer.
  void apply_update(std::span<const float> aggregated_gradient);

  /// Mean loss/accuracy over `batches` deterministic held-out batches.
  [[nodiscard]] nn::LossResult evaluate(std::size_t batch_size,
                                        std::size_t batches);

  /// Overwrites this replica's parameters (a pull from the canonical
  /// parameter-server copy).  Size must equal parameter_count().
  void overwrite_parameters(std::span<const float> params);

  /// Adopts `source`'s replica state: parameters plus optimizer momentum.
  /// What a worker joining a running session mid-stream does so every
  /// replica keeps applying identical updates to identical state (elastic
  /// membership, src/sched).  The error-feedback residual is NOT copied —
  /// residual handoff is a separate policy (overwrite_error_memory).
  void adopt_replica_state(const Worker& source);

  /// Overwrites the error-feedback residual (Algorithm 2's memory): the
  /// residual-handoff half of an elastic join — warm-start from a departed
  /// worker's parked residual, or zero-init with an all-zero span.  Size
  /// must equal parameter_count().
  void overwrite_error_memory(std::span<const float> residual);

  [[nodiscard]] std::span<const float> parameters() const {
    return model_.parameters();
  }

  [[nodiscard]] std::size_t gradient_dimension() const {
    return model_.parameter_count();
  }
  [[nodiscard]] std::span<const float> error_memory() const { return memory_; }
  [[nodiscard]] const nn::Model& model() const { return model_; }

  /// The compressor's current target ratio (moves under autotuning).
  [[nodiscard]] double tuned_ratio() const {
    return compressor_->target_ratio();
  }
  /// The armed controller, or nullptr when autotuning is off.
  [[nodiscard]] const core::AutotuneController* autotune() const {
    return autotune_ ? &*autotune_ : nullptr;
  }

 private:
  nn::Benchmark benchmark_;
  nn::Model model_;
  std::unique_ptr<data::Dataset> dataset_;
  std::unique_ptr<compressors::Compressor> compressor_;
  nn::SgdOptimizer optimizer_;
  util::Rng rng_;
  bool error_feedback_;
  std::vector<float> memory_;       ///< error-feedback residual
  std::vector<float> ec_gradient_;  ///< gradient + residual scratch
  std::vector<float> dlogits_;
  /// Reused across steps so the timed compress_into window measures the
  /// steady-state (allocation-free) kernel path, which is what the
  /// CPU-measured device model extrapolates from.
  compressors::CompressResult compressed_;
  /// Reused wire-encode buffer (encoding sits outside the timed window).
  std::vector<std::uint8_t> encoded_;
  /// Armed together by enable_autotune(); absent in fixed-ratio sessions.
  std::optional<core::AutotuneController> autotune_;
  std::optional<WorkerAutotuneModel> autotune_model_;
};

}  // namespace sidco::dist
