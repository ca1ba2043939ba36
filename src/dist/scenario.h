// Declarative scenario matrix over the distributed runtime.
//
// A matrix spec is a TOML-like text block of `key = value[, value...]` lines;
// multi-valued keys are axes and the matrix is their cartesian product in a
// fixed expansion order, so a spec always produces the same cell sequence.
// Example:
//
//   # scheme x topology x network x staleness smoke matrix
//   workers    = 4
//   iterations = 10
//   seed       = 99
//   benchmark  = resnet20
//   ratio      = 0.01
//   scheme     = topk, dgc, sidco-e
//   topology   = allgather, ps
//   network    = 10gbps, 1gbps@50us
//   device     = homogeneous
//   error_feedback = on
//   staleness  = 0, 2
//   engine     = simulated  # | threads (worker threads) | sockets (processes)
//
// Each cell runs one deterministic run_session() (analytic device model) and
// reports golden-comparable metrics: final loss, quality, mean selected
// fraction, simulated wall-clock, measured bytes-on-wire with the effective
// compression ratio, and the staleness histogram.  Golden files
// are plain text (one cell per line, format_metrics); comparisons apply
// per-field tolerances so behavioral regressions fail while cross-compiler
// floating-point jitter does not.  `tools/run_scenarios --update-golden`
// regenerates the files.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dist/session.h"

namespace sidco::dist {

/// Named fabric profile (axis token like "10gbps" or "1gbps@50us").
struct NetworkProfile {
  std::string name;
  NetworkConfig config;
};

/// Named per-worker speed profile, resolved against the worker count at run
/// time: homogeneous | one-straggler-2x | one-straggler-4x | linear-ramp.
struct DeviceProfile {
  std::string name;
};

/// Named fault-schedule profile (axis token).  "none" is the clean wire;
/// otherwise a '+'-joined list of `kind:probability` terms, e.g.
/// "drop:0.05+dup:0.02" (kinds: drop | delay | dup | reorder | corrupt).
/// The per-cell seed comes from the separate `fault_seed` scalar so one
/// profile can be swept across seeds without rewriting the token.
struct FaultProfile {
  std::string name;
  FaultInjectionConfig config;
};

/// Parses one fault-profile token.  Throws util::CheckError on unknown
/// kinds, malformed probabilities, or a probability sum above 1.
FaultProfile parse_fault_profile(const std::string& token);

/// One elastic-membership event of a fleet tenant (axis token term,
/// `kind@round`): applied at the start of 0-based training round `round`.
/// kLeave removes the highest-index active worker (parking its
/// error-feedback residual; recorded as an Eviction).  kJoin adds a brand-
/// new worker (fresh index, frozen seed derivation).  kRejoin re-activates
/// the most recently departed worker.  Joining workers adopt the current
/// replica state; their residual follows the spec's ResidualHandoff policy.
struct ChurnEvent {
  enum class Kind { kJoin, kLeave, kRejoin };
  Kind kind = Kind::kLeave;
  std::size_t round = 0;
};

/// Named churn schedule (axis token): "none", or '+'-joined ChurnEvent terms
/// in non-decreasing round order, e.g. "leave@2+rejoin@4".
struct ChurnSchedule {
  std::string name = "none";
  std::vector<ChurnEvent> events;
};

/// Parses a churn-schedule token.  Throws util::CheckError on unknown event
/// kinds, malformed rounds, or out-of-order events.  Feasibility against the
/// spec's worker/iteration counts is validated by parse_matrix_spec.
ChurnSchedule parse_churn_schedule(const std::string& token);

/// Statically replays `churn` against a tenant of `workers` workers and
/// `iterations` rounds, so an infeasible schedule (an event past the last
/// round, a leave that would empty the tenant, a rejoin without a departed
/// worker) fails before training with a util::CheckError that names the
/// schedule.  parse_matrix_spec and sched::run_fleet call it.
void validate_churn_feasibility(const ChurnSchedule& churn,
                                std::size_t workers, std::size_t iterations);

/// What a joining worker's error-feedback residual starts from (`handoff =
/// zero | warm`): all zeros, or the most recently parked (departed) residual
/// when one exists — rejoining workers warm-start from their own.
enum class ResidualHandoff { kZeroInit, kWarmStart };

ResidualHandoff parse_residual_handoff(const std::string& token);

/// Resolves a device profile to per-worker time multipliers (empty =
/// homogeneous).  Throws util::CheckError on an unknown profile name.
std::vector<double> resolve_device_profile(const DeviceProfile& profile,
                                           std::size_t workers);

struct MatrixSpec {
  // Scalars (single-valued keys).
  std::size_t workers = 4;
  std::size_t iterations = 10;
  std::size_t eval_every = 0;
  std::size_t eval_batches = 2;
  std::uint64_t seed = 42;
  /// Execution engine for every cell (`engine = simulated | threads |
  /// sockets`).  Every non-simulated cell carries a "/<engine>" name suffix
  /// so each engine is its own golden universe and an overridden engine can
  /// never collide with another engine's goldens.
  Engine engine = Engine::kSimulated;
  /// Bounded-queue capacity for the real engines (`channel_capacity`).
  std::size_t channel_capacity = 8;
  /// Seed for every cell's fault schedule (`fault_seed`); only meaningful
  /// when the `fault` axis has non-"none" entries.
  std::uint64_t fault_seed = 1;
  /// Worker-failure policy for every cell (`failure = failfast | evict`).
  FailurePolicy failure = FailurePolicy::kFailFast;
  /// Session watchdog deadline in seconds (`deadline`); 0 = none.
  double deadline = 0.0;
  /// Controller knobs shared by every autotuned cell: `autotune_min` /
  /// `autotune_max` set the hard ratio bounds, `autotune_gof_poor` /
  /// `autotune_gof_good` the KS thresholds (fit quality is scheme- and
  /// benchmark-dependent, so gof gates are calibrated per spec); the mode
  /// itself is the `autotune` axis below.
  core::AutotuneConfig autotune_base;

  // Axes (multi-valued keys), expanded outermost-first in this order.
  std::vector<nn::Benchmark> benchmarks{nn::Benchmark::kResNet20};
  std::vector<core::Scheme> schemes{core::Scheme::kTopK};
  std::vector<double> ratios{0.01};
  std::vector<Topology> topologies{Topology::kAllreduce};
  std::vector<NetworkProfile> networks{
      {.name = "10gbps", .config = NetworkConfig{}}};
  std::vector<DeviceProfile> devices{{.name = "homogeneous"}};
  std::vector<bool> error_feedback{true};
  std::vector<std::size_t> staleness{0};
  std::vector<std::size_t> chunks{1};
  /// (`fault = none, drop:0.05+dup:0.02, ...`): the seeded fault schedule
  /// injected under the reliable layer.  Non-"none" cells get a "/<token>"
  /// name suffix; they require a real engine (the simulated engine has no
  /// wire to break), which the parser enforces.
  std::vector<FaultProfile> faults{{.name = "none", .config = {}}};
  /// Innermost axis (`autotune = off, bytes, gof, full`): the online
  /// target-ratio controller's mode.  Non-"off" cells get an "/at-<mode>"
  /// name suffix — their own golden universe — while off cells keep their
  /// historical names byte-stable.
  std::vector<core::AutotuneMode> autotune{core::AutotuneMode::kOff};

  // Fleet axes and scalars (multi-tenant scheduling, src/sched).  A spec
  // with a `tenants` key expands every base cell into fleet cells — N
  // concurrent sessions sharing one fair-share link — nested innermost in
  // the order tenants x churn x bandwidth_trace, each named with a
  // "/fleet-t<N>/<churn>/<trace>" suffix so fleet cells are their own golden
  // universe (one golden line per tenant, "<cell>/t<k>").  Fleet specs
  // require the simulated engine, allgather topology, homogeneous devices
  // and overlap_chunks == 1, which the parser enforces.  The remaining
  // fleet keys are rejected without `tenants`.
  /// (`tenants = 1, 2, 4`): concurrent sessions per cell.  Empty = a plain
  /// (non-fleet) spec.
  std::vector<std::size_t> tenants{};
  /// (`churn = none, leave@2+rejoin@4`): elastic-membership schedule,
  /// applied identically to every tenant of the cell.
  std::vector<ChurnSchedule> churn{ChurnSchedule{}};
  /// (`bandwidth_trace = flat, 10x0.5+1x0.5`): shared-link capacity over
  /// simulated time; "flat" uses the cell's network-profile bandwidth.
  std::vector<BandwidthTrace> traces{BandwidthTrace{}};
  /// (`tenant_weights = 1:2:4`): ':'-joined fair-share weights, cycled over
  /// the tenant index.  Empty = equal weights.
  std::vector<double> tenant_weights{};
  /// (`handoff = warm | zero`): joining workers' residual policy.
  ResidualHandoff handoff = ResidualHandoff::kWarmStart;
};

/// Fleet parameters of one expanded cell (present iff the spec had a
/// `tenants` key).  Tenant t runs the cell's SessionConfig with seed
/// `config.seed + t` (distinct data/init streams per tenant) and fair-share
/// weight `weights[t]`.
struct FleetCell {
  std::size_t tenants = 1;
  std::vector<double> weights;  ///< resolved per tenant (size == tenants)
  ChurnSchedule churn;
  BandwidthTrace trace;
  ResidualHandoff handoff = ResidualHandoff::kWarmStart;
};

/// One expanded matrix cell: a stable name plus a ready-to-run config.
/// Fleet cells carry their fleet parameters and must run through the
/// multi-tenant scheduler (sched::run_cell / sched::run_matrix);
/// dist::run_scenario rejects them.
struct Scenario {
  std::string name;
  SessionConfig config;
  std::optional<FleetCell> fleet;
};

/// Parses an engine token ("simulated" | "threads" | "sockets").  Shared by
/// the spec
/// parser and run_scenarios' --engine flag so the token set lives in one
/// place.  Throws util::CheckError on unknown tokens.
Engine parse_engine(const std::string& token);

/// Parses a spec text block.  Unknown keys, empty axes and malformed values
/// throw util::CheckError with the offending line.
MatrixSpec parse_matrix_spec(std::string_view text);

/// Cartesian expansion in the documented axis order.
std::vector<Scenario> expand(const MatrixSpec& spec);

struct ScenarioMetrics {
  std::string name;
  double final_loss = 0.0;
  double final_quality = 0.0;
  double mean_selected_fraction = 0.0;
  double simulated_wall_seconds = 0.0;
  /// Measured bytes-on-wire over the whole session (comm-codec payloads at
  /// the proxy dimension; pushes plus PS pulls).
  std::size_t wire_bytes = 0;
  /// Measured bytes relative to dense-fp32 traffic on the same schedule
  /// (SessionResult::effective_wire_ratio).
  double effective_ratio = 0.0;
  double mean_staleness = 0.0;
  std::vector<std::size_t> staleness_histogram;
  /// Jain's fairness index over the cell's per-tenant mean link shares
  /// (fleet cells only; repeated on every tenant line of the cell).
  /// Negative = not a fleet cell; the field is then neither rendered nor
  /// compared.
  double jain = -1.0;

  /// Real measured wall-clock (threads engine; 0 under the simulated
  /// engine).  Rendered only when format_metrics is asked to include the
  /// measured columns, parsed when present, and never golden-compared —
  /// hardware time is not reproducible.
  double measured_wall_seconds = 0.0;
  double measured_compute_seconds = 0.0;
  double measured_comm_seconds = 0.0;
};

/// Projects a finished session onto golden-comparable metrics under `name`.
/// Shared by run_scenario and the fleet scheduler's per-tenant lines so both
/// report through identical arithmetic.
ScenarioMetrics metrics_from_session(std::string name,
                                     const SessionResult& result);

/// Runs one cell.  Forces the analytic device model so the event timeline —
/// and therefore every metric — is a deterministic function of the spec.
/// Throws util::CheckError on fleet cells: they need the multi-tenant
/// scheduler (sched::run_cell), which this module cannot depend on.
ScenarioMetrics run_scenario(const Scenario& scenario);

/// Runs every cell of the matrix in expansion order.  Rejects fleet specs
/// like run_scenario; sched::run_matrix handles both kinds.
std::vector<ScenarioMetrics> run_matrix(const MatrixSpec& spec);

/// Stable text rendering, one cell per line — the golden-file format.  Equal
/// metric vectors render to byte-identical text (the determinism check).
/// `include_measured` appends the measured-seconds columns (mwall/mcomp/
/// mcomm) for human consumption; golden files and determinism comparisons
/// must leave it off — measured hardware time differs run to run.
std::string format_metrics(std::span<const ScenarioMetrics> metrics,
                           bool include_measured = false);

struct GoldenTolerance {
  double loss_rel = 0.05;
  double quality_abs = 0.05;     ///< quality values are fractions in [0, 1]
  double fraction_rel = 0.10;
  double wall_rel = 0.10;
  /// Measured bytes-on-wire (and effective ratio) may drift with
  /// cross-compiler training jitter, but a >10% regression is a real wire
  /// format / selection change — the CI gate the codec goldens hang off.
  double wire_rel = 0.10;
  double staleness_abs = 0.5;    ///< tolerance on the histogram mean
  /// Jain's index lives in (0, 1]; small drift is training jitter, a larger
  /// move means the fair-share allocation itself changed.
  double jain_abs = 0.02;
};

struct GoldenReport {
  bool ok = true;
  std::vector<std::string> diffs;  ///< human-readable mismatch descriptions
};

/// Compares fresh metrics against golden-file text: the cell sets must match
/// exactly; per-cell fields must agree within `tolerance`.  The total
/// histogram count (gradients applied) must match exactly.
GoldenReport compare_with_golden(std::span<const ScenarioMetrics> metrics,
                                 std::string_view golden_text,
                                 const GoldenTolerance& tolerance = {});

}  // namespace sidco::dist
