#include "sched/scheduler.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "dist/session_detail.h"
#include "dist/worker.h"
#include "sched/fair_share.h"
#include "util/check.h"

namespace sidco::sched {
namespace {

namespace ddetail = dist::detail;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Drain completion slop: alloc * (remaining / alloc) rounds in the last
/// ulp, so "drained" means below a microbyte, not exactly zero.
constexpr double kDrainEpsilonBytes = 1e-6;
/// Epoch budget: orders of magnitude above any sane fleet (rounds x tenants
/// x trace boundaries), so a pathological trace period fails loudly instead
/// of spinning.
constexpr std::size_t kMaxEpochs = 50'000'000;

enum class Phase { kComputing, kDraining, kDone };

/// One tenant's live state on the shared timeline.  The numeric round
/// (steps, aggregation, apply, eval) happens atomically at round start —
/// numerics are time-independent under lock-step allgather — and the phases
/// then advance simulated time: compute+latency-setup until phase_deadline,
/// then a byte drain through the fair-share link.
struct TenantState {
  explicit TenantState(const TenantSpec& spec_in,
                       dist::ResidualHandoff handoff_in)
      : spec(spec_in),
        handoff(handoff_in),
        workers(ddetail::make_workers(spec_in.session)),
        dim(workers.front()->gradient_dimension()),
        timing(ddetail::make_timing(spec_in.session, dim)),
        active(workers.size(), 1) {
    result.session.config = spec.session;
    result.session.gradient_dimension = dim;
  }

  const TenantSpec& spec;
  dist::ResidualHandoff handoff;

  std::vector<std::unique_ptr<dist::Worker>> workers;  ///< by worker id
  std::size_t dim;
  ddetail::TimingContext timing;
  std::vector<char> active;           ///< by worker id
  std::vector<std::size_t> departed;  ///< parked ids, most recent last
  std::size_t next_churn = 0;

  Phase phase = Phase::kComputing;
  std::size_t round = 0;
  double round_start = 0.0;
  double compute_end = 0.0;     ///< communication officially starts here
  double phase_deadline = 0.0;  ///< kComputing: compute + latency-setup end
  double demand_bytes = 0.0;
  double remaining_bytes = 0.0;
  /// Joiners' dense parameter pulls, folded into the next round's drain.
  double pending_pull_bytes = 0.0;

  double drained_bytes = 0.0;
  double drain_time = 0.0;
  std::size_t applied_gradients = 0;

  ddetail::CollectiveRound collective;
  std::vector<dist::Worker*> replicas;  ///< active workers, by id
  std::vector<float> zero_scratch;
  dist::IterationRecord pending_record;

  TenantResult result;
};

std::vector<std::size_t> active_ids(const TenantState& t) {
  std::vector<std::size_t> ids;
  for (std::size_t id = 0; id < t.active.size(); ++id) {
    if (t.active[id]) ids.push_back(id);
  }
  return ids;
}

void validate_tenant(const TenantSpec& tenant) {
  const dist::SessionConfig& c = tenant.session;
  ddetail::validate_config(c);
  util::check(c.engine == dist::Engine::kSimulated,
              "fleet tenants require the simulated engine");
  util::check(c.topology == dist::Topology::kAllreduce,
              "fleet tenants require the allgather topology");
  util::check(c.overlap_chunks == 1,
              "fleet tenants require overlap_chunks == 1");
  util::check(c.worker_time_scale.empty(),
              "fleet tenants require homogeneous workers");
  util::check(!c.fault.any(),
              "fleet tenants cannot inject transport faults");
  util::check(tenant.weight > 0.0, "tenant weight must be positive");
  dist::validate_churn_feasibility(tenant.churn, c.workers, c.iterations);
}

/// Applies every churn event scheduled for the tenant's current round.
void apply_churn(TenantState& t) {
  const auto& events = t.spec.churn.events;
  while (t.next_churn < events.size() &&
         events[t.next_churn].round == t.round) {
    const dist::ChurnEvent& event = events[t.next_churn];
    ++t.next_churn;
    if (event.kind == dist::ChurnEvent::Kind::kLeave) {
      // The highest-index active worker departs; its residual stays parked
      // inside the worker object for a later warm handoff.
      std::size_t id = t.active.size();
      for (std::size_t i = t.active.size(); i-- > 0;) {
        if (t.active[i]) {
          id = i;
          break;
        }
      }
      util::check(id < t.active.size(), "leave with no active worker");
      t.active[id] = 0;
      t.departed.push_back(id);
      t.result.session.evictions.push_back(
          {.worker = id, .round = t.round});
      ++t.result.leaves;
      continue;
    }
    // kJoin / kRejoin: the joiner adopts the current replica state from the
    // lowest-index active worker (any would do — replicas are identical).  A
    // fresh joiner is built from that replica's parameters, not re-seeded.
    const std::vector<std::size_t> ids = active_ids(t);
    util::check(!ids.empty(), "join into an empty tenant");
    const std::size_t source = ids.front();
    std::size_t id = 0;
    if (event.kind == dist::ChurnEvent::Kind::kJoin) {
      id = t.workers.size();
      t.workers.push_back(ddetail::make_worker(
          t.spec.session, id, t.workers[source]->parameters()));
      t.active.push_back(1);
      ++t.result.joins;
    } else {
      util::check(!t.departed.empty(), "rejoin without a departed worker");
      id = t.departed.back();
      t.departed.pop_back();
      t.active[id] = 1;
      ++t.result.rejoins;
    }
    dist::Worker& joiner = *t.workers[id];
    joiner.adopt_replica_state(*t.workers[source]);
    if (t.spec.session.error_feedback) {
      if (t.handoff == dist::ResidualHandoff::kZeroInit) {
        t.zero_scratch.assign(t.dim, 0.0F);
        joiner.overwrite_error_memory(t.zero_scratch);
      } else if (event.kind == dist::ChurnEvent::Kind::kJoin &&
                 !t.departed.empty()) {
        // Warm start: inherit the most recently parked residual.  A
        // rejoining worker already holds its own parked residual; a fresh
        // join with nothing parked starts from the zeros it was built with.
        joiner.overwrite_error_memory(
            t.workers[t.departed.back()]->error_memory());
      }
    }
    // Adopting the replica is a real dense parameter pull over the shared
    // link: charged at ratio 1 and drained with the next round's traffic.
    const std::size_t pull = dist::NetworkModel::dense_bytes(t.dim);
    t.result.session.total_wire_bytes += pull;
    t.result.session.total_dense_equiv_bytes += pull;
    t.pending_pull_bytes += static_cast<double>(
        ddetail::payload_timing_bytes(pull, t.dim, t.timing.timing_dim));
  }
}

/// Runs the numeric round (the same CollectiveRound as run_allreduce, over
/// the active workers in id order, so the eval runs on the lowest active id)
/// and schedules its timing phases.
void start_round(TenantState& t, double now) {
  t.round_start = now;
  apply_churn(t);
  t.replicas.clear();
  for (std::size_t id : active_ids(t)) {
    t.replicas.push_back(t.workers[id].get());
  }
  const std::size_t n = t.replicas.size();
  util::check(n >= 1, "tenant round with no active workers");
  // The record's metric fields (losses, ratio, wire bytes) are exactly the
  // standalone engine's; its timeline fields are overwritten at round end
  // with the shared-link schedule.
  t.pending_record = t.collective.run(t.spec.session, t.timing, t.replicas,
                                      t.round, t.result.session);
  t.applied_gradients += n;

  t.compute_end = now + *std::max_element(t.collective.produce.begin(),
                                          t.collective.produce.end());
  double demand = t.pending_pull_bytes;
  t.pending_pull_bytes = 0.0;
  if (n > 1) {
    const std::size_t bytes = ddetail::mean_push_timing_bytes(
        t.collective.scalars, t.dim, t.timing.timing_dim);
    // Same arithmetic shape as sparse_allgather_seconds' byte term: each
    // worker receives the other n-1 payloads.
    demand += (static_cast<double>(n) - 1.0) * static_cast<double>(bytes);
  }
  t.demand_bytes = demand;
  double setup = 0.0;
  if (demand > 0.0) {
    const double hops = n > 1 ? static_cast<double>(n) - 1.0 : 1.0;
    setup = hops * t.spec.session.network.latency_us * 1e-6;
  }
  t.phase = Phase::kComputing;
  t.phase_deadline = t.compute_end + setup;
}

/// Closes the round's timeline (communication = latency setup + fair-share
/// drain) and either starts the next round or retires the tenant.
void finish_round(TenantState& t, double now) {
  t.pending_record.communication_seconds = now - t.compute_end;
  t.pending_record.modeled_wall_seconds = now - t.round_start;
  t.result.session.iterations.push_back(t.pending_record);
  t.result.session.total_modeled_seconds = now;
  ++t.round;
  if (t.round == t.spec.session.iterations) {
    t.phase = Phase::kDone;
  } else {
    start_round(t, now);
  }
}

}  // namespace

FleetResult run_fleet(const FleetConfig& config) {
  util::check(!config.tenants.empty(), "a fleet needs at least one tenant");
  util::check(config.link_gbps > 0.0, "shared-link gbps must be positive");
  for (const TenantSpec& tenant : config.tenants) validate_tenant(tenant);

  std::vector<std::unique_ptr<TenantState>> tenants;
  tenants.reserve(config.tenants.size());
  for (const TenantSpec& tenant : config.tenants) {
    tenants.push_back(std::make_unique<TenantState>(tenant, config.handoff));
  }
  double now = 0.0;
  for (auto& t : tenants) start_round(*t, now);

  std::vector<LinkDemand> demands(tenants.size());
  std::vector<double> alloc;
  const auto all_done = [&] {
    for (const auto& t : tenants) {
      if (t->phase != Phase::kDone) return false;
    }
    return true;
  };

  for (std::size_t epoch = 0; !all_done(); ++epoch) {
    util::check(epoch < kMaxEpochs,
                "fleet scheduler exceeded its epoch budget (bandwidth-trace "
                "period far below the round timescale?)");
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const TenantState& t = *tenants[i];
      demands[i] = {
          .weight = t.spec.weight,
          .cap_bytes_per_second = t.timing.network.link_bytes_per_second(),
          .active = t.phase == Phase::kDraining};
    }
    const double capacity =
        config.trace.bytes_per_second_at(now, config.link_gbps);
    alloc = weighted_max_min(capacity, demands);

    // Next event: a compute/setup deadline, a drain completion at the
    // current allocation, or a trace boundary (which re-divides the link —
    // only relevant while someone is draining).
    double next = kInf;
    bool any_draining = false;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const TenantState& t = *tenants[i];
      if (t.phase == Phase::kComputing) {
        next = std::min(next, t.phase_deadline);
      } else if (t.phase == Phase::kDraining) {
        any_draining = true;
        if (alloc[i] > 0.0) {
          next = std::min(next, now + t.remaining_bytes / alloc[i]);
        }
      }
    }
    if (any_draining && !config.trace.flat()) {
      next = std::min(next, config.trace.next_boundary_after(now));
    }
    util::check(next < kInf, "fleet scheduler stalled with no next event");

    const double dt = next - now;
    if (dt > 0.0) {
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        TenantState& t = *tenants[i];
        if (t.phase != Phase::kDraining) continue;
        const double drained = alloc[i] * dt;
        t.remaining_bytes -= drained;
        t.drained_bytes += drained;
        t.drain_time += dt;
      }
    }
    now = next;

    for (auto& tp : tenants) {
      TenantState& t = *tp;
      if (t.phase == Phase::kComputing && t.phase_deadline <= now) {
        if (t.demand_bytes > 0.0) {
          t.phase = Phase::kDraining;
          t.remaining_bytes = t.demand_bytes;
        } else {
          finish_round(t, now);
        }
      } else if (t.phase == Phase::kDraining &&
                 t.remaining_bytes <= kDrainEpsilonBytes) {
        finish_round(t, now);
      }
    }
  }

  FleetResult fleet;
  fleet.tenants.reserve(tenants.size());
  std::vector<double> shares;
  for (auto& tp : tenants) {
    TenantState& t = *tp;
    const std::vector<std::size_t> ids = active_ids(t);
    const std::span<const float> params = t.workers[ids.front()]->parameters();
    t.result.session.final_parameters.assign(params.begin(), params.end());
    t.result.session.staleness_histogram.assign(1, t.applied_gradients);
    ddetail::finalize_result(t.result.session);
    t.result.drain_seconds = t.drain_time;
    t.result.mean_share_bytes_per_second =
        t.drain_time > 0.0 ? t.drained_bytes / t.drain_time : 0.0;
    if (t.drain_time > 0.0) {
      shares.push_back(t.result.mean_share_bytes_per_second);
    }
    fleet.makespan_seconds =
        std::max(fleet.makespan_seconds, t.result.session.total_modeled_seconds);
    fleet.tenants.push_back(std::move(t.result));
  }
  fleet.jain_fairness = shares.size() >= 2 ? jain_index(shares) : 1.0;
  return fleet;
}

}  // namespace sidco::sched
