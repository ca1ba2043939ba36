// Deterministic fault injection for the real execution engines.
//
// The chaos harness has one job: make the transport misbehave in every way a
// real network can — drop, delay, duplicate, reorder, corrupt, partition —
// while staying *exactly reproducible*.  Reproducibility is what turns
// "flaky network test" into a differential test: the same
// (seed, link, message index) always yields the same fault, independent of
// thread scheduling, wall-clock time, or how many times the run is repeated,
// so a failure seed pasted into a local run replays the identical schedule.
//
// Mechanism: FaultPlan::decide is a pure function of (seed, from, to, index)
// where `index` counts sends on that directed link.  A splitmix64-style hash
// of those four values yields one uniform draw in [0,1), partitioned into
// [drop | corrupt | duplicate | delay | reorder | none] ranges by the
// configured probabilities — at most ONE fault per message, and the config
// validator enforces that the probabilities sum to <= 1.
//
// FaultInjectingEndpoint is a decorator over any Endpoint.  It sits *under*
// the reliable-delivery layer (runtime/reliable.h):
//
//     protocol body -> ReliableEndpoint -> FaultInjectingEndpoint -> fabric
//
// so faults hit the reliable layer's envelopes, acks and heartbeats exactly
// as a lossy wire would, and the reliable layer earns its keep by repairing
// them.  "Delay" and "reorder" are expressed in *slots*, not seconds: a
// delayed message is released after two subsequent sends on the same link, a
// reordered one after one (or at flush()), which keeps the schedule
// deterministic and the tests fast — a slot reorder exercises the same
// receiver logic as a 100 ms one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "dist/session.h"
#include "runtime/transport.h"

namespace sidco::runtime {

/// What happens to one message.  At most one of drop/corrupt/duplicate/hold
/// is active (single partitioned draw).
struct FaultDecision {
  bool drop = false;
  bool corrupt = false;
  bool duplicate = false;
  std::size_t hold = 0;  ///< release after this many subsequent sends; 0 = now
  std::uint8_t salt = 0;  ///< corruption byte-flip position source
};

/// The full deterministic schedule, derived from the session's fault config.
/// Stateless: decide() may be called from any thread, in any order.
class FaultPlan {
 public:
  FaultPlan(const dist::FaultInjectionConfig& config, std::size_t endpoints);

  /// The fault for the `index`-th message sent on directed link from->to.
  [[nodiscard]] FaultDecision decide(std::size_t from, std::size_t to,
                                     std::uint64_t index) const;

  [[nodiscard]] const dist::FaultInjectionConfig& config() const {
    return config_;
  }

 private:
  dist::FaultInjectionConfig config_;
  std::size_t endpoints_;
};

/// Decorator that applies a FaultPlan to every outgoing message of one
/// endpoint.  Faults are injected on the *send* side only (both directions of
/// a link are still covered: each side decorates its own sends).  Reads pass
/// straight through.  Single-owner, like every Endpoint.
class FaultInjectingEndpoint final : public Endpoint {
 public:
  FaultInjectingEndpoint(Endpoint& inner, const FaultPlan& plan,
                         std::size_t self, std::size_t endpoints);

  bool send(std::size_t to, TransportMessage message) override;
  std::optional<TransportMessage> recv_for(std::chrono::milliseconds timeout,
                                           bool& timed_out) override;

  /// Releases every held (delayed/reordered) message, then flushes the inner
  /// endpoint — held frames must not outlive the session tail.
  void flush() override;

  [[nodiscard]] LinkState link_state(std::size_t peer) const override;
  bool reconnect(std::size_t peer) override;
  [[nodiscard]] bool is_shut_down() const override;

  /// This decorator's injection counters plus everything the inner endpoint
  /// counted (retransmits, reconnects, ...).
  [[nodiscard]] dist::FaultCounters counters() const override;

 private:
  struct Held {
    std::uint64_t release_at;  ///< link send index at/after which to release
    std::size_t to;
    TransportMessage message;
  };

  /// Sends every held message for `to` whose release index has arrived.
  bool release_due(std::size_t to, std::uint64_t now_index);

  Endpoint& inner_;
  const FaultPlan& plan_;
  std::size_t self_;
  std::vector<std::uint64_t> link_index_;  ///< sends so far, per destination
  std::vector<std::deque<Held>> held_;     ///< held messages, per destination
  dist::FaultCounters counters_;
};

/// Worker-crash chaos knob: SIGKILLs the calling process when this worker is
/// configured to die at this round.  Called at the top of every worker round
/// by the topology bodies; a no-op unless the config names this worker.
/// Process-engine only (SIGKILLing a thread would take the whole session
/// down) — validation enforces kill_worker => kSockets.
void maybe_kill_self(const dist::FaultInjectionConfig& config,
                     std::size_t worker, std::size_t round);

}  // namespace sidco::runtime
