#include "runtime/fault.h"

#include <csignal>
#include <memory>
#include <utility>

#include "util/check.h"

namespace sidco::runtime {

namespace {

/// splitmix64 finalizer: the standard 64-bit avalanche.  Good enough that
/// consecutive (seed, link, index) tuples decorrelate completely, cheap
/// enough to run per message.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Uniform draw in [0,1) from the top 53 bits (exactly representable).
double unit_draw(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// A delayed message is released after this many subsequent sends on its
/// link (a reorder holds for one).
constexpr std::size_t kDelaySlots = 2;

}  // namespace

FaultPlan::FaultPlan(const dist::FaultInjectionConfig& config,
                     std::size_t endpoints)
    : config_(config), endpoints_(endpoints) {
  util::check(endpoints >= 2, "fault plan: need at least two endpoints");
  const double sum = config.drop + config.corrupt + config.duplicate +
                     config.delay + config.reorder;
  util::check(sum <= 1.0 + 1e-9,
              "fault plan: fault probabilities must sum to <= 1");
}

FaultDecision FaultPlan::decide(std::size_t from, std::size_t to,
                                std::uint64_t index) const {
  util::check(from < endpoints_ && to < endpoints_ && from != to,
              "fault plan: link out of range");
  FaultDecision d;

  // Partition dominates everything: once it engages, the link is dead air.
  if (config_.partition_worker != dist::FaultInjectionConfig::kNone &&
      (from == config_.partition_worker || to == config_.partition_worker) &&
      index >= config_.partition_after) {
    d.drop = true;
    return d;
  }

  const std::uint64_t h =
      mix64(mix64(mix64(config_.seed ^ 0x5349444cULL) ^
                  (static_cast<std::uint64_t>(from) << 32 | to)) ^
            index);
  const double u = unit_draw(h);
  d.salt = static_cast<std::uint8_t>(h >> 3);  // independent-ish low bits

  // One draw, partitioned into adjacent ranges: at most one fault fires.
  double edge = config_.drop;
  if (u < edge) {
    d.drop = true;
    return d;
  }
  edge += config_.corrupt;
  if (u < edge) {
    d.corrupt = true;
    return d;
  }
  edge += config_.duplicate;
  if (u < edge) {
    d.duplicate = true;
    return d;
  }
  edge += config_.delay;
  if (u < edge) {
    d.hold = kDelaySlots;
    return d;
  }
  edge += config_.reorder;
  if (u < edge) {
    d.hold = 1;  // swap with the next message on this link
    return d;
  }
  return d;
}

FaultInjectingEndpoint::FaultInjectingEndpoint(Endpoint& inner,
                                               const FaultPlan& plan,
                                               std::size_t self,
                                               std::size_t endpoints)
    : inner_(inner), plan_(plan), self_(self), link_index_(endpoints, 0),
      held_(endpoints) {}

bool FaultInjectingEndpoint::release_due(std::size_t to,
                                         std::uint64_t now_index) {
  std::deque<Held>& q = held_[to];
  while (!q.empty() && q.front().release_at <= now_index) {
    Held h = std::move(q.front());
    q.pop_front();
    if (!inner_.send(h.to, std::move(h.message))) return false;
  }
  return true;
}

bool FaultInjectingEndpoint::send(std::size_t to, TransportMessage message) {
  const std::uint64_t index = link_index_[to]++;
  FaultDecision d = plan_.decide(self_, to, index);

  // Corrupting an empty body is impossible; degrade to clean delivery so the
  // schedule stays well-defined for ack/bye frames.
  if (d.corrupt && message.body_size() == 0) d.corrupt = false;

  if (d.drop) {
    ++counters_.drops;
    // Swallowed by "the network"; from the sender's side that looks exactly
    // like a successful send.  Messages already held keep their schedule.
    return release_due(to, index);
  }
  if (d.hold > 0) {
    if (d.hold == 1) {
      ++counters_.reorders;
    } else {
      ++counters_.delays;
    }
    held_[to].push_back({index + d.hold, to, std::move(message)});
    return release_due(to, index);
  }
  if (d.corrupt) {
    ++counters_.corruptions;
    auto mutated = std::make_shared<std::vector<std::uint8_t>>(
        *message.payload);
    (*mutated)[d.salt % mutated->size()] ^= 0x5a;
    message.payload = std::move(mutated);
  }
  const bool duplicate = d.duplicate;
  TransportMessage copy;
  if (duplicate) {
    ++counters_.duplicates;
    copy = message;  // shares the payload buffer; headers are value types
  }
  if (!inner_.send(to, std::move(message))) return false;
  if (duplicate && !inner_.send(to, std::move(copy))) return false;
  return release_due(to, index);
}

std::optional<TransportMessage> FaultInjectingEndpoint::recv_for(
    std::chrono::milliseconds timeout, bool& timed_out) {
  return inner_.recv_for(timeout, timed_out);
}

void FaultInjectingEndpoint::flush() {
  for (std::size_t to = 0; to < held_.size(); ++to) {
    std::deque<Held>& q = held_[to];
    while (!q.empty()) {
      Held h = std::move(q.front());
      q.pop_front();
      if (!inner_.send(h.to, std::move(h.message))) break;
    }
  }
  inner_.flush();
}

LinkState FaultInjectingEndpoint::link_state(std::size_t peer) const {
  return inner_.link_state(peer);
}

bool FaultInjectingEndpoint::reconnect(std::size_t peer) {
  return inner_.reconnect(peer);
}

bool FaultInjectingEndpoint::is_shut_down() const {
  return inner_.is_shut_down();
}

dist::FaultCounters FaultInjectingEndpoint::counters() const {
  dist::FaultCounters total = counters_;
  total += inner_.counters();
  return total;
}

void maybe_kill_self(const dist::FaultInjectionConfig& config,
                     std::size_t worker, std::size_t round) {
  if (config.kill_worker == worker && config.kill_round == round) {
    // SIGKILL, not exit(): the point is an *unannounced* death — no flush,
    // no kError frame, no atexit — exactly what a machine failure looks
    // like to the survivors.
    ::raise(SIGKILL);
  }
}

}  // namespace sidco::runtime
