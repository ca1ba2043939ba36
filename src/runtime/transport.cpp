#include "runtime/transport.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "runtime/channel.h"
#include "util/check.h"

namespace sidco::runtime {

namespace {

/// How long a blocked send waits for inbox space before re-checking for
/// shutdown and draining its own inbox.  Latency-insensitive: it only bounds
/// how fast a deadlock-avoidance drain cycle spins.
constexpr std::chrono::milliseconds kPushRetry{1};

/// Slice for blocking receives: bounds how often a blocked recv re-checks
/// the watchdog deadline.  Wakeups are rare (an idle endpoint ticks ~10/s)
/// and a message arriving wakes the wait immediately regardless.
constexpr std::chrono::milliseconds kRecvSlice{100};

}  // namespace

std::optional<TransportMessage> Endpoint::recv() {
  for (;;) {
    bool timed_out = false;
    std::optional<TransportMessage> m = recv_for(kRecvSlice, timed_out);
    if (!timed_out) return m;
  }
}

std::optional<std::chrono::steady_clock::time_point> session_deadline(
    const dist::SessionConfig& config) {
  if (config.deadline_seconds <= 0.0) return std::nullopt;
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(
             static_cast<std::int64_t>(config.deadline_seconds * 1000.0));
}

void check_deadline(
    const std::optional<std::chrono::steady_clock::time_point>& deadline,
    const char* where) {
  if (deadline && std::chrono::steady_clock::now() >= *deadline) {
    util::check_fail(std::string("session watchdog deadline exceeded (") +
                     where +
                     " blocked past SessionConfig::deadline_seconds)");
  }
}

class InMemoryTransport::InMemoryEndpoint final : public Endpoint {
 public:
  InMemoryEndpoint(InMemoryTransport& owner, std::size_t capacity)
      : owner_(owner), inbox_(capacity) {}

  bool send(std::size_t to, TransportMessage message) override {
    util::check(to < owner_.endpoints_.size(),
                "transport: send to an unknown endpoint");
    Channel<TransportMessage>& dst = owner_.endpoints_[to]->inbox_;
    // A full destination never blocks this endpoint outright: while waiting
    // for space it keeps draining its own inbox into the pending stash, so
    // a ring of mutually-full capacity-1 inboxes still makes progress (the
    // differential suite sweeps capacity 1).
    while (!dst.try_push_for(message, kPushRetry)) {
      if (dst.closed()) return false;
      check_deadline(deadline_, "in-memory send");
      while (std::optional<TransportMessage> m = inbox_.try_pop()) {
        pending_.push_back(std::move(*m));
      }
    }
    return true;
  }

  std::optional<TransportMessage> recv_for(std::chrono::milliseconds timeout,
                                           bool& timed_out) override {
    timed_out = false;
    if (!pending_.empty()) {
      TransportMessage m = std::move(pending_.front());
      pending_.pop_front();
      return m;
    }
    const auto give_up = std::chrono::steady_clock::now() + timeout;
    // The inbox is looked at before the timeout is checked, so a zero
    // timeout still takes a queued message.
    for (bool looked = false;; looked = true) {
      check_deadline(deadline_, "in-memory recv");
      const auto now = std::chrono::steady_clock::now();
      if (looked && now >= give_up) {
        timed_out = true;
        return std::nullopt;
      }
      const auto remaining = std::max(
          std::chrono::duration_cast<std::chrono::milliseconds>(give_up - now),
          std::chrono::milliseconds(0));
      bool closed_and_drained = false;
      std::optional<TransportMessage> m = inbox_.try_pop_for(
          std::min(remaining, kRecvSlice), closed_and_drained);
      if (m) return m;
      if (closed_and_drained) return std::nullopt;
    }
  }

  /// A peer whose inbox is closed has gone quiet for good (its owner
  /// finished, or the transport shut down).
  [[nodiscard]] LinkState link_state(std::size_t peer) const override {
    util::check(peer < owner_.endpoints_.size(),
                "transport: unknown peer");
    return owner_.endpoints_[peer]->inbox_.closed() ? LinkState::kClosed
                                                    : LinkState::kOpen;
  }

  [[nodiscard]] bool is_shut_down() const override {
    return inbox_.closed();
  }

  void close() { inbox_.close(); }

  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }

 private:
  InMemoryTransport& owner_;
  Channel<TransportMessage> inbox_;
  // Messages drained from the inbox while a send was blocked, served before
  // the channel to preserve arrival order (per-sender FIFO in particular).
  // Only the owning thread touches it — no lock needed.
  std::deque<TransportMessage> pending_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
};

InMemoryTransport::InMemoryTransport(std::size_t endpoints,
                                     std::size_t capacity) {
  util::check(endpoints >= 1, "transport needs >= 1 endpoint");
  endpoints_.reserve(endpoints);
  for (std::size_t i = 0; i < endpoints; ++i) {
    endpoints_.push_back(
        std::make_unique<InMemoryEndpoint>(*this, capacity));
  }
}

InMemoryTransport::~InMemoryTransport() = default;

Endpoint& InMemoryTransport::endpoint(std::size_t id) {
  util::check(id < endpoints_.size(), "transport: unknown endpoint id");
  return *endpoints_[id];
}

void InMemoryTransport::shutdown() {
  for (auto& ep : endpoints_) ep->close();
}

void InMemoryTransport::close_endpoint(std::size_t id) {
  util::check(id < endpoints_.size(), "transport: unknown endpoint id");
  endpoints_[id]->close();
}

void InMemoryTransport::set_deadline(
    std::chrono::steady_clock::time_point deadline) {
  for (auto& ep : endpoints_) ep->set_deadline(deadline);
}

}  // namespace sidco::runtime
