#include "runtime/reliable.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "comm/frame.h"
#include "util/check.h"

namespace sidco::runtime {

namespace {

/// Envelope body layout (comm::kReliableDataKind):
///   offset size field
///   0      4    fnv1a32 over body[4..] (little-endian)
///   4      1    original message kind
///   5      8    original seq (little-endian)
///   13     -    original payload bytes
constexpr std::size_t kEnvelopeHeader = 13;

/// First reliable sequence number.  Three increments from the top of the
/// 64-bit space, so EVERY session (even a two-message one) drives rseq
/// through wraparound and the serial-arithmetic helpers earn their keep in
/// ordinary runs, not just in a dedicated unit test.
constexpr std::uint64_t kInitialRseq = 0xFFFFFFFFFFFFFFFDULL;

/// Pump slice while blocked with no nearer timer: bounds watchdog-deadline
/// latency (the inner transports check it inside recv_for).
constexpr std::chrono::milliseconds kServiceSlice{100};

/// Bye re-send period during the flush linger.
constexpr std::chrono::milliseconds kByeResend{50};

std::shared_ptr<const std::vector<std::uint8_t>> wrap_envelope(
    const TransportMessage& message) {
  auto body = std::make_shared<std::vector<std::uint8_t>>();
  body->reserve(kEnvelopeHeader + message.body_size());
  comm::put_u32_le(*body, 0);  // crc placeholder
  body->push_back(message.kind);
  comm::put_u64_le(*body, message.seq);
  if (message.payload) {
    body->insert(body->end(), message.payload->begin(),
                 message.payload->end());
  }
  const std::uint32_t crc = comm::fnv1a32(
      std::span<const std::uint8_t>(body->data() + 4, body->size() - 4));
  (*body)[0] = static_cast<std::uint8_t>(crc);
  (*body)[1] = static_cast<std::uint8_t>(crc >> 8);
  (*body)[2] = static_cast<std::uint8_t>(crc >> 16);
  (*body)[3] = static_cast<std::uint8_t>(crc >> 24);
  return body;
}

}  // namespace

bool ReliableEndpoint::SeqLess::operator()(std::uint64_t a,
                                           std::uint64_t b) const {
  return comm::seq_less(a, b);
}

ReliableParams reliable_params_from(const dist::SessionConfig& config,
                                    std::size_t self,
                                    bool deliver_peer_death) {
  const dist::ReliabilityConfig& r = config.reliability;
  ReliableParams p;
  p.self = self;
  p.endpoints = config.workers + 1;
  p.silence_timeout = std::chrono::milliseconds(
      static_cast<std::int64_t>(r.silence_timeout_seconds * 1000.0));
  p.heartbeat_interval = std::chrono::milliseconds(
      static_cast<std::int64_t>(r.heartbeat_interval_seconds * 1000.0));
  p.deliver_peer_death = deliver_peer_death;
  return p;
}

bool reliable_enabled(const dist::SessionConfig& config) {
  return config.reliability.enabled || config.fault.lossy() ||
         config.fault.cut_from != dist::FaultInjectionConfig::kNone;
}

void DecoratedEndpoint::wrap(const dist::SessionConfig& config, std::size_t id,
                             Endpoint& base, bool deliver_peer_death) {
  const std::size_t count = config.workers + 1;
  endpoint_ = &base;
  if (config.fault.lossy()) {
    plan_.emplace(config.fault, count);
    injector_ =
        std::make_unique<FaultInjectingEndpoint>(*endpoint_, *plan_, id, count);
    endpoint_ = injector_.get();
  }
  if (reliable_enabled(config)) {
    reliable_ = std::make_unique<ReliableEndpoint>(
        *endpoint_, reliable_params_from(config, id, deliver_peer_death));
    endpoint_ = reliable_.get();
  }
}

ReliableEndpoint::ReliableEndpoint(Endpoint& inner,
                                   const ReliableParams& params)
    : inner_(inner), params_(params), peers_(params.endpoints) {
  util::check(params.endpoints >= 2 && params.self < params.endpoints,
              "reliable: bad endpoint configuration");
  util::check(params.max_retries >= 1 && params.window >= 1,
              "reliable: retries and window must be >= 1");
  const auto now = Clock::now();
  for (PeerState& p : peers_) {
    p.next_rseq = kInitialRseq;
    p.expected = kInitialRseq;
    p.last_heard = now;
    p.last_beat = now;
  }
}

std::string ReliableEndpoint::peer_name(std::size_t peer) const {
  if (peer + 1 == params_.endpoints) {
    return "remote coordinator (endpoint " + std::to_string(peer) + ")";
  }
  return "remote worker " + std::to_string(peer);
}

void ReliableEndpoint::peer_dead(std::size_t peer, const std::string& why) {
  PeerState& p = peers_[peer];
  if (p.dead) return;
  p.dead = true;
  p.outstanding.clear();
  if (lingering_) return;  // data already acked; departure is clean
  if (params_.deliver_peer_death) {
    if (!p.death_delivered) {
      p.death_delivered = true;
      ready_.push_back({.kind = kPeerDeadKind,
                        .from = peer,
                        .seq = 0,
                        .payload = nullptr});
    }
    return;
  }
  util::check_fail(peer_name(peer) + " failed: " + why);
}

void ReliableEndpoint::touch(std::size_t peer) {
  peers_[peer].last_heard = Clock::now();
}

bool ReliableEndpoint::inner_send(std::size_t peer, TransportMessage frame) {
  if (inner_.send(peer, std::move(frame))) return true;
  // The link (not the transport) failed.  A data frame is in the
  // outstanding window either way, so a successful reconnect re-sends it
  // with the rest of the window.
  if (!inner_.is_shut_down()) link_lost(peer);
  return false;
}

void ReliableEndpoint::link_lost(std::size_t peer) {
  PeerState& p = peers_[peer];
  if (p.dead || p.reconnect_tried) return;  // one attempt per closure
  p.reconnect_tried = true;
  if (inner_.reconnect(peer)) {
    relinked(peer);
  } else {
    peer_dead(peer, "link lost and reconnect failed");
  }
}

void ReliableEndpoint::relinked(std::size_t peer) {
  PeerState& p = peers_[peer];
  p.reconnect_tried = false;
  touch(peer);
  // The new link carries nothing that was in flight on the old one: re-send
  // the whole window now rather than on its retransmit timers, so the
  // retransmission happens (and is counted) before control returns to the
  // protocol body.
  for (auto& [rseq, out] : p.outstanding) {
    ++counters_.retransmits;
    inner_.send(peer, out.envelope);
  }
}

bool ReliableEndpoint::send(std::size_t to, TransportMessage message) {
  util::check(to < params_.endpoints && to != params_.self,
              "reliable: send to an invalid endpoint");
  PeerState& p = peers_[to];
  if (p.dead) {
    // Evict mode keeps the session running after a death; messages to the
    // corpse are quietly absorbed (the protocol body stops addressing it as
    // soon as it processes the kPeerDeadKind notice).
    if (params_.deliver_peer_death) return true;
    return false;
  }
  p.active = true;

  // Window backpressure: bounded frames in flight per link.
  while (p.outstanding.size() >= params_.window && !p.dead) {
    if (!pump(kServiceSlice)) return false;
  }
  if (p.dead) return params_.deliver_peer_death;

  const std::uint64_t rseq = p.next_rseq++;
  TransportMessage envelope{.kind = comm::kReliableDataKind,
                            .from = params_.self,
                            .seq = rseq,
                            .payload = wrap_envelope(message)};
  p.outstanding.emplace(
      rseq, Outstanding{.envelope = envelope,
                        .next_retry = Clock::now() + std::chrono::duration_cast<
                                          Clock::duration>(
                                          params_.backoff_initial),
                        .backoff = params_.backoff_initial,
                        .attempts = 0});
  if (!inner_send(to, std::move(envelope)) && inner_.is_shut_down()) {
    return false;
  }
  // Service incoming traffic opportunistically so a send-heavy phase still
  // acks its peers promptly.
  pump(std::chrono::milliseconds(0));
  return !inner_.is_shut_down();
}

std::optional<TransportMessage> ReliableEndpoint::recv_for(
    std::chrono::milliseconds timeout, bool& timed_out) {
  timed_out = false;
  const auto give_up = Clock::now() + timeout;
  // One pump runs before the timeout is checked, so a zero timeout still
  // receives what the inner endpoint holds.
  for (bool looked = false;; looked = true) {
    if (!ready_.empty()) {
      TransportMessage m = std::move(ready_.front());
      ready_.pop_front();
      return m;
    }
    const auto now = Clock::now();
    if (looked && now >= give_up) {
      timed_out = true;
      return std::nullopt;
    }
    const auto remaining = std::max(
        std::chrono::duration_cast<std::chrono::milliseconds>(give_up - now),
        std::chrono::milliseconds(0));
    if (!pump(std::min(remaining, kServiceSlice)) && ready_.empty()) {
      return std::nullopt;
    }
  }
}

bool ReliableEndpoint::pump(std::chrono::milliseconds max_wait) {
  // Never sleep past the nearest retransmit/heartbeat obligation.
  auto wait = max_wait;
  const auto now = Clock::now();
  for (const PeerState& p : peers_) {
    if (p.dead) continue;
    if (!p.outstanding.empty()) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          p.outstanding.begin()->second.next_retry - now);
      wait = std::clamp(until, std::chrono::milliseconds(0), wait);
    }
    if (p.active) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
          p.last_beat + params_.heartbeat_interval - now);
      wait = std::clamp(until, std::chrono::milliseconds(0), wait);
    }
  }

  bool timed_out = false;
  std::optional<TransportMessage> frame = inner_.recv_for(wait, timed_out);
  if (frame) {
    handle(std::move(*frame));
  } else if (!timed_out) {
    run_timers();
    return false;  // inner transport shut down and drained
  }
  run_timers();
  return true;
}

void ReliableEndpoint::handle(TransportMessage frame) {
  const std::size_t from = frame.from;
  util::check(from < params_.endpoints, "reliable: frame from unknown peer");
  PeerState& p = peers_[from];
  if (p.dead) {
    // Declared dead: the death notice (or the check_fail) already went out,
    // and nothing from this peer may be delivered after it — a late frame
    // jumping the notice would hand the protocol body a message from a
    // worker it has already evicted.
    return;
  }
  p.active = true;
  touch(from);
  switch (frame.kind) {
    case comm::kReliableDataKind:
      handle_envelope(std::move(frame));
      return;
    case comm::kReliableAckKind:
      p.outstanding.erase(frame.seq);
      return;
    case comm::kHeartbeatKind:
      return;  // touch() was the point
    case comm::kByeKind:
      p.byed_in = true;
      return;
    default:
      util::check_fail("reliable: unexpected frame kind " +
                       std::to_string(frame.kind) + " from " +
                       peer_name(from));
  }
}

void ReliableEndpoint::handle_envelope(TransportMessage frame) {
  const std::size_t from = frame.from;
  PeerState& p = peers_[from];
  if (!frame.payload || frame.payload->size() < kEnvelopeHeader) {
    return;  // mangled beyond parsing; retransmission will replace it
  }
  const std::span<const std::uint8_t> body(*frame.payload);
  const std::uint32_t want = comm::get_u32_le(body, 0);
  const std::uint32_t got = comm::fnv1a32(body.subspan(4));
  if (want != got) {
    // Corrupt in flight.  Dropped WITHOUT an ack: to the sender this frame
    // never arrived, and its retransmission delivers the intact original.
    return;
  }
  const std::uint64_t rseq = frame.seq;
  if (rseq == p.expected) {
    TransportMessage m{.kind = body[4],
                       .from = from,
                       .seq = comm::get_u64_le(body, 5),
                       .payload = std::make_shared<const std::vector<
                           std::uint8_t>>(body.begin() + kEnvelopeHeader,
                                          body.end())};
    ready_.push_back(std::move(m));
    ++p.expected;
    deliver_in_order(from);
  } else if (comm::seq_less(p.expected, rseq)) {
    // Future frame: hold for in-order delivery.  Bounded by the sender's
    // window — it cannot have more than `window` frames in flight.
    if (p.reorder.find(rseq) == p.reorder.end()) {
      p.reorder.emplace(
          rseq,
          TransportMessage{
              .kind = body[4],
              .from = from,
              .seq = comm::get_u64_le(body, 5),
              .payload = std::make_shared<const std::vector<std::uint8_t>>(
                  body.begin() + kEnvelopeHeader, body.end())});
    }
  }
  // else: past frame — already delivered; it just needs re-acking.
  //
  // Always ack — even duplicates.  A duplicate usually means our previous
  // ack died on the wire; staying silent would strand the sender in its
  // retransmit loop forever.  The ack goes out AFTER the frame reaches
  // ready_: a failed ack send can declare this very peer dead (reconnect
  // path), and the death notice must never overtake the frame it
  // acknowledges in the delivery queue.
  send_ack(from, rseq);
}

void ReliableEndpoint::deliver_in_order(std::size_t peer) {
  PeerState& p = peers_[peer];
  auto it = p.reorder.find(p.expected);
  while (it != p.reorder.end()) {
    ready_.push_back(std::move(it->second));
    p.reorder.erase(it);
    ++p.expected;
    it = p.reorder.find(p.expected);
  }
}

void ReliableEndpoint::send_ack(std::size_t peer, std::uint64_t rseq) {
  inner_send(peer, {.kind = comm::kReliableAckKind,
                    .from = params_.self,
                    .seq = rseq,
                    .payload = nullptr});
}

void ReliableEndpoint::send_beacon(std::size_t peer, std::uint8_t kind) {
  inner_send(peer, {.kind = kind,
                    .from = params_.self,
                    .seq = 0,
                    .payload = nullptr});
}

void ReliableEndpoint::retransmit_due(std::size_t peer,
                                      Clock::time_point now) {
  PeerState& p = peers_[peer];
  for (auto& [rseq, out] : p.outstanding) {
    if (now < out.next_retry) continue;
    ++out.attempts;
    if (out.attempts > params_.max_retries) {
      // The retry budget alone is not a death verdict: a peer can stop
      // acking for a moment without being gone (e.g. it is blocked in its
      // own reconnect to a third endpoint).  As long as it has been heard
      // from within the silence window, keep retrying at the capped
      // backoff and leave the verdict to the silence watchdog.
      if (now - p.last_heard <= params_.silence_timeout) {
        out.attempts = params_.max_retries;
      } else {
        peer_dead(peer, "no acknowledgement after " +
                            std::to_string(params_.max_retries) +
                            " retransmissions (reliable delivery gave up)");
        return;  // outstanding was cleared (or death delivered); stop here
      }
    }
    ++counters_.retransmits;
    inner_send(peer, out.envelope);
    if (p.dead) return;  // inner_send may have declared death
    out.backoff = std::min(out.backoff * 2.0, params_.backoff_max);
    out.next_retry =
        now + std::chrono::duration_cast<Clock::duration>(out.backoff);
  }
}

void ReliableEndpoint::check_links(Clock::time_point now) {
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (i == params_.self) continue;
    PeerState& p = peers_[i];
    if (!p.active || p.dead) continue;
    if (p.byed_in && p.byed_out) continue;  // link is winding down cleanly
    if (inner_.link_state(i) == LinkState::kClosed) {
      link_lost(i);
      continue;
    }
    if (now - p.last_heard > params_.silence_timeout) {
      peer_dead(i, "silent for over " +
                       std::to_string(params_.silence_timeout.count()) +
                       " ms (no ack, data or heartbeat)");
    }
  }
}

void ReliableEndpoint::run_timers() {
  const auto now = Clock::now();
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (i == params_.self || peers_[i].dead) continue;
    retransmit_due(i, now);
    PeerState& p = peers_[i];
    if (p.active && !p.dead && !(p.byed_in && p.byed_out) &&
        now - p.last_beat >= params_.heartbeat_interval) {
      p.last_beat = now;
      send_beacon(i, comm::kHeartbeatKind);
    }
  }
  // A shut-down transport is the cooperative abort, not a dead link: every
  // in-memory link reads closed then, and recv() reports end of stream.
  if (!inner_.is_shut_down()) check_links(now);
}

bool ReliableEndpoint::linger_settled(const PeerState& p,
                                      Clock::time_point now) const {
  if (p.byed_in || p.dead) return true;
  // A closed link during linger is a clean departure (the peer's data was
  // acked before it sent — or would have sent — its bye), as is prolonged
  // silence: a peer still needing acks would be retransmitting audibly.
  return now - p.last_heard > params_.silence_timeout;
}

void ReliableEndpoint::flush() {
  // Phase 1: drain — every envelope we ever sent must be acked (or the peer
  // declared dead, which in fail-fast mode throws out of pump()).
  for (;;) {
    bool outstanding = false;
    for (const PeerState& p : peers_) {
      if (!p.dead && !p.outstanding.empty()) {
        outstanding = true;
        break;
      }
    }
    if (!outstanding) break;
    if (!pump(kServiceSlice)) return;  // transport torn down under us
  }

  // Phase 2: bye + linger.  Stay on re-acking duty until every active peer
  // has certified (bye) or demonstrated (closed link / silence) that it is
  // done retransmitting at us.  The bye goes again to every live peer, also
  // to one whose own bye already arrived: ours may have been lost, and that
  // peer may still be lingering on it.
  lingering_ = true;
  auto last_bye = Clock::time_point{};  // epoch: send immediately
  for (;;) {
    const auto now = Clock::now();
    bool settled = true;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if (i == params_.self || !peers_[i].active) continue;
      if (!linger_settled(peers_[i], now)) settled = false;
    }
    if (settled) break;
    if (now - last_bye >= kByeResend) {
      last_bye = now;
      for (std::size_t i = 0; i < peers_.size(); ++i) {
        PeerState& p = peers_[i];
        if (i == params_.self || !p.active || p.dead) continue;
        if (inner_.link_state(i) == LinkState::kClosed) continue;
        p.byed_out = true;
        send_beacon(i, comm::kByeKind);
      }
    }
    if (!pump(kByeResend)) break;  // transport torn down: nothing to wait on
  }
  // Parting bye for any peer that settled before our bye reached it (its
  // linger may still be waiting on one); then push everything to the wire.
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    PeerState& p = peers_[i];
    if (i == params_.self || !p.active || p.dead) continue;
    if (inner_.link_state(i) == LinkState::kClosed) continue;
    send_beacon(i, comm::kByeKind);
    p.byed_out = true;
  }
  lingering_ = false;
  inner_.flush();
}

LinkState ReliableEndpoint::link_state(std::size_t peer) const {
  util::check(peer < params_.endpoints, "reliable: unknown peer");
  if (peers_[peer].dead) return LinkState::kClosed;
  return inner_.link_state(peer);
}

bool ReliableEndpoint::is_shut_down() const { return inner_.is_shut_down(); }

dist::FaultCounters ReliableEndpoint::counters() const {
  dist::FaultCounters total = counters_;
  total += inner_.counters();
  return total;
}

}  // namespace sidco::runtime
