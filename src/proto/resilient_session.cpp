#include "proto/resilient_session.h"

#include <algorithm>
#include <utility>

#include "util/log.h"

namespace unify::proto {

namespace {

/// 64-bit FNV-1a: the same seed for the same name on every toolchain
/// (std::hash promises neither), a different one per name.
std::uint64_t name_seed(const std::string& name) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace

ResilientSession::ResilientSession(std::string name, Driver& driver,
                                   TransportFactory factory,
                                   std::shared_ptr<Transport> initial)
    : name_(std::move(name)),
      driver_(&driver),
      factory_(std::move(factory)),
      jitter_rng_(name_seed(name_)) {
  if (initial != nullptr) {
    adopt(std::move(initial));
  } else if (factory_) {
    attempt_connect();
  }
}

ResilientSession::~ResilientSession() {
  alive_.reset();  // timers and response callbacks go inert
  peer_.reset();
}

Result<void> ResilientSession::call(std::string method, json::Value params,
                                    RpcPeer::ResponseFn done,
                                    SimTime timeout_us) {
  if (peer_ == nullptr) return unavailable();
  return peer_->call(std::move(method), std::move(params), std::move(done),
                     timeout_us);
}

Result<json::Value> ResilientSession::call_and_wait(std::string method,
                                                    json::Value params,
                                                    SimTime timeout_us) {
  if (peer_ == nullptr) return unavailable();
  return peer_->call_and_wait(std::move(method), std::move(params),
                              timeout_us);
}

Error ResilientSession::unavailable() const {
  return Error{ErrorCode::kUnavailable,
               "session " + name_ + (factory_ ? " reconnecting" : " closed")};
}

bool ResilientSession::connected() const noexcept {
  return peer_ != nullptr && peer_->transport().connected();
}

const TransportCounters& ResilientSession::counters() const noexcept {
  counters_scratch_ = folded_counters_;
  if (peer_ != nullptr) {
    const TransportCounters& live = peer_->counters();
    counters_scratch_.messages_sent += live.messages_sent;
    counters_scratch_.bytes_sent += live.bytes_sent;
    counters_scratch_.messages_received += live.messages_received;
    counters_scratch_.bytes_received += live.bytes_received;
  }
  return counters_scratch_;
}

void ResilientSession::adopt(std::shared_ptr<Transport> transport) {
  peer_ = std::make_unique<RpcPeer>(std::move(transport), name_);
  // The disconnect hook runs inside the transport's close callback with
  // the peer mid-teardown; the session reacts one driver tick later, when
  // destroying the peer is safe.
  peer_->on_disconnect([this, weak = std::weak_ptr<char>(alive_)] {
    driver_->schedule(0, [this, weak] {
      if (!weak.expired()) handle_disconnected();
    });
  });
  failed_attempts_ = 0;
  misses_ = 0;
  ping_in_flight_ = false;
  idle_watermark_ = 0;
  schedule_heartbeat();
}

void ResilientSession::discard_peer() {
  if (peer_ == nullptr) return;
  const TransportCounters& dead = peer_->counters();
  folded_counters_.messages_sent += dead.messages_sent;
  folded_counters_.bytes_sent += dead.bytes_sent;
  folded_counters_.messages_received += dead.messages_received;
  folded_counters_.bytes_received += dead.bytes_received;
  peer_.reset();
}

void ResilientSession::handle_disconnected() {
  if (peer_ == nullptr || peer_->transport().connected()) {
    return;  // already handled, or a stale deferred hook
  }
  ++disconnects_;
  discard_peer();
  report(Error{ErrorCode::kUnavailable, "session " + name_ + " lost"});
  schedule_reconnect();
}

void ResilientSession::schedule_reconnect() {
  if (!factory_ || reconnect_pending_) return;
  reconnect_pending_ = true;
  driver_->schedule(next_backoff_delay(),
                    [this, weak = std::weak_ptr<char>(alive_)] {
                      if (weak.expired()) return;
                      reconnect_pending_ = false;
                      attempt_connect();
                    });
}

void ResilientSession::attempt_connect() {
  auto transport = factory_();
  if (!transport.ok()) {
    ++connect_failures_;
    ++failed_attempts_;
    report(transport.error());
    schedule_reconnect();
    return;
  }
  if (disconnects_ + connect_failures_ > 0) ++reconnects_;
  adopt(std::move(*transport));
  report(Result<void>::success());
}

SimTime ResilientSession::next_backoff_delay() {
  // failed_attempts_ == 0 (a lost established session) and == 1 (first
  // retry) both wait the initial delay; growth starts at the second retry.
  SimTime delay = kBackoffInitialUs;
  for (int i = 1; i < failed_attempts_ && delay < kBackoffCapUs; ++i) {
    delay *= kBackoffMultiplier;
  }
  delay = std::min(delay, kBackoffCapUs);
  const auto span = static_cast<std::uint64_t>(delay * kJitterPercent / 100);
  return delay + static_cast<SimTime>(jitter_rng_.next_below(span + 1));
}

void ResilientSession::schedule_heartbeat() {
  if (!factory_ || heartbeat_armed_) return;
  heartbeat_armed_ = true;
  driver_->schedule(kHeartbeatIntervalUs,
                    [this, weak = std::weak_ptr<char>(alive_)] {
                      if (weak.expired()) return;
                      heartbeat_armed_ = false;
                      heartbeat_tick();
                    });
}

void ResilientSession::heartbeat_tick() {
  if (peer_ == nullptr || !peer_->transport().connected()) {
    return;  // the reconnect path re-arms the heartbeat on adopt()
  }
  schedule_heartbeat();
  // Idle detection: inbound bytes since the last tick prove the peer is
  // alive — no ping needed, and any pending miss streak is stale.
  const std::uint64_t seen = peer_->counters().bytes_received;
  if (seen != idle_watermark_) {
    idle_watermark_ = seen;
    misses_ = 0;
    return;
  }
  if (ping_in_flight_) return;  // one probe at a time
  ++heartbeats_sent_;
  ping_in_flight_ = true;
  const auto sent = peer_->call(
      "ping", json::Value{json::Object{}},
      [this, weak = std::weak_ptr<char>(alive_)](Result<json::Value> reply) {
        if (weak.expired()) return;
        ping_in_flight_ = false;
        if (reply.ok()) {
          const bool recovered = misses_ > 0;
          misses_ = 0;
          if (recovered) report(Result<void>::success());
          return;
        }
        ++heartbeat_misses_;
        ++misses_;
        report(Error{ErrorCode::kUnavailable,
                     "session " + name_ + " missed heartbeat " +
                         std::to_string(misses_) + ": " +
                         reply.error().message});
        if (misses_ >= kHeartbeatMissThreshold && peer_ != nullptr) {
          // The peer is silently gone (half-open partition): force the
          // close so the reconnect machinery takes over.
          UNIFY_LOG(kWarn, "proto.session")
              << name_ << ": " << misses_
              << " heartbeats missed, declaring peer dead";
          peer_->transport().disconnect();
        }
      },
      kHeartbeatIntervalUs);
  if (!sent.ok()) {
    // Send failure == the transport just died; the close path handles it.
    ping_in_flight_ = false;
  }
}

void ResilientSession::report(const Result<void>& evidence) {
  if (liveness_) liveness_(evidence);
}

}  // namespace unify::proto
