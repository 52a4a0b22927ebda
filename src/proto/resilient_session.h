// Survivable control-plane session: RpcPeer + auto-reconnect + heartbeat.
//
// The paper's Unify interface runs over long-lived NETCONF/OpenFlow-style
// sessions, and the recursive architecture only works if a parent RO
// tolerates a child domain's control channel flapping. A bare RpcPeer dies
// with its transport; ResilientSession owns the peer *and* the policy that
// brings it back (DESIGN.md §14). The factory is the policy: a session
// built with one redials and heartbeats, a session built without one is
// single-shot and dies with its first transport.
//
//   - Disconnect detection: the transport close fails every in-flight call
//     with kUnavailable — never a silent retry, because edit-config is not
//     idempotent from the wire's point of view. Callers see a transient
//     kUnavailable and their own retry/dirty-tracking machinery (push
//     retries + epoch/nffg_hash resync) makes the re-push cheap and exact.
//   - Reconnect: capped exponential backoff with jitter seeded from the
//     session's name, scheduled on the session's Driver; it never gives
//     up. Counters aggregate across incarnations.
//   - Heartbeat: driver-scheduled keepalive pings on idle sessions. Every
//     missed ping (and every disconnect / failed connect) is reported
//     through the liveness hook; a miss-threshold trip force-closes the
//     transport so the reconnect path takes over. Wired to a
//     HealthManager, a silently partitioned domain trips its breaker in
//     O(heartbeat interval) instead of O(push deadline). The heartbeat
//     timer keeps a SimClock non-idle for as long as the session lives.
//
// Threading: like everything over a transport, a session belongs to its
// driver's single-threaded execution domain.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "proto/rpc.h"
#include "proto/transport.h"
#include "util/rng.h"

namespace unify::proto {

class ResilientSession {
 public:
  /// The first retry waits kBackoffInitialUs, each later one
  /// kBackoffMultiplier times the last, up to kBackoffCapUs; a uniform
  /// jitter of up to kJitterPercent of the delay is added on top, so
  /// sessions that lose one peer together do not redial in lockstep.
  static constexpr SimTime kBackoffInitialUs = 10'000;
  static constexpr SimTime kBackoffMultiplier = 2;
  static constexpr SimTime kBackoffCapUs = 1'000'000;
  static constexpr SimTime kJitterPercent = 20;
  /// Keepalive period on an idle session, and the deadline of each ping.
  static constexpr SimTime kHeartbeatIntervalUs = 1'000'000;
  /// Consecutive missed pings that declare the peer dead (the transport is
  /// force-closed and the reconnect path takes over).
  static constexpr int kHeartbeatMissThreshold = 3;

  /// Produces a fresh connected transport on the session's driver. Called
  /// once per (re)connect attempt.
  using TransportFactory =
      std::function<Result<std::shared_ptr<Transport>>()>;
  /// Liveness evidence stream: success() for a (re)connect or a heartbeat
  /// ack that cleared misses, an error for every disconnect, failed
  /// connect attempt and missed ping. Feed it to
  /// ResourceOrchestrator::note_domain_liveness to drive the breaker.
  using LivenessFn = std::function<void(const Result<void>&)>;

  /// With a `factory`, connects through it immediately (unless `initial`
  /// supplies the first transport), redials after every loss and runs the
  /// heartbeat; a failed first attempt enters the backoff loop like any
  /// later one. Without one, the session lives and dies with `initial`.
  /// `driver` is the timer home for backoff and heartbeat and must be the
  /// driver of every transport the session uses.
  ResilientSession(std::string name, Driver& driver, TransportFactory factory,
                   std::shared_ptr<Transport> initial = nullptr);
  ~ResilientSession();
  ResilientSession(const ResilientSession&) = delete;
  ResilientSession& operator=(const ResilientSession&) = delete;

  void on_liveness(LivenessFn fn) { liveness_ = std::move(fn); }

  /// RpcPeer::call while connected; fails fast with kUnavailable while the
  /// session is between transports (callers retry on their own schedule —
  /// a resilient session never replays a request itself).
  Result<void> call(std::string method, json::Value params,
                    RpcPeer::ResponseFn done, SimTime timeout_us = 0);
  Result<json::Value> call_and_wait(std::string method, json::Value params,
                                    SimTime timeout_us = 0);

  [[nodiscard]] bool connected() const noexcept;
  /// The live peer, or nullptr between transports.
  [[nodiscard]] RpcPeer* peer() noexcept { return peer_.get(); }
  [[nodiscard]] const RpcPeer* peer() const noexcept { return peer_.get(); }
  [[nodiscard]] Driver& driver() noexcept { return *driver_; }

  /// Aggregated over every transport incarnation of this session.
  [[nodiscard]] const TransportCounters& counters() const noexcept;

  [[nodiscard]] std::uint64_t disconnects() const noexcept {
    return disconnects_;
  }
  [[nodiscard]] std::uint64_t reconnects() const noexcept {
    return reconnects_;
  }
  [[nodiscard]] std::uint64_t connect_failures() const noexcept {
    return connect_failures_;
  }
  [[nodiscard]] std::uint64_t heartbeats_sent() const noexcept {
    return heartbeats_sent_;
  }
  [[nodiscard]] std::uint64_t heartbeat_misses() const noexcept {
    return heartbeat_misses_;
  }
  /// A heartbeat ping awaits its answer: the one call of the live peer's
  /// pending_calls() that the session made itself.
  [[nodiscard]] bool ping_in_flight() const noexcept {
    return ping_in_flight_;
  }

 private:
  [[nodiscard]] Error unavailable() const;
  void adopt(std::shared_ptr<Transport> transport);
  /// Folds the dying peer's counters and destroys it. Safe only outside
  /// the peer's own callbacks (disconnects defer here via the driver).
  void discard_peer();
  void handle_disconnected();
  void schedule_reconnect();
  void attempt_connect();
  [[nodiscard]] SimTime next_backoff_delay();
  void schedule_heartbeat();
  void heartbeat_tick();
  void report(const Result<void>& evidence);

  std::string name_;
  Driver* driver_;
  TransportFactory factory_;
  std::unique_ptr<RpcPeer> peer_;
  LivenessFn liveness_;
  Rng jitter_rng_;
  /// Deferred-teardown / timer guard: timers and callbacks hold a weak ref
  /// and go inert once the session is destroyed.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);

  bool reconnect_pending_ = false;
  int failed_attempts_ = 0;  ///< consecutive, reset by any success

  bool heartbeat_armed_ = false;
  bool ping_in_flight_ = false;
  int misses_ = 0;
  std::uint64_t idle_watermark_ = 0;  ///< bytes_received at the last tick

  /// Counters of completed transport incarnations; counters() adds the
  /// live peer's on top.
  TransportCounters folded_counters_;
  mutable TransportCounters counters_scratch_;

  std::uint64_t disconnects_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t connect_failures_ = 0;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t heartbeat_misses_ = 0;
};

}  // namespace unify::proto
