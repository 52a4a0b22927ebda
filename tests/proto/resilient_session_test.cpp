// Unit tests for the survivable session: fail-fast call semantics between
// transports, capped-backoff reconnection through the factory with jitter
// seeded per session name, the single-shot shape without a factory, and
// heartbeat-driven detection of half-open partitions — all over SimClock
// channels so every schedule is deterministic.
#include "proto/resilient_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "proto/channel.h"
#include "proto/fault_transport.h"

namespace unify::proto {
namespace {

json::Value empty_params() { return json::Value{json::Object{}}; }

/// A server end that lives as long as the fixture: each factory call makes
/// a fresh channel pair, parks an echo-serving RpcPeer on the far end and
/// hands the near end to the session.
struct SessionFixture : ::testing::Test {
  ResilientSession::TransportFactory make_factory() {
    return [this]() -> Result<std::shared_ptr<Transport>> {
      ++factory_calls;
      factory_times.push_back(clock.now());
      if (fail_next_connects > 0) {
        --fail_next_connects;
        return Error{ErrorCode::kUnavailable, "refused"};
      }
      auto [a, b] = make_channel_pair(clock, /*latency_us=*/10);
      server_ends.push_back(b);
      auto peer = std::make_unique<RpcPeer>(b, "server");
      peer->on_request("echo", [](const json::Value& params) {
        return Result<json::Value>(params);
      });
      server_peers.push_back(std::move(peer));
      return std::static_pointer_cast<Transport>(a);
    };
  }

  /// Severs the live connection from the server side (RST-style).
  void kill_current_connection() {
    ASSERT_FALSE(server_ends.empty());
    server_ends.back()->disconnect();
  }

  SimClock clock;
  SimDriver driver{clock};
  int factory_calls = 0;
  int fail_next_connects = 0;
  std::vector<SimTime> factory_times;
  std::vector<std::shared_ptr<Endpoint>> server_ends;
  std::vector<std::unique_ptr<RpcPeer>> server_peers;
  std::vector<bool> liveness;  // true = success evidence
};

ResilientSession::LivenessFn collect(std::vector<bool>& into) {
  return [&into](const Result<void>& evidence) {
    into.push_back(evidence.ok());
  };
}

TEST_F(SessionFixture, ConnectsOnConstructionAndEchoes) {
  ResilientSession session("s", driver, make_factory());
  session.on_liveness(collect(liveness));
  ASSERT_TRUE(session.connected());
  EXPECT_EQ(factory_calls, 1);
  auto reply = session.call_and_wait("echo", empty_params(), 100'000);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(session.reconnects(), 0u);
}

TEST_F(SessionFixture, DisconnectFailsInFlightThenReconnects) {
  ResilientSession session("s", driver, make_factory());
  session.on_liveness(collect(liveness));

  // An in-flight call sees kUnavailable when the wire dies — never a
  // silent replay.
  Result<json::Value> outcome = Error{ErrorCode::kInternal, "unset"};
  ASSERT_TRUE(session
                  .call("echo", empty_params(),
                        [&outcome](Result<json::Value> r) {
                          outcome = std::move(r);
                        })
                  .ok());
  kill_current_connection();
  clock.advance(1);  // close + deferred teardown
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kUnavailable);

  // Between transports: fail fast, no queueing.
  auto while_down = session.call_and_wait("echo", empty_params());
  ASSERT_FALSE(while_down.ok());
  EXPECT_EQ(while_down.error().code, ErrorCode::kUnavailable);
  EXPECT_FALSE(session.connected());

  // Backoff elapses, the factory supplies a fresh wire, service resumes.
  clock.advance(2'000'000);
  ASSERT_TRUE(session.connected());
  EXPECT_EQ(session.disconnects(), 1u);
  EXPECT_EQ(session.reconnects(), 1u);
  EXPECT_EQ(factory_calls, 2);
  auto reply = session.call_and_wait("echo", empty_params(), 100'000);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();

  // Liveness evidence: the lost session, then the successful reconnect.
  ASSERT_GE(liveness.size(), 2u);
  EXPECT_FALSE(liveness.front());
  EXPECT_TRUE(liveness.back());
}

TEST_F(SessionFixture, BackoffGrowsUntilTheCap) {
  fail_next_connects = 1'000'000;  // never connects
  ResilientSession session("s", driver, make_factory());
  // Bounded by simulated time: a session never gives up redialing.
  clock.advance(10 * ResilientSession::kBackoffCapUs);

  ASSERT_GE(factory_times.size(), 10u);
  EXPECT_EQ(session.connect_failures(), factory_times.size());
  // Each gap is the capped doubling delay plus at most 20% jitter.
  SimTime base = ResilientSession::kBackoffInitialUs;
  for (std::size_t i = 1; i < factory_times.size(); ++i) {
    const SimTime gap = factory_times[i] - factory_times[i - 1];
    EXPECT_GE(gap, base) << "gap " << i;
    EXPECT_LE(gap, base + base * ResilientSession::kJitterPercent / 100)
        << "gap " << i;
    base = std::min(base * ResilientSession::kBackoffMultiplier,
                    ResilientSession::kBackoffCapUs);
  }
  EXPECT_EQ(base, ResilientSession::kBackoffCapUs);  // the cap was reached

  // Between transports, every call fails fast.
  auto reply = session.call_and_wait("echo", empty_params());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kUnavailable);
}

TEST_F(SessionFixture, JitterIsDeterministicPerName) {
  auto delays_for = [this](const std::string& name) {
    factory_times.clear();
    fail_next_connects = 4;
    const SimTime start = clock.now();
    ResilientSession session(name, driver, make_factory());
    clock.advance(ResilientSession::kBackoffCapUs);
    EXPECT_TRUE(session.connected());
    for (auto& t : factory_times) t -= start;  // the clock keeps running
    return factory_times;
  };
  const auto a = delays_for("s");
  EXPECT_EQ(a.size(), 5u);
  EXPECT_EQ(delays_for("s"), a);
}

TEST_F(SessionFixture, JitterDecorrelatesSessionsThatLoseOnePeer) {
  // Three sessions lose their server together, which then refuses three
  // redials of each: two share a name, one does not.
  struct Dialer {
    std::vector<SimTime> times;
    int refuse = 0;
  };
  std::array<Dialer, 3> dialers;
  auto base = make_factory();
  const auto factory_for = [this, &base](Dialer& dialer) {
    return [this, &base, &dialer]() -> Result<std::shared_ptr<Transport>> {
      dialer.times.push_back(clock.now());
      if (dialer.refuse > 0) {
        --dialer.refuse;
        return Error{ErrorCode::kUnavailable, "refused"};
      }
      return base();
    };
  };
  ResilientSession a("load-0", driver, factory_for(dialers[0]));
  ResilientSession b("load-1", driver, factory_for(dialers[1]));
  ResilientSession c("load-0", driver, factory_for(dialers[2]));
  for (auto& dialer : dialers) dialer.refuse = 3;
  for (const auto& end : server_ends) end->disconnect();
  clock.advance(ResilientSession::kBackoffCapUs);
  for (const ResilientSession* session : {&a, &b, &c}) {
    EXPECT_TRUE(session->connected());
    EXPECT_EQ(session->reconnects(), 1u);
  }
  ASSERT_EQ(dialers[0].times.size(), 5u);
  EXPECT_EQ(dialers[0].times, dialers[2].times);
  // Every one of the four redials of the other name lands elsewhere.
  ASSERT_EQ(dialers[1].times.size(), 5u);
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_NE(dialers[0].times[i], dialers[1].times[i]) << "redial " << i;
  }
}

TEST_F(SessionFixture, ConnectFailuresFeedLivenessThenRecovery) {
  fail_next_connects = 2;
  ResilientSession session("s", driver, make_factory());
  session.on_liveness(collect(liveness));
  clock.advance(5'000'000);
  ASSERT_TRUE(session.connected());
  EXPECT_EQ(session.connect_failures(), 2u);
  EXPECT_EQ(session.reconnects(), 1u);
  // The constructor's first attempt fails before on_liveness is installed;
  // the second failure and the final success must both be visible.
  ASSERT_GE(liveness.size(), 2u);
  EXPECT_FALSE(liveness[liveness.size() - 2]);
  EXPECT_TRUE(liveness.back());
}

TEST_F(SessionFixture, HeartbeatDetectsHalfOpenPartitionAndRecovers) {
  // First incarnation: a blackhole wire — sends vanish, the connection
  // looks alive. Only the heartbeat can notice. Reconnects get clean wires.
  auto base = make_factory();
  FaultProfile blackhole;
  blackhole.blackhole_rate = 1.0;
  auto injector = std::make_shared<FaultInjector>(blackhole, 7);
  bool first = true;
  ResilientSession::TransportFactory factory =
      [&base, &injector, &first]() -> Result<std::shared_ptr<Transport>> {
    auto inner = base();
    if (!inner.ok() || !first) return inner;
    first = false;
    return std::static_pointer_cast<Transport>(
        FaultTransport::wrap(std::move(*inner), injector));
  };

  constexpr SimTime kInterval = ResilientSession::kHeartbeatIntervalUs;
  ResilientSession session("s", driver, std::move(factory));
  session.on_liveness(collect(liveness));
  ASSERT_TRUE(session.connected());

  // 3 intervals of silence + ping timeouts + backoff: bounded advance.
  for (int i = 0; i < 100 && session.reconnects() == 0; ++i) {
    clock.advance(kInterval);
  }
  EXPECT_GE(session.heartbeats_sent(), 3u);
  EXPECT_GE(session.heartbeat_misses(), 3u);
  EXPECT_EQ(session.disconnects(), 1u);
  EXPECT_EQ(session.reconnects(), 1u);
  ASSERT_TRUE(session.connected());

  // Misses produced failure evidence before the close; recovery reported.
  EXPECT_GE(std::count(liveness.begin(), liveness.end(), false), 3);
  EXPECT_TRUE(liveness.back());

  // The clean second wire answers pings natively: further heartbeats keep
  // the session up without another disconnect.
  const auto disconnects_before = session.disconnects();
  for (int i = 0; i < 10; ++i) clock.advance(kInterval);
  EXPECT_GT(session.heartbeats_sent(), session.heartbeat_misses());
  EXPECT_EQ(session.disconnects(), disconnects_before);
  EXPECT_TRUE(session.connected());
}

TEST_F(SessionFixture, HeartbeatSkipsSessionsWithInboundTraffic) {
  ResilientSession session("s", driver, make_factory());
  ASSERT_TRUE(session.connected());
  // The server calls in faster than the heartbeat interval: inbound bytes
  // prove liveness and no ping should ever be spent. The session serves
  // nothing, so each call is answered with an error — still traffic.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(server_peers.back()
                    ->call("nf-status", empty_params(),
                           [](Result<json::Value>) {})
                    .ok());
    clock.advance(ResilientSession::kHeartbeatIntervalUs / 2);
  }
  EXPECT_EQ(session.heartbeats_sent(), 0u);
  EXPECT_TRUE(session.connected());
}

TEST_F(SessionFixture, DisabledReconnectStaysDown) {
  // Without a factory a session is single-shot: it lives and dies with
  // its first transport and arms no timer.
  auto wire = make_factory()();
  ASSERT_TRUE(wire.ok());
  ResilientSession session("s", driver, nullptr, std::move(*wire));
  ASSERT_TRUE(session.connected());
  kill_current_connection();
  clock.run_until_idle();  // bounded: no reconnect or heartbeat timers
  EXPECT_FALSE(session.connected());
  EXPECT_EQ(session.disconnects(), 1u);
  EXPECT_EQ(session.reconnects(), 0u);
  EXPECT_EQ(session.heartbeats_sent(), 0u);
  EXPECT_EQ(factory_calls, 1);
  auto reply = session.call_and_wait("echo", empty_params());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace unify::proto
