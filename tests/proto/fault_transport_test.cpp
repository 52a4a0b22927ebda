// Unit tests for the fault-injecting transport decorator: every fault
// kind behaves as specified over the in-memory channel, the schedule is a
// pure function of the seed, and an injector shared across reconnects
// continues (never replays) its schedule.
#include "proto/fault_transport.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "proto/channel.h"
#include "proto/framing.h"
#include "proto/rpc.h"
#include "support/frame.h"

namespace unify::proto {
namespace {

using test::encode_frame;

FaultProfile only(FaultKind kind, double rate = 1.0) {
  FaultProfile profile;
  switch (kind) {
    case FaultKind::kReset: profile.reset_rate = rate; break;
    case FaultKind::kBlackhole: profile.blackhole_rate = rate; break;
    case FaultKind::kTruncate: profile.truncate_rate = rate; break;
    case FaultKind::kCorrupt: profile.corrupt_rate = rate; break;
    case FaultKind::kNone: break;
  }
  return profile;
}

struct FaultFixture : ::testing::Test {
  /// Wraps the a->b direction; `received` collects what b actually sees.
  std::shared_ptr<FaultTransport> wrap(FaultProfile profile,
                                       std::uint64_t seed = 7) {
    auto [a, b] = make_channel_pair(clock, /*latency_us=*/10);
    ea = a;
    eb = b;
    eb->on_receive([this](std::string_view bytes) {
      received.append(bytes);
    });
    injector = std::make_shared<FaultInjector>(profile, seed);
    return FaultTransport::wrap(a, injector);
  }

  SimClock clock;
  std::shared_ptr<Endpoint> ea, eb;
  std::shared_ptr<FaultInjector> injector;
  std::string received;
};

TEST_F(FaultFixture, CleanProfilePassesBytesThrough) {
  auto faulty = wrap(FaultProfile{});
  ASSERT_TRUE(faulty->send("hello").ok());
  ASSERT_TRUE(faulty->send(" world").ok());
  clock.run_until_idle();
  EXPECT_EQ(received, "hello world");
  EXPECT_EQ(injector->faults_injected(), 0u);
  EXPECT_TRUE(faulty->connected());
}

TEST_F(FaultFixture, ResetSeversTheConnectionAndFailsTheSend) {
  auto faulty = wrap(only(FaultKind::kReset));
  bool closed = false;
  faulty->on_close([&closed] { closed = true; });
  const auto sent = faulty->send("doomed");
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, ErrorCode::kUnavailable);
  clock.run_until_idle();
  EXPECT_TRUE(received.empty());
  EXPECT_FALSE(faulty->connected());
  EXPECT_TRUE(closed);
  // Further sends fail like on any dead transport.
  EXPECT_EQ(faulty->send("more").error().code, ErrorCode::kUnavailable);
}

TEST_F(FaultFixture, BlackholeReportsSuccessAndDropsTheBytes) {
  auto faulty = wrap(only(FaultKind::kBlackhole));
  ASSERT_TRUE(faulty->send("vanishes").ok());
  clock.run_until_idle();
  EXPECT_TRUE(received.empty());
  // The half-open partition: the connection still looks alive.
  EXPECT_TRUE(faulty->connected());
}

TEST_F(FaultFixture, TruncateLeaksAStrictPrefixThenResets) {
  auto faulty = wrap(only(FaultKind::kTruncate));
  const std::string frame = encode_frame("truncate me please");
  const auto sent = faulty->send(frame);
  ASSERT_FALSE(sent.ok());
  clock.run_until_idle();
  EXPECT_LT(received.size(), frame.size());
  EXPECT_EQ(received, frame.substr(0, received.size()));
  EXPECT_FALSE(faulty->connected());
}

TEST_F(FaultFixture, CorruptFlipsExactlyOneByte) {
  auto faulty = wrap(only(FaultKind::kCorrupt));
  const std::string frame = encode_frame("corrupt me");
  ASSERT_TRUE(faulty->send(frame).ok());
  clock.run_until_idle();
  ASSERT_EQ(received.size(), frame.size());
  int flipped = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    if (received[i] != frame[i]) ++flipped;
  }
  EXPECT_EQ(flipped, 1);
  EXPECT_TRUE(faulty->connected());
}

TEST_F(FaultFixture, JitterDelaysButNeverReordersTheStream) {
  FaultProfile profile;
  profile.latency_us = 50;
  profile.jitter_us = 5000;  // huge jitter to force timer-order scrambles
  auto faulty = wrap(profile, /*seed=*/99);
  std::string expected;
  for (int i = 0; i < 32; ++i) {
    const std::string chunk = "frame-" + std::to_string(i) + ";";
    expected += chunk;
    ASSERT_TRUE(faulty->send(chunk).ok());
  }
  clock.run_until_idle();
  EXPECT_EQ(received, expected);
}

TEST(FaultInjectorTest, ScheduleIsAPureFunctionOfTheSeed) {
  FaultProfile profile;
  profile.reset_rate = 0.1;
  profile.blackhole_rate = 0.1;
  profile.truncate_rate = 0.1;
  profile.corrupt_rate = 0.1;
  FaultInjector a(profile, 1234), b(profile, 1234), c(profile, 4321);
  for (int i = 0; i < 500; ++i) {
    (void)a.next_fault();
    (void)b.next_fault();
    (void)c.next_fault();
  }
  EXPECT_EQ(a.schedule(), b.schedule());
  EXPECT_NE(a.schedule(), c.schedule());  // astronomically unlikely to tie
  EXPECT_GT(a.faults_injected(), 0u);
}

TEST(FaultInjectorTest, SharedInjectorContinuesAcrossReconnects) {
  // Two transport incarnations over one injector must consume one schedule
  // in sequence — a reconnect continues the fault pattern, never replays
  // it (else a leading reset would loop forever). Blackholes keep every
  // send alive so each of the six sends draws exactly once.
  FaultProfile profile;
  profile.blackhole_rate = 0.5;
  SimClock clock;
  auto injector = std::make_shared<FaultInjector>(profile, 42);

  std::vector<FaultKind> reference;
  {
    FaultInjector ref(profile, 42);
    for (int i = 0; i < 6; ++i) reference.push_back(ref.next_fault());
  }

  auto [a1, b1] = make_channel_pair(clock, 10);
  auto first = FaultTransport::wrap(a1, injector);
  for (int i = 0; i < 3; ++i) (void)first->send("x");

  auto [a2, b2] = make_channel_pair(clock, 10);
  auto second = FaultTransport::wrap(a2, injector);
  for (int i = 0; i < 3; ++i) (void)second->send("y");

  EXPECT_EQ(injector->schedule(), reference);
}

TEST_F(FaultFixture, SendTriggeredResetDeliversTheOutcomeExactlyOnce) {
  // A reset surfacing inside call()'s own send closes the transport while
  // the call is freshly pending: the outcome must arrive through `done`
  // exactly once, with call() reporting success — a caller counting both
  // channels would tally one failure twice.
  auto faulty = wrap(only(FaultKind::kReset));
  RpcPeer client(faulty, "client");
  int outcomes = 0;
  const auto sent = client.call(
      "echo", json::Value{json::Object{}},
      [&](Result<json::Value> reply) {
        ++outcomes;
        ASSERT_FALSE(reply.ok());
        EXPECT_EQ(reply.error().code, ErrorCode::kUnavailable);
      });
  EXPECT_TRUE(sent.ok());
  EXPECT_EQ(outcomes, 1);
  clock.run_until_idle();
  EXPECT_EQ(outcomes, 1);
  EXPECT_EQ(client.pending_calls(), 0u);
}

TEST_F(FaultFixture, RpcNeverWedgesOnACorruptedFrame) {
  // A corrupted request frame reaches the server as garbage: depending on
  // which byte flips, the server ignores it, answers not_found under a
  // mangled method name, or the framing layer kills the connection. The
  // invariant: the call completes with an error and nothing leaks.
  auto faulty = wrap(only(FaultKind::kCorrupt, 0.99));
  RpcPeer client(faulty, "client");
  RpcPeer server(eb, "server");  // replaces the fixture's receive hook
  auto result = client.call_and_wait("echo", json::Value{json::Object{}},
                                     50'000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(client.pending_calls(), 0u);
}

}  // namespace
}  // namespace unify::proto
