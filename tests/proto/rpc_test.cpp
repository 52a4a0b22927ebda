#include "proto/rpc.h"

#include <gtest/gtest.h>

#include "proto/channel.h"
#include "support/frame.h"

namespace unify::proto {
namespace {

using test::encode_frame;

struct RpcFixture : ::testing::Test {
  void SetUp() override {
    auto [a, b] = make_channel_pair(clock, 100);
    ea = a;
    eb = b;
    client = std::make_unique<RpcPeer>(a, "client");
    server = std::make_unique<RpcPeer>(b, "server");
  }
  SimClock clock;
  std::shared_ptr<Endpoint> ea, eb;
  std::unique_ptr<RpcPeer> client;
  std::unique_ptr<RpcPeer> server;
};

TEST_F(RpcFixture, RequestResponse) {
  server->on_request("echo", [](const json::Value& params) {
    return Result<json::Value>{params};
  });
  json::Object params;
  params.set("x", 42);
  auto result = client->call_and_wait("echo", json::Value{std::move(params)});
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->get_int("x"), 42);
  EXPECT_EQ(server->requests_handled(), 1u);
}

TEST_F(RpcFixture, ServerErrorPropagates) {
  server->on_request("fail", [](const json::Value&) -> Result<json::Value> {
    return Error{ErrorCode::kRejected, "nope"};
  });
  auto result = client->call_and_wait("fail", json::Value{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kRejected);
  EXPECT_EQ(result.error().message, "nope");
}

TEST_F(RpcFixture, EveryErrorCodeAndItsCausesSurviveTheWire) {
  // Codes travel by name, so each one must decode to itself; the causes of
  // a partly applied call travel with it, element by element.
  for (std::size_t i = 0; i < kErrorCodeNames.size(); ++i) {
    const auto code = static_cast<ErrorCode>(i);
    const Error sent{code,
                     "failed with " + std::string(kErrorCodeNames[i]),
                     {{"svc.nat0", code, "placed nowhere"},
                      {"svc.e2e", ErrorCode::kInfeasible, "too slow"}}};
    server->on_request("fail", [sent](const json::Value&)
                                   -> Result<json::Value> { return sent; });
    auto result = client->call_and_wait("fail", json::Value{});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error(), sent) << kErrorCodeNames[i];
  }
}

TEST_F(RpcFixture, UnknownMethodIsNotFound) {
  auto result = client->call_and_wait("missing", json::Value{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
}

TEST_F(RpcFixture, TimeoutFiresAgainstMuteServer) {
  // The server peer dies but its endpoint stays up: requests reach a
  // transport nobody reads from, so only the deadline can end the call.
  server.reset();
  auto result = client->call_and_wait("echo", json::Value{}, 5000);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kTimeout);
}

TEST_F(RpcFixture, ZeroTimeoutMeansNoTimeout) {
  // timeout_us = 0 never arms a deadline: against a mute server the call
  // stays open until the driver goes idle — kUnavailable, not kTimeout.
  server.reset();
  auto result = client->call_and_wait("echo", json::Value{}, 0);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
}

TEST_F(RpcFixture, CallOnDisconnectedTransportFailsFast) {
  // The satellite contract: a send status instead of a silent drop.
  eb.reset();
  server.reset();
  bool done_fired = false;
  const auto sent = client->call(
      "echo", json::Value{},
      [&done_fired](Result<json::Value>) { done_fired = true; }, 5000);
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, ErrorCode::kUnavailable);
  clock.run_until_idle();
  EXPECT_FALSE(done_fired);  // send failed => done never fires

  const auto notified = client->notify("status", json::Value{});
  ASSERT_FALSE(notified.ok());
  EXPECT_EQ(notified.error().code, ErrorCode::kUnavailable);
}

TEST_F(RpcFixture, PendingCallsFailWhenTransportCloses) {
  std::optional<Result<json::Value>> slot;
  ASSERT_TRUE(client
                  ->call("echo", json::Value{},
                         [&slot](Result<json::Value> r) { slot = std::move(r); })
                  .ok());
  ea->disconnect();
  ASSERT_TRUE(slot.has_value());
  ASSERT_FALSE(slot->ok());
  EXPECT_EQ(slot->error().code, ErrorCode::kUnavailable);
}

TEST_F(RpcFixture, DisconnectHookFiresAfterPendingCleanup) {
  bool hook_fired = false;
  bool pending_failed = false;
  client->on_disconnect([&] {
    hook_fired = true;
    EXPECT_TRUE(pending_failed);  // pendings settle before the hook
  });
  ASSERT_TRUE(client
                  ->call("echo", json::Value{},
                         [&pending_failed](Result<json::Value> r) {
                           pending_failed = !r.ok();
                         })
                  .ok());
  ea->disconnect();
  EXPECT_TRUE(hook_fired);
}

TEST_F(RpcFixture, ResponseBeatsTimeout) {
  server->on_request("quick", [](const json::Value&) {
    return Result<json::Value>{json::Value{"ok"}};
  });
  auto result = client->call_and_wait("quick", json::Value{}, 100000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->as_string(), "ok");
  // The still-pending timeout timer must be harmless.
  clock.run_until_idle();
}

TEST_F(RpcFixture, ConcurrentCallsMatchedById) {
  server->on_request("add", [](const json::Value& params) {
    json::Object out;
    out.set("sum", params.get_number("a") + params.get_number("b"));
    return Result<json::Value>{json::Value{std::move(out)}};
  });
  std::vector<double> sums(3, -1);
  for (int i = 0; i < 3; ++i) {
    json::Object params;
    params.set("a", i);
    params.set("b", 10);
    ASSERT_TRUE(client
                    ->call("add", json::Value{std::move(params)},
                           [&sums, i](Result<json::Value> result) {
                             ASSERT_TRUE(result.ok());
                             sums[static_cast<std::size_t>(i)] =
                                 result->get_number("sum");
                           })
                    .ok());
  }
  clock.run_until_idle();
  EXPECT_EQ(sums, (std::vector<double>{10, 11, 12}));
}

TEST_F(RpcFixture, NotificationsDispatch) {
  int count = 0;
  std::string last;
  server->on_notification("status", [&](const json::Value& params) {
    ++count;
    last = params.get_string("state");
  });
  json::Object params;
  params.set("state", "running");
  ASSERT_TRUE(client->notify("status", json::Value{std::move(params)}).ok());
  clock.run_until_idle();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(last, "running");
  EXPECT_EQ(server->requests_handled(), 0u);  // notifications aren't requests
}

TEST_F(RpcFixture, BidirectionalCalls) {
  server->on_request("down", [](const json::Value&) {
    return Result<json::Value>{json::Value{1}};
  });
  client->on_request("up", [](const json::Value&) {
    return Result<json::Value>{json::Value{2}};
  });
  auto down = client->call_and_wait("down", json::Value{});
  auto up = server->call_and_wait("up", json::Value{});
  ASSERT_TRUE(down.ok());
  ASSERT_TRUE(up.ok());
  EXPECT_EQ(down->as_int(), 1);
  EXPECT_EQ(up->as_int(), 2);
}

TEST_F(RpcFixture, LargeParamsSurviveFragmentation) {
  // Rebuild the channel with tiny chunks to stress framing reassembly.
  auto [a, b] = make_channel_pair(clock, 10, 7);
  client = std::make_unique<RpcPeer>(a, "client");
  server = std::make_unique<RpcPeer>(b, "server");
  server->on_request("len", [](const json::Value& params) {
    return Result<json::Value>{
        json::Value{params.get_string("blob").size()}};
  });
  json::Object params;
  params.set("blob", std::string(10000, 'z'));
  auto result = client->call_and_wait("len", json::Value{std::move(params)});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->as_int(), 10000);
}

TEST_F(RpcFixture, HandlerCanCallBack) {
  // Server handler performing a nested call to the client (recursion
  // across layers, as the RO does towards domains).
  client->on_request("leaf", [](const json::Value&) {
    return Result<json::Value>{json::Value{"leaf-data"}};
  });
  server->on_request("root", [this](const json::Value&) -> Result<json::Value> {
    // Nested call: must not deadlock the single-threaded simulation.
    return server->call_and_wait("leaf", json::Value{});
  });
  auto result = client->call_and_wait("root", json::Value{});
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->as_string(), "leaf-data");
}

// ---------------------------------------------------------------------------
// Malformed-input battery: a hostile or buggy peer writes raw frames at an
// RpcPeer. Every case must leave the peer healthy (subsequent well-formed
// RPCs still work) and be observable via protocol_errors().

struct MalformedFixture : RpcFixture {
  void SetUp() override {
    RpcFixture::SetUp();
    server->on_request("echo", [](const json::Value& params) {
      return Result<json::Value>{params};
    });
    // The attacker speaks raw bytes on the client's endpoint; the client
    // RpcPeer is detached so nothing interprets replies sent back north.
    client.reset();
    attacker = ea;
    attacker->on_receive([this](std::string_view bytes) {
      std::vector<std::string> frames;
      ASSERT_TRUE(attacker_decoder.feed(bytes, frames).ok());
      for (auto& f : frames) replies.push_back(std::move(f));
    });
  }

  void inject(std::string_view payload) {
    ASSERT_TRUE(attacker->send(encode_frame(payload)).ok());
    clock.run_until_idle();
  }

  /// The peer must still answer well-formed traffic after the abuse.
  void expect_still_healthy() {
    const std::size_t before = replies.size();
    inject(R"({"id": 777, "method": "echo", "params": {"ok": true}})");
    ASSERT_EQ(replies.size(), before + 1);
    const auto parsed = json::parse(replies.back());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->get_int("id"), 777);
    EXPECT_NE(parsed->get("result"), nullptr);
  }

  std::shared_ptr<Endpoint> attacker;
  FrameDecoder attacker_decoder;
  std::vector<std::string> replies;
};

TEST_F(MalformedFixture, BadJsonFrameIsCountedAndSkipped) {
  inject("{not json at all");
  EXPECT_EQ(server->protocol_errors(), 1u);
  EXPECT_TRUE(replies.empty());
  expect_still_healthy();
}

TEST_F(MalformedFixture, NonObjectFrameIsIgnored) {
  inject("42");
  inject(R"(["an", "array"])");
  EXPECT_EQ(server->protocol_errors(), 2u);
  EXPECT_TRUE(replies.empty());
  expect_still_healthy();
}

TEST_F(MalformedFixture, MissingIdAndMethodIsIgnored) {
  inject(R"({"params": {"x": 1}})");
  EXPECT_EQ(server->protocol_errors(), 1u);
  EXPECT_TRUE(replies.empty());
  expect_still_healthy();
}

TEST_F(MalformedFixture, NonStringMethodGetsProtocolErrorReply) {
  inject(R"({"id": 5, "method": 12, "params": {}})");
  EXPECT_EQ(server->protocol_errors(), 1u);
  ASSERT_EQ(replies.size(), 1u);
  const auto parsed = json::parse(replies.front());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->get_int("id"), 5);
  const json::Value* error = parsed->get("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->get_string("code"), "protocol");
  expect_still_healthy();
}

TEST_F(MalformedFixture, NonStringMethodWithoutIdIsIgnored) {
  inject(R"({"method": false})");
  EXPECT_EQ(server->protocol_errors(), 1u);
  EXPECT_TRUE(replies.empty());
  expect_still_healthy();
}

TEST_F(MalformedFixture, UnknownMethodGetsErrorReply) {
  inject(R"({"id": 9, "method": "no-such-method"})");
  EXPECT_EQ(server->protocol_errors(), 0u);  // well-formed, just unknown
  ASSERT_EQ(replies.size(), 1u);
  const auto parsed = json::parse(replies.front());
  ASSERT_TRUE(parsed.ok());
  const json::Value* error = parsed->get("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->get_string("code"), "not_found");
  expect_still_healthy();
}

TEST_F(MalformedFixture, ResponseForUnknownIdIsIgnored) {
  inject(R"({"id": 424242, "result": {"made": "up"}})");
  EXPECT_EQ(server->protocol_errors(), 1u);
  EXPECT_TRUE(replies.empty());
  expect_still_healthy();
}

TEST_F(MalformedFixture, DuplicateResponseIdFiresDoneOnce) {
  // The server issues a call south; the attacker answers twice.
  int fired = 0;
  std::string got;
  ASSERT_TRUE(server
                  ->call("probe", json::Value{},
                         [&](Result<json::Value> r) {
                           ++fired;
                           ASSERT_TRUE(r.ok());
                           got = r->as_string();
                         })
                  .ok());
  clock.run_until_idle();
  inject(R"({"id": 1, "result": "first"})");
  inject(R"({"id": 1, "result": "second"})");
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(got, "first");
  EXPECT_EQ(server->protocol_errors(), 1u);  // the duplicate
  expect_still_healthy();
}

TEST_F(MalformedFixture, FractionalResponseIdCompletesNoCall) {
  // id 1.5 names no call; it must not be truncated onto pending call 1.
  int fired = 0;
  std::string got;
  ASSERT_TRUE(server
                  ->call("probe", json::Value{},
                         [&](Result<json::Value> r) {
                           ++fired;
                           ASSERT_TRUE(r.ok());
                           got = r->as_string();
                         })
                  .ok());
  clock.run_until_idle();
  inject(R"({"id": 1.5, "result": "forged"})");
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(server->protocol_errors(), 1u);
  EXPECT_EQ(server->pending_calls(), 1u);
  inject(R"({"id": 1, "result": "real"})");
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(got, "real");
  EXPECT_EQ(server->protocol_errors(), 1u);
  expect_still_healthy();
}

TEST_F(MalformedFixture, HugeResponseIdsAreProtocolErrors) {
  // Ids beyond +-2^53 (or beyond double range) are not call ids; reading
  // them must stay defined and complete nothing.
  int fired = 0;
  ASSERT_TRUE(server
                  ->call("probe", json::Value{},
                         [&](Result<json::Value>) { ++fired; })
                  .ok());
  clock.run_until_idle();
  inject(R"({"id": 1e300, "result": 1})");
  inject(R"({"id": -1e300, "result": 1})");
  inject(R"({"id": 1e400, "result": 1})");
  inject(R"({"id": 18014398509481984, "result": 1})");  // 2^54
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(server->protocol_errors(), 4u);
  inject(R"({"id": 1, "result": 1})");
  EXPECT_EQ(fired, 1);
  expect_still_healthy();
}

TEST_F(MalformedFixture, ResponseWithNeitherResultNorErrorIsProtocolError) {
  std::optional<Result<json::Value>> slot;
  ASSERT_TRUE(server
                  ->call("probe", json::Value{},
                         [&slot](Result<json::Value> r) { slot = std::move(r); })
                  .ok());
  clock.run_until_idle();
  inject(R"({"id": 1})");
  ASSERT_TRUE(slot.has_value());
  ASSERT_FALSE(slot->ok());
  EXPECT_EQ(slot->error().code, ErrorCode::kProtocol);
  expect_still_healthy();
}

TEST_F(MalformedFixture, OversizedFrameDisconnectsTheTransport) {
  // A length prefix beyond kMaxFrameBytes means byte-stream sync is gone:
  // the peer must drop the connection rather than guess.
  std::string header;
  header.push_back(static_cast<char>(0x7F));
  header.push_back(static_cast<char>(0xFF));
  header.push_back(static_cast<char>(0xFF));
  header.push_back(static_cast<char>(0xFF));
  ASSERT_TRUE(attacker->send(header).ok());
  clock.run_until_idle();
  EXPECT_GE(server->protocol_errors(), 1u);
  EXPECT_FALSE(attacker->connected());
}

}  // namespace
}  // namespace unify::proto
