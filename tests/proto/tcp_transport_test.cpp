// Unit tests for the epoll reactor and the TCP transport/listener: timers,
// accept, echo traffic, partial-write flushing, graceful close, failure
// modes — and RpcPeer running unchanged over the real wire.
#include "proto/net/tcp.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "proto/rpc.h"

namespace unify::proto::net {
namespace {

/// Loopback pair on one reactor: client connects, listener accepts.
struct TcpPair {
  TcpPair() {
    auto listener_or = TcpListener::listen(
        reactor, "127.0.0.1", 0,
        [this](std::shared_ptr<TcpTransport> conn) {
          server = std::move(conn);
        });
    EXPECT_TRUE(listener_or.ok()) << listener_or.error().to_string();
    listener = std::move(*listener_or);
    auto client_or =
        TcpTransport::connect(reactor, "127.0.0.1", listener->port());
    EXPECT_TRUE(client_or.ok()) << client_or.error().to_string();
    client = std::move(*client_or);
    while (server == nullptr) reactor.poll(100);
  }

  Reactor reactor;
  std::unique_ptr<TcpListener> listener;
  std::shared_ptr<TcpTransport> client;
  std::shared_ptr<TcpTransport> server;
};

TEST(Reactor, TimersFireInDeadlineOrderThenFifo) {
  Reactor reactor;
  std::vector<int> order;
  reactor.schedule(20000, [&] { order.push_back(3); });
  reactor.schedule(1000, [&] { order.push_back(1); });
  reactor.schedule(1000, [&] { order.push_back(2); });  // FIFO among equals
  EXPECT_EQ(reactor.pending_timers(), 3u);
  while (reactor.pump()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(reactor.pending_timers(), 0u);
}

TEST(Reactor, PumpReportsIdle) {
  Reactor reactor;
  EXPECT_FALSE(reactor.pump());  // nothing registered, nothing scheduled
  bool fired = false;
  reactor.schedule(0, [&] { fired = true; });
  EXPECT_TRUE(reactor.pump());
  EXPECT_TRUE(fired);
  EXPECT_FALSE(reactor.pump());
}

TEST(Reactor, TimerScheduledWhileFiringRunsNextBatch) {
  Reactor reactor;
  int generations = 0;
  std::function<void()> chain = [&] {
    if (++generations < 3) reactor.schedule(0, chain);
  };
  reactor.schedule(0, chain);
  while (reactor.pump()) {
  }
  EXPECT_EQ(generations, 3);
}

TEST(Reactor, SubMillisecondRemainderSleepsInsteadOfSpinning) {
  Reactor reactor;
  bool fired = false;
  reactor.schedule(1'500, [&] { fired = true; });
  // The first 1 ms poll leaves ~0.5 ms: the next poll must sleep it out,
  // not return at once (a busy spin would count thousands of polls).
  int polls = 0;
  while (!fired) {
    reactor.poll(1);
    ++polls;
  }
  EXPECT_LE(polls, 5);
}

TEST(TcpTransport, ConnectToClosedPortFails) {
  Reactor reactor;
  // Grab an ephemeral port, then close the listener: nobody listens there.
  std::uint16_t dead_port = 0;
  {
    auto listener = TcpListener::listen(reactor, "127.0.0.1", 0,
                                        [](std::shared_ptr<TcpTransport>) {});
    ASSERT_TRUE(listener.ok());
    dead_port = (*listener)->port();
  }
  auto conn = TcpTransport::connect(reactor, "127.0.0.1", dead_port);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, ErrorCode::kUnavailable);
}

TEST(TcpTransport, BadHostLiteralFails) {
  Reactor reactor;
  auto conn = TcpTransport::connect(reactor, "not-an-ip-literal", 1);
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, ErrorCode::kInvalidArgument);
}

TEST(TcpTransport, EchoBothDirections) {
  TcpPair pair;
  std::string at_server, at_client;
  pair.server->on_receive(
      [&](std::string_view bytes) { at_server += bytes; });
  pair.client->on_receive(
      [&](std::string_view bytes) { at_client += bytes; });
  ASSERT_TRUE(pair.client->send("ping").ok());
  ASSERT_TRUE(pair.server->send("pong").ok());
  while (at_server.size() < 4 || at_client.size() < 4) pair.reactor.poll(100);
  EXPECT_EQ(at_server, "ping");
  EXPECT_EQ(at_client, "pong");
  EXPECT_EQ(pair.client->counters().messages_sent, 1u);
  EXPECT_EQ(pair.client->counters().bytes_sent, 4u);
  EXPECT_EQ(pair.client->counters().bytes_received, 4u);
}

TEST(TcpTransport, BacklogBuffersUntilReceiverInstalled) {
  TcpPair pair;
  ASSERT_TRUE(pair.client->send("early bytes").ok());
  // Let the bytes land before anyone asks for them.
  for (int i = 0; i < 50 && pair.server->counters().bytes_received < 11; ++i) {
    pair.reactor.poll(10);
  }
  std::string received;
  pair.server->on_receive([&](std::string_view bytes) { received += bytes; });
  EXPECT_EQ(received, "early bytes");
}

TEST(TcpTransport, LargePayloadSurvivesPartialWrites) {
  // Well beyond any socket buffer: the transport must queue the remainder
  // and drain it on EPOLLOUT.
  TcpPair pair;
  std::string blob(8 * 1024 * 1024, 'x');
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<char>('a' + (i % 26));
  }
  std::string received;
  pair.server->on_receive([&](std::string_view bytes) { received += bytes; });
  ASSERT_TRUE(pair.client->send(blob).ok());
  while (received.size() < blob.size()) pair.reactor.poll(100);
  EXPECT_EQ(received, blob);
}

TEST(TcpTransport, GracefulCloseFlushesThenSignalsPeer) {
  TcpPair pair;
  std::string received;
  bool server_saw_close = false;
  bool client_saw_close = false;
  pair.server->on_receive([&](std::string_view bytes) { received += bytes; });
  pair.server->on_close([&] { server_saw_close = true; });
  pair.client->on_close([&] { client_saw_close = true; });
  const std::string blob(4 * 1024 * 1024, 'q');
  ASSERT_TRUE(pair.client->send(blob).ok());
  pair.client->disconnect();  // must not drop the queued megabytes
  while (!server_saw_close) pair.reactor.poll(100);
  EXPECT_EQ(received.size(), blob.size());
  EXPECT_TRUE(client_saw_close);
  EXPECT_FALSE(pair.client->connected());
  EXPECT_FALSE(pair.server->connected());
}

TEST(TcpTransport, SendAfterDisconnectFailsFast) {
  TcpPair pair;
  pair.client->disconnect();
  const auto sent = pair.client->send("too late");
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, ErrorCode::kUnavailable);
}

TEST(TcpTransport, ManyConcurrentConnectionsEcho) {
  Reactor reactor;
  std::vector<std::shared_ptr<TcpTransport>> server_side;
  auto listener = TcpListener::listen(
      reactor, "127.0.0.1", 0,
      [&server_side](std::shared_ptr<TcpTransport> conn) {
        // Echo server: every connection mirrors its input.
        auto* raw = conn.get();
        conn->on_receive([raw](std::string_view bytes) {
          (void)raw->send(std::string(bytes));
        });
        server_side.push_back(std::move(conn));
      });
  ASSERT_TRUE(listener.ok());

  constexpr int kConnections = 32;
  std::vector<std::shared_ptr<TcpTransport>> clients;
  std::vector<std::string> echoed(kConnections);
  for (int i = 0; i < kConnections; ++i) {
    auto conn = TcpTransport::connect(reactor, "127.0.0.1",
                                      (*listener)->port());
    ASSERT_TRUE(conn.ok()) << conn.error().to_string();
    (*conn)->on_receive([&echoed, i](std::string_view bytes) {
      echoed[static_cast<std::size_t>(i)] += bytes;
    });
    clients.push_back(std::move(*conn));
  }
  for (int i = 0; i < kConnections; ++i) {
    ASSERT_TRUE(clients[static_cast<std::size_t>(i)]
                    ->send("hello from " + std::to_string(i))
                    .ok());
  }
  const auto all_echoed = [&] {
    for (int i = 0; i < kConnections; ++i) {
      if (echoed[static_cast<std::size_t>(i)] !=
          "hello from " + std::to_string(i)) {
        return false;
      }
    }
    return true;
  };
  while (!all_echoed()) reactor.poll(100);
  EXPECT_EQ((*listener)->accepted(),
            static_cast<std::uint64_t>(kConnections));
}

TEST(TcpTransport, Ipv6LoopbackEcho) {
  Reactor reactor;
  std::shared_ptr<TcpTransport> server;
  auto listener = TcpListener::listen(
      reactor, "::1", 0,
      [&server](std::shared_ptr<TcpTransport> conn) {
        server = std::move(conn);
      });
  if (!listener.ok()) {
    GTEST_SKIP() << "no IPv6 loopback here: " << listener.error().to_string();
  }
  auto client = TcpTransport::connect(reactor, "::1", (*listener)->port());
  ASSERT_TRUE(client.ok()) << client.error().to_string();
  while (server == nullptr) reactor.poll(100);
  EXPECT_EQ(server->peer_name().rfind("[::1]:", 0), 0u)
      << server->peer_name();

  std::string received;
  server->on_receive([&](std::string_view bytes) { received += bytes; });
  ASSERT_TRUE((*client)->send("over v6").ok());
  while (received.size() < 7) reactor.poll(100);
  EXPECT_EQ(received, "over v6");
}

TEST(TcpTransport, HostnameResolvesWithAddressFamilyFallback) {
  // The listener is v4-only; `localhost` may resolve to ::1 first, so a
  // successful connect proves the candidate loop falls through to the v4
  // address instead of giving up on the first family.
  Reactor reactor;
  std::shared_ptr<TcpTransport> server;
  auto listener = TcpListener::listen(
      reactor, "127.0.0.1", 0,
      [&server](std::shared_ptr<TcpTransport> conn) {
        server = std::move(conn);
      });
  ASSERT_TRUE(listener.ok()) << listener.error().to_string();
  auto client =
      TcpTransport::connect(reactor, "localhost", (*listener)->port());
  if (!client.ok() &&
      client.error().code == ErrorCode::kInvalidArgument) {
    GTEST_SKIP() << "resolver cannot see localhost: "
                 << client.error().to_string();
  }
  ASSERT_TRUE(client.ok()) << client.error().to_string();
  while (server == nullptr) reactor.poll(100);
  std::string received;
  server->on_receive([&](std::string_view bytes) { received += bytes; });
  ASSERT_TRUE((*client)->send("by name").ok());
  while (received.size() < 7) reactor.poll(100);
  EXPECT_EQ(received, "by name");
}

TEST(TcpTransport, Ipv6ListenerRejectsUnreachedFamiliesCleanly) {
  // Connecting to a v6 listener via the v4 loopback must fail with a clean
  // kUnavailable, never hang or crash.
  Reactor reactor;
  auto listener = TcpListener::listen(reactor, "::1", 0,
                                      [](std::shared_ptr<TcpTransport>) {});
  if (!listener.ok()) {
    GTEST_SKIP() << "no IPv6 loopback here: " << listener.error().to_string();
  }
  auto conn =
      TcpTransport::connect(reactor, "127.0.0.1", (*listener)->port());
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, ErrorCode::kUnavailable);
}

TEST(TcpTransport, RpcPeerRunsUnchangedOverTcp) {
  TcpPair pair;
  RpcPeer client(pair.client, "tcp-client");
  RpcPeer server(pair.server, "tcp-server");
  server.on_request("sum", [](const json::Value& params) {
    json::Object out;
    out.set("sum", params.get_number("a") + params.get_number("b"));
    return Result<json::Value>{json::Value{std::move(out)}};
  });
  json::Object params;
  params.set("a", 19);
  params.set("b", 23);
  auto reply = client.call_and_wait("sum", json::Value{std::move(params)});
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply->get_int("sum"), 42);
}

TEST(TcpTransport, RpcTimeoutFiresOnReactorClock) {
  TcpPair pair;
  RpcPeer client(pair.client, "tcp-client");
  // The server transport exists but nobody answers: a mute peer.
  auto reply = client.call_and_wait("void", json::Value{},
                                    /*timeout_us=*/50000);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.error().code, ErrorCode::kTimeout);
}

TEST(TcpTransport, PeerCloseFailsPendingRpcs) {
  TcpPair pair;
  RpcPeer client(pair.client, "tcp-client");
  std::optional<Result<json::Value>> slot;
  ASSERT_TRUE(client
                  .call("void", json::Value{},
                        [&slot](Result<json::Value> r) { slot = std::move(r); })
                  .ok());
  pair.server->disconnect();
  while (!slot.has_value()) pair.reactor.poll(100);
  ASSERT_FALSE(slot->ok());
  EXPECT_EQ(slot->error().code, ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace unify::proto::net
