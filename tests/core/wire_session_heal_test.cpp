// A session built with a transport factory redials and heartbeats with no
// further setup, so a load generator pointed at a real TCP server survives
// the server being killed and restarted. The client's ResilientSession
// must observe the disconnect, redial through its factory once the
// listener is back on the same port, and answer get-config again — no
// client-side restart, no manual rewire.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/unify_api.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "proto/net/reactor.h"
#include "proto/net/tcp.h"
#include "proto/resilient_session.h"

namespace unify::core {
namespace {

class AcceptAllAdapter final : public adapters::DomainAdapter {
 public:
  AcceptAllAdapter(std::string name, model::Nffg view)
      : name_(std::move(name)), view_(std::move(view)) {}
  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override { return view_; }
  Result<void> apply(const model::Nffg&) override {
    return Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return 0;
  }

 private:
  std::string name_;
  model::Nffg view_;
};

model::Nffg leaf_view(const std::string& bb) {
  model::Nffg g{bb + "-view"};
  EXPECT_TRUE(
      g.add_bisbis(model::make_bisbis(bb, {64, 65536, 800}, 4, 0.05)).ok());
  model::attach_sap(g, "sap1", bb, 0, {1000, 0.1});
  model::attach_sap(g, "sap2", bb, 1, {1000, 0.1});
  return g;
}

/// A killable single-RO TCP server. Each start() runs the full stack on a
/// fresh thread; port 0 on the first start picks an ephemeral port, which
/// stop()/start() reuses so a reconnecting client's redial target stays
/// valid (SO_REUSEADDR makes the rebind immediate).
class KillableServer {
 public:
  ~KillableServer() { stop(); }

  void start() {
    ASSERT_FALSE(thread_.joinable()) << "already running";
    stop_.store(false);
    std::promise<std::uint16_t> port_promise;
    auto port_future = port_promise.get_future();
    thread_ = std::thread([this, &port_promise] { run(port_promise); });
    const std::uint16_t bound = port_future.get();
    ASSERT_NE(bound, 0) << "listen failed";
    port_ = bound;
  }

  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  void run(std::promise<std::uint16_t>& port_promise) {
    ResourceOrchestrator ro("leaf",
                            std::make_shared<mapping::ChainDpMapper>(),
                            catalog::default_catalog());
    EXPECT_TRUE(ro.add_domain(std::make_unique<AcceptAllAdapter>(
                                  "leaf-infra", leaf_view("leaf-bb")))
                    .ok());
    EXPECT_TRUE(ro.initialize().ok());
    Virtualizer virtualizer(ro, ViewPolicy::kSingleBisBis, "leaf.big");

    proto::net::Reactor reactor;
    std::map<std::uint64_t, std::unique_ptr<UnifyServer>> sessions;
    std::uint64_t next_session = 0;
    auto listener = proto::net::TcpListener::listen(
        reactor, "127.0.0.1", port_,
        [&](std::shared_ptr<proto::net::TcpTransport> conn) {
          const std::uint64_t id = next_session++;
          auto server = std::make_unique<UnifyServer>(
              virtualizer, std::move(conn), "session-" + std::to_string(id));
          server->on_disconnect([&reactor, &sessions, id] {
            reactor.schedule(0, [&sessions, id] { sessions.erase(id); });
          });
          sessions.emplace(id, std::move(server));
        });
    if (!listener.ok()) {
      ADD_FAILURE() << listener.error().to_string();
      port_promise.set_value(0);
      return;
    }
    port_promise.set_value((*listener)->port());
    while (!stop_.load()) reactor.poll(10);
    // Dropping the listener and sessions closes every accepted socket:
    // from the client's side this is the server being killed.
  }

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::uint16_t port_ = 0;
};

/// Polls `reactor` until `done` holds or ~5 s pass.
template <typename Predicate>
bool poll_until(proto::net::Reactor& reactor, Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    reactor.poll(10);
  }
  return true;
}

TEST(WireSessionHeal, DefaultsArmHeartbeatAndReconnect) {
  // The factory alone arms both: an idle wire gets pinged, and a lost one
  // is redialed through any number of refusals.
  SimClock clock;
  proto::SimDriver driver(clock);
  std::vector<std::shared_ptr<proto::Endpoint>> server_ends;
  std::vector<std::unique_ptr<proto::RpcPeer>> server_peers;
  int refuse = 0;
  auto factory = [&]() -> Result<std::shared_ptr<proto::Transport>> {
    if (refuse > 0) {
      --refuse;
      return Error{ErrorCode::kUnavailable, "refused"};
    }
    auto [north, south] = proto::make_channel_pair(clock, 100);
    server_ends.push_back(south);
    server_peers.push_back(std::make_unique<proto::RpcPeer>(south, "server"));
    return std::static_pointer_cast<proto::Transport>(north);
  };
  proto::ResilientSession session("load-0", driver, factory);
  ASSERT_TRUE(session.connected());

  clock.advance(proto::ResilientSession::kHeartbeatIntervalUs + 1'000);
  EXPECT_EQ(session.heartbeats_sent(), 1u);
  EXPECT_EQ(session.heartbeat_misses(), 0u);

  refuse = 20;
  server_ends.back()->disconnect();
  for (int i = 0; i < 600 && !session.connected(); ++i) {
    clock.advance(100'000);
  }
  EXPECT_TRUE(session.connected());
  EXPECT_EQ(session.disconnects(), 1u);
  EXPECT_EQ(session.connect_failures(), 20u);
  EXPECT_EQ(session.reconnects(), 1u);
}

TEST(WireSessionHeal, KilledAndRestartedServerHealsTheSession) {
  KillableServer server;
  server.start();

  proto::net::Reactor reactor;
  auto factory = [&reactor, &server]()
      -> Result<std::shared_ptr<proto::Transport>> {
    auto conn = proto::net::TcpTransport::connect(reactor, "127.0.0.1",
                                                  server.port());
    if (!conn.ok()) return conn.error();
    return std::shared_ptr<proto::Transport>(std::move(*conn));
  };
  proto::ResilientSession session("load-0", reactor, factory);
  ASSERT_TRUE(poll_until(reactor, [&] { return session.connected(); }));

  const auto first = session.call_and_wait(
      "get-config", json::Value{json::Object{}}, /*timeout_us=*/5'000'000);
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  ASSERT_NE(first->get("config"), nullptr);

  // Kill the server. The client observes the hangup (every in-flight and
  // future call fails fast with kUnavailable) and enters its backoff loop.
  server.stop();
  ASSERT_TRUE(poll_until(reactor, [&] { return session.disconnects() >= 1; }));
  EXPECT_FALSE(session.connected());
  const auto while_down = session.call_and_wait(
      "get-config", json::Value{json::Object{}}, /*timeout_us=*/100'000);
  ASSERT_FALSE(while_down.ok());
  EXPECT_EQ(while_down.error().code, ErrorCode::kUnavailable);

  // Restart on the same port: the session's own redial loop heals it with
  // no help from the caller.
  server.start();
  ASSERT_TRUE(poll_until(reactor, [&] { return session.connected(); }));
  EXPECT_GE(session.reconnects(), 1u);

  const auto healed = session.call_and_wait(
      "get-config", json::Value{json::Object{}}, /*timeout_us=*/5'000'000);
  ASSERT_TRUE(healed.ok()) << healed.error().to_string();
  ASSERT_NE(healed->get("config"), nullptr);
}

}  // namespace
}  // namespace unify::core
