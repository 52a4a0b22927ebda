// End-to-end: a real resource-orchestration process served over loopback
// TCP. A server thread runs its own reactor, accepts Unify sessions and
// gives each one a UnifyServer over the shared child virtualizer; the test
// thread drives 100+ concurrent manager sessions through UnifyClientAdapter
// over a second reactor. Every result must be byte-identical to the
// in-memory-channel path — the transport concept's core promise.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/config_translate.h"
#include "core/unify_api.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "model/nffg_json.h"
#include "proto/net/tcp.h"

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

model::Nffg leaf_view(const std::string& bb, const std::string& sap1,
                      const std::string& sap2) {
  model::Nffg g{bb + "-view"};
  EXPECT_TRUE(
      g.add_bisbis(model::make_bisbis(bb, {64, 65536, 800}, 4, 0.05)).ok());
  model::attach_sap(g, sap1, bb, 0, {1000, 0.1});
  model::attach_sap(g, sap2, bb, 1, {1000, 0.1});
  return g;
}

/// The same leaf orchestration domain used by the in-memory tests; both
/// sides of the comparison instantiate it with identical names so the
/// JSON-serialized views can be compared byte for byte.
struct LeafDomain {
  explicit LeafDomain(const std::string& name) {
    ro = std::make_unique<ResourceOrchestrator>(
        name, std::make_shared<mapping::ChainDpMapper>(),
        catalog::default_catalog());
    EXPECT_TRUE(
        ro->add_domain(std::make_unique<AcceptAllAdapter>(
                           name + "-infra",
                           leaf_view(name + "-bb", name + "-sap", "xp")))
            .ok());
    EXPECT_TRUE(ro->initialize().ok());
    virtualizer = std::make_unique<Virtualizer>(
        *ro, ViewPolicy::kSingleBisBis, name + ".big");
  }
  std::unique_ptr<ResourceOrchestrator> ro;
  std::unique_ptr<Virtualizer> virtualizer;
};

/// One RO process behind a TCP listener: every accepted connection becomes
/// an independent Unify session over the shared virtualizer, torn down on
/// hangup via the on_disconnect hook.
class RoServer {
 public:
  RoServer() {
    std::promise<std::uint16_t> port_promise;
    auto port_future = port_promise.get_future();
    thread_ = std::thread([this, &port_promise] { run(port_promise); });
    port_ = port_future.get();
  }

  ~RoServer() {
    stop_.store(true);
    thread_.join();
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint64_t peak_sessions() const noexcept {
    return peak_sessions_.load();
  }
  [[nodiscard]] std::uint64_t live_sessions() const noexcept {
    return live_sessions_.load();
  }

 private:
  void run(std::promise<std::uint16_t>& port_promise) {
    LeafDomain leaf("leaf");
    proto::net::Reactor reactor;
    std::map<std::uint64_t, std::unique_ptr<UnifyServer>> sessions;
    std::uint64_t next_session = 0;

    auto listener = proto::net::TcpListener::listen(
        reactor, "127.0.0.1", 0,
        [&](std::shared_ptr<proto::net::TcpTransport> conn) {
          const std::uint64_t id = next_session++;
          auto server = std::make_unique<UnifyServer>(
              *leaf.virtualizer, std::move(conn),
              "session-" + std::to_string(id));
          server->on_disconnect([this, &reactor, &sessions, id] {
            // Deferred one tick: the hook runs inside the transport's
            // close callback, the session dies outside it.
            reactor.schedule(0, [this, &sessions, id] {
              sessions.erase(id);
              live_sessions_.fetch_sub(1);
            });
          });
          sessions.emplace(id, std::move(server));
          const auto live = live_sessions_.fetch_add(1) + 1;
          std::uint64_t peak = peak_sessions_.load();
          while (peak < live && !peak_sessions_.compare_exchange_weak(
                                    peak, live)) {
          }
        });
    if (!listener.ok()) {
      ADD_FAILURE() << listener.error().to_string();
      port_promise.set_value(0);  // connect() below will fail the test
      return;
    }
    port_promise.set_value((*listener)->port());
    while (!stop_.load()) reactor.poll(10);
  }

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> live_sessions_{0};
  std::atomic<std::uint64_t> peak_sessions_{0};
  std::uint16_t port_ = 0;
};

TEST(UnifyTcpE2e, HundredConcurrentSessionsMatchInMemoryByteForByte) {
  // ---- Reference run: the in-memory channel path.
  std::string expected_initial, expected_after_edit, expected_after_second;
  model::Nffg desired{"desired"};
  model::Nffg second{"second"};
  {
    SimClock clock;
    LeafDomain leaf("leaf");
    auto adapter = make_unify_link(*leaf.virtualizer, clock, "leaf");
    auto view = adapter->fetch_view();
    ASSERT_TRUE(view.ok()) << view.error().to_string();
    expected_initial = model::to_json(*view).dump();

    const sg::ServiceGraph sg =
        sg::make_chain("svc", "leaf-sap", {"nat"}, "xp", 10, 100);
    auto translated = service_graph_to_config(sg, *view, "leaf.big");
    ASSERT_TRUE(translated.ok()) << translated.error().to_string();
    desired = *translated;
    ASSERT_TRUE(adapter->apply(desired).ok());
    auto after = adapter->fetch_view();
    ASSERT_TRUE(after.ok());
    expected_after_edit = model::to_json(*after).dump();

    // A second edit: the chain at twice the bandwidth.
    auto rewritten = service_graph_to_config(
        sg::make_chain("svc", "leaf-sap", {"nat"}, "xp", 20, 100), *view,
        "leaf.big");
    ASSERT_TRUE(rewritten.ok()) << rewritten.error().to_string();
    second = *rewritten;
    ASSERT_TRUE(adapter->apply(second).ok());
    after = adapter->fetch_view();
    ASSERT_TRUE(after.ok());
    expected_after_second = model::to_json(*after).dump();
  }
  ASSERT_NE(expected_initial, expected_after_edit);
  ASSERT_NE(expected_after_edit, expected_after_second);

  // ---- The same RO stack served for real, over loopback TCP.
  RoServer server;
  proto::net::Reactor reactor;
  constexpr int kSessions = 100;
  std::vector<std::unique_ptr<UnifyClientAdapter>> managers;
  for (int i = 0; i < kSessions; ++i) {
    auto conn = proto::net::TcpTransport::connect(reactor, "127.0.0.1",
                                                  server.port());
    ASSERT_TRUE(conn.ok()) << conn.error().to_string();
    managers.push_back(
        std::make_unique<UnifyClientAdapter>("leaf", std::move(*conn)));
  }

  // Every manager session reads the same child config — byte-identical to
  // what the in-memory channel produced — twice. Nothing is written in
  // between, so the second read is a conditional-get hit decoded from the
  // kept reply, and it must equal the first byte for byte.
  const auto read_twice = [](UnifyClientAdapter& manager,
                             const std::string& expected) {
    const std::uint64_t hits = manager.get_config_hits();
    auto first = manager.fetch_view();
    ASSERT_TRUE(first.ok()) << first.error().to_string();
    const std::string bytes = model::to_json(*first).dump();
    EXPECT_EQ(bytes, expected);
    auto second = manager.fetch_view();
    ASSERT_TRUE(second.ok()) << second.error().to_string();
    EXPECT_EQ(manager.get_config_hits(), hits + 1);
    EXPECT_EQ(model::to_json(*second).dump(), bytes);
  };
  for (auto& manager : managers) read_twice(*manager, expected_initial);

  // All sessions push the same edit-config concurrently: the requests are
  // all on the wire before the first acknowledgment is awaited. The server
  // serializes them (first one deploys, the rest converge as no-ops), so
  // every session must succeed.
  std::vector<adapters::PushTicket> tickets;
  for (auto& manager : managers) {
    auto ticket = manager->begin_apply(desired);
    ASSERT_TRUE(ticket.ok()) << ticket.error().to_string();
    tickets.push_back(*ticket);
  }
  for (int i = 0; i < kSessions; ++i) {
    const auto pushed =
        managers[static_cast<std::size_t>(i)]->await(tickets[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(pushed.ok()) << "session " << i << ": "
                             << pushed.error().to_string();
  }

  // Post-edit state is identical across all sessions and to the reference;
  // the edits moved the tag, so each first read is a full reply again.
  for (auto& manager : managers) read_twice(*manager, expected_after_edit);

  // A second concurrent round. Every session holds the config its own
  // edit was accepted as, so each sends a delta against that version. The
  // first delta the server applies moves the version, so the other 99
  // bases are stale: those sessions get "stale" and resend in full, and
  // all of them must still converge byte for byte.
  tickets.clear();
  for (auto& manager : managers) {
    auto ticket = manager->begin_apply(second);
    ASSERT_TRUE(ticket.ok()) << ticket.error().to_string();
    tickets.push_back(*ticket);
  }
  std::uint64_t deltas = 0;
  for (int i = 0; i < kSessions; ++i) {
    auto& manager = *managers[static_cast<std::size_t>(i)];
    const auto pushed = manager.await(tickets[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(pushed.ok()) << "session " << i << ": "
                             << pushed.error().to_string();
    deltas += manager.delta_edits();
  }
  EXPECT_EQ(deltas, 1u) << "one delta applied, 99 stale";
  for (auto& manager : managers) read_twice(*manager, expected_after_second);

  EXPECT_GE(server.peak_sessions(), static_cast<std::uint64_t>(kSessions));

  // Hangups reap the per-connection sessions server-side.
  managers.clear();
  for (int i = 0; i < 500 && server.live_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.live_sessions(), 0u);
}

}  // namespace
}  // namespace unify::core
