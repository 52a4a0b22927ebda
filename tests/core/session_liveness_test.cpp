// Acceptance test for the heartbeat -> HealthManager wiring (DESIGN.md
// §14): a silently partitioned Unify domain — wire up, peer mute — trips
// its circuit breaker from heartbeat evidence alone, in O(heartbeat
// interval), without any push ever being issued; after the forced close
// the session reconnects and heal() readmits the domain.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/unify_api.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"

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
      g.add_bisbis(model::make_bisbis(bb, {16, 16384, 200}, 4, 0.05)).ok());
  model::attach_sap(g, sap1, bb, 0, {1000, 0.1});
  model::attach_sap(g, sap2, bb, 1, {1000, 0.1});
  return g;
}

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

constexpr SimTime kHeartbeatUs =
    proto::ResilientSession::kHeartbeatIntervalUs;

TEST(SessionLiveness, HeartbeatTripsBreakerAndHealReadmits) {
  SimClock clock;
  proto::SimDriver driver(clock);
  LeafDomain leaf("leaf");

  // Each (re)connect builds a fresh channel + UnifyServer incarnation.
  std::vector<std::shared_ptr<proto::Endpoint>> souths;
  std::vector<std::unique_ptr<UnifyServer>> servers;
  auto factory = [&]() -> Result<std::shared_ptr<proto::Transport>> {
    auto [north, south] = proto::make_channel_pair(clock, 100);
    souths.push_back(south);
    servers.push_back(std::make_unique<UnifyServer>(
        *leaf.virtualizer, south,
        "leaf-server-" + std::to_string(servers.size())));
    return std::static_pointer_cast<proto::Transport>(north);
  };

  auto adapter = std::make_unique<UnifyClientAdapter>(
      "leaf", driver, factory, /*rpc_timeout_us=*/500'000);
  auto* session_adapter = adapter.get();

  ResourceOrchestrator ro("parent",
                          std::make_shared<mapping::ChainDpMapper>(),
                          catalog::default_catalog());
  ASSERT_TRUE(ro.add_domain(std::move(adapter)).ok());
  ASSERT_TRUE(ro.initialize().ok());
  session_adapter->on_liveness([&ro](const Result<void>& evidence) {
    (void)ro.note_domain_liveness("leaf", evidence);
  });
  ASSERT_EQ(ro.health().health(0), DomainHealth::kHealthy);

  // Silent partition: the wire stays connected but the peer goes mute —
  // every request (and every ping) vanishes. Only the heartbeat can see
  // this; no push is issued anywhere in this test.
  souths.back()->on_receive([](std::string_view) {});
  const SimTime partitioned_at = clock.now();

  for (int i = 0;
       i < 50 && ro.health().health(0) != DomainHealth::kDown; ++i) {
    clock.advance(kHeartbeatUs);
  }
  EXPECT_EQ(ro.health().health(0), DomainHealth::kDown);
  EXPECT_FALSE(ro.health().admits(0));
  EXPECT_GE(session_adapter->session().heartbeat_misses(), 3u);
  // Detection ran at heartbeat speed: a handful of intervals, not a push
  // deadline.
  EXPECT_LE(clock.now() - partitioned_at, 10 * kHeartbeatUs);

  // The miss threshold force-closed the wire; the session reconnects to a
  // fresh server on its own.
  for (int i = 0; i < 50 && !session_adapter->session().connected(); ++i) {
    clock.advance(kHeartbeatUs);
  }
  ASSERT_TRUE(session_adapter->session().connected());
  EXPECT_GE(session_adapter->session().reconnects(), 1u);
  // The stray liveness success cannot short the probe protocol...
  EXPECT_EQ(ro.health().health(0), DomainHealth::kDown);

  // ...but the healing pass probes the reconnected session and readmits.
  auto healed = ro.heal();
  ASSERT_TRUE(healed.ok()) << healed.error().to_string();
  EXPECT_EQ(healed->readmitted, std::vector<std::string>{"leaf"});
  EXPECT_EQ(ro.health().health(0), DomainHealth::kHealthy);
  EXPECT_TRUE(ro.health().admits(0));
}

TEST(SessionLiveness, UnknownDomainIsRejected) {
  ResourceOrchestrator ro("parent",
                          std::make_shared<mapping::ChainDpMapper>(),
                          catalog::default_catalog());
  auto r = ro.note_domain_liveness("ghost", Result<void>::success());
  ASSERT_FALSE(r.ok());
}

}  // namespace
}  // namespace unify::core
