// Failure injection and lifecycle-evolution tests: domain faults,
// capacity re-advertisement, migration (redeploy) and service updates.
#include <gtest/gtest.h>

#include "adapters/faulty_adapter.h"
#include "core/resource_orchestrator.h"
#include "core/unify_api.h"
#include "core/virtualizer.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "model/nffg_json.h"
#include "service/service_layer.h"

namespace unify::core {
namespace {

/// Fake domain whose advertised view can be swapped at runtime. Keeps the
/// last slice it accepted and can reject its next applies.
class MutableAdapter final : public adapters::DomainAdapter {
 public:
  MutableAdapter(std::string name, model::Nffg view)
      : name_(std::move(name)), view_(std::move(view)) {}
  const std::string& domain() const noexcept override { return name_; }
  Result<model::Nffg> fetch_view() override { return view_; }
  Result<void> apply(const model::Nffg& desired) override {
    if (rejects_ > 0) {
      --rejects_;
      return Error{ErrorCode::kRejected, name_ + " says no"};
    }
    applied_ = desired;
    return Result<void>::success();
  }
  std::uint64_t native_operations() const noexcept override { return 0; }

  void set_view(model::Nffg view) { view_ = std::move(view); }
  void reject_next(int count) { rejects_ = count; }
  [[nodiscard]] const model::Nffg& last_applied() const { return applied_; }

 private:
  std::string name_;
  model::Nffg view_;
  model::Nffg applied_;
  int rejects_ = 0;
};

model::Nffg domain_view(const std::string& bb, const std::string& sap,
                        const std::string& stitch, double cpu = 16) {
  model::Nffg g{bb + "-view"};
  EXPECT_TRUE(
      g.add_bisbis(model::make_bisbis(bb, {cpu, 16384, 200}, 4)).ok());
  model::attach_sap(g, sap, bb, 0, {1000, 0.1});
  model::attach_sap(g, stitch, bb, 1, {1000, 0.5});
  return g;
}

struct Fixture {
  explicit Fixture(bool wrap_faulty = false) {
    ro = std::make_unique<ResourceOrchestrator>(
        "ro", std::make_shared<mapping::ChainDpMapper>(),
        catalog::default_catalog());
    auto a = std::make_unique<MutableAdapter>(
        "d1", domain_view("bb1", "sap1", "xp"));
    auto b = std::make_unique<MutableAdapter>(
        "d2", domain_view("bb2", "sap2", "xp"));
    left = a.get();
    right = b.get();
    if (wrap_faulty) {
      auto faulty = std::make_unique<adapters::FaultyAdapter>(std::move(a));
      faulty_left = faulty.get();
      EXPECT_TRUE(ro->add_domain(std::move(faulty)).ok());
    } else {
      EXPECT_TRUE(ro->add_domain(std::move(a)).ok());
    }
    EXPECT_TRUE(ro->add_domain(std::move(b)).ok());
    EXPECT_TRUE(ro->initialize().ok());
  }
  std::unique_ptr<ResourceOrchestrator> ro;
  MutableAdapter* left = nullptr;
  MutableAdapter* right = nullptr;
  adapters::FaultyAdapter* faulty_left = nullptr;
};

// --------------------------------------------------------- fault injection

TEST(FaultyAdapter, InjectedApplyFailureSurfacesFromDeploy) {
  Fixture fx(/*wrap_faulty=*/true);
  fx.faulty_left->fail_next(1, ErrorCode::kUnavailable);
  const auto r =
      fx.ro->deploy(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 50));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kUnavailable);
  EXPECT_EQ(fx.faulty_left->injected_failures(), 1u);
  // The stack recovers once the domain is healthy again.
  EXPECT_TRUE(
      fx.ro->deploy(sg::make_chain("svc2", "sap1", {"nat"}, "sap2", 10, 50))
          .ok());
}

TEST(FaultyAdapter, FetchFailureBlocksInitialization) {
  auto ro = std::make_unique<ResourceOrchestrator>(
      "ro", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog());
  auto inner = std::make_unique<MutableAdapter>(
      "d1", domain_view("bb1", "sap1", "xp"));
  auto faulty = std::make_unique<adapters::FaultyAdapter>(std::move(inner));
  faulty->fail_next(1);
  ASSERT_TRUE(ro->add_domain(std::move(faulty)).ok());
  const auto r = ro->initialize();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kUnavailable);
}

TEST(FaultyAdapter, RandomFailureRateIsSeeded) {
  auto view = domain_view("bb1", "sap1", "xp");
  auto make = [&](std::uint64_t seed) {
    auto inner = std::make_unique<MutableAdapter>("d1", view);
    adapters::FaultyAdapter faulty(std::move(inner), seed);
    faulty.set_failure_rate(0.5);
    int failures = 0;
    for (int i = 0; i < 32; ++i) {
      if (!faulty.fetch_view().ok()) ++failures;
    }
    return failures;
  };
  EXPECT_EQ(make(7), make(7));     // deterministic
  EXPECT_GT(make(7), 4);           // rate roughly honoured
  EXPECT_LT(make(7), 28);
}

// ------------------------------------------------- migration / redeploy

TEST(Redeploy, MovesNfsAfterCapacityLoss) {
  Fixture fx;
  // ChainDp places the single NF on bb1 (closest to sap1).
  ASSERT_TRUE(
      fx.ro->deploy(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 50))
          .ok());
  ASSERT_EQ(fx.ro->global_view().find_nf("nat0")->first, "bb1");

  // The domain re-advertises bb1 with no compute (maintenance drain).
  fx.left->set_view(domain_view("bb1", "sap1", "xp", /*cpu=*/0));
  ASSERT_TRUE(fx.ro->refresh_domain("d1").ok());

  // Migration moves the NF to the remaining capacity on bb2.
  ASSERT_TRUE(fx.ro->redeploy("svc").ok());
  EXPECT_EQ(fx.ro->global_view().find_nf("nat0")->first, "bb2");
  // Books stay consistent: removal still works.
  EXPECT_TRUE(fx.ro->remove("svc").ok());
  EXPECT_EQ(fx.ro->global_view().stats().nf_count, 0u);
}

TEST(Redeploy, RestoresOldPlacementWhenRemapFails) {
  Fixture fx;
  ASSERT_TRUE(
      fx.ro->deploy(sg::make_chain("svc", "sap1", {"dpi"}, "sap2", 10, 50))
          .ok());
  const std::string host_before =
      fx.ro->global_view().find_nf("dpi0")->first;

  // Drain BOTH nodes: no feasible remap exists.
  fx.left->set_view(domain_view("bb1", "sap1", "xp", 0));
  fx.right->set_view(domain_view("bb2", "sap2", "xp", 0));
  ASSERT_TRUE(fx.ro->refresh_domain("d1").ok());
  ASSERT_TRUE(fx.ro->refresh_domain("d2").ok());

  const auto r = fx.ro->redeploy("svc");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInfeasible);
  // The previous placement survived the failed migration.
  ASSERT_TRUE(fx.ro->global_view().find_nf("dpi0").has_value());
  EXPECT_EQ(fx.ro->global_view().find_nf("dpi0")->first, host_before);
  EXPECT_EQ(fx.ro->deployments().count("svc"), 1u);
}

TEST(Redeploy, FailedPushRestoresThePreviousPlacementInEveryDomain) {
  Fixture fx;
  ASSERT_TRUE(
      fx.ro->deploy(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 50))
          .ok());
  ASSERT_EQ(fx.ro->global_view().find_nf("nat0")->first, "bb1");

  // Drain bb1 so the migration targets bb2, and make d2 refuse the
  // migrated slice.
  fx.left->set_view(domain_view("bb1", "sap1", "xp", /*cpu=*/0));
  ASSERT_TRUE(fx.ro->refresh_domain("d1").ok());
  fx.right->reject_next(1);

  const auto r = fx.ro->redeploy("svc");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kRejected);
  EXPECT_NE(r.error().message.find("previous placement restored"),
            std::string::npos)
      << r.error().message;
  // The books keep the old placement...
  EXPECT_EQ(fx.ro->global_view().find_nf("nat0")->first, "bb1");
  EXPECT_EQ(fx.ro->deployments().at("svc").mapping.nf_host.at("nat0"), "bb1");
  // ...and so does every domain: each one last applied exactly the slice
  // the view describes (d1 runs nat0 again).
  for (const MutableAdapter* domain : {fx.left, fx.right}) {
    EXPECT_EQ(model::to_json(domain->last_applied()).dump(),
              model::to_json(model::slice_for_domain(fx.ro->global_view(),
                                                     domain->domain()))
                  .dump())
        << domain->domain();
  }
  EXPECT_TRUE(fx.left->last_applied().find_nf("nat0").has_value());
}

TEST(Redeploy, UnknownRequestFails) {
  Fixture fx;
  EXPECT_EQ(fx.ro->redeploy("nope").error().code, ErrorCode::kNotFound);
}

TEST(RefreshDomain, RejectsTopologyChanges) {
  Fixture fx;
  model::Nffg grown = domain_view("bb1", "sap1", "xp");
  ASSERT_TRUE(grown.add_bisbis(model::make_bisbis("bb1b", {4, 4, 4}, 2)).ok());
  fx.left->set_view(std::move(grown));
  const auto r = fx.ro->refresh_domain("d1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("topology changes"), std::string::npos);
  EXPECT_EQ(fx.ro->refresh_domain("ghost").error().code,
            ErrorCode::kNotFound);
}

// ------------------------------------------------------- service update

TEST(ServiceUpdate, GrowsAChainInPlace) {
  Fixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kSingleBisBis);
  SimClock clock;
  service::ServiceLayer layer(make_unify_link(virt, clock, "north"));

  ASSERT_TRUE(
      layer.submit(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 50))
          .ok());
  EXPECT_EQ(fx.ro->global_view().stats().nf_count, 1u);

  // Scale the service: same id, one more NF in the chain.
  ASSERT_TRUE(
      layer.update(sg::make_chain("svc", "sap1", {"nat", "monitor"}, "sap2",
                                  10, 50))
          .ok());
  EXPECT_EQ(fx.ro->global_view().stats().nf_count, 2u);
  EXPECT_TRUE(fx.ro->global_view().find_nf("svc.monitor1").has_value());

  // And shrink it back.
  ASSERT_TRUE(
      layer.update(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 50))
          .ok());
  EXPECT_EQ(fx.ro->global_view().stats().nf_count, 1u);
}

TEST(ServiceUpdate, FailedUpdateKeepsOldVersion) {
  Fixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kSingleBisBis);
  SimClock clock;
  service::ServiceLayer layer(make_unify_link(virt, clock, "north"));
  ASSERT_TRUE(
      layer.submit(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 50))
          .ok());

  // Impossible update: resource demand beyond any node.
  sg::ServiceGraph huge{"svc"};
  ASSERT_TRUE(huge.add_sap("sap1").ok());
  ASSERT_TRUE(huge.add_sap("sap2").ok());
  ASSERT_TRUE(
      huge.add_nf(sg::SgNf{"x", "nat", 2, model::Resources{9999, 1, 1}})
          .ok());
  ASSERT_TRUE(huge.add_link(sg::SgLink{"l1", {"sap1", 0}, {"x", 0}, 1}).ok());
  ASSERT_TRUE(huge.add_link(sg::SgLink{"l2", {"x", 1}, {"sap2", 0}, 1}).ok());
  const auto r = layer.update(huge);
  ASSERT_FALSE(r.ok());
  // Old version still running.
  EXPECT_EQ(layer.requests().at("svc").state,
            service::RequestState::kDeployed);
  EXPECT_TRUE(fx.ro->global_view().find_nf("svc.nat0").has_value());
  EXPECT_FALSE(fx.ro->global_view().find_nf("svc.x").has_value());
}

TEST(ServiceUpdate, UnknownOrRemovedRequestFails) {
  Fixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kSingleBisBis);
  SimClock clock;
  service::ServiceLayer layer(make_unify_link(virt, clock, "north"));
  EXPECT_EQ(layer.update(sg::make_chain("nope", "sap1", {}, "sap2", 1, 9))
                .error()
                .code,
            ErrorCode::kNotFound);
}

}  // namespace
}  // namespace unify::core
