#include "core/resource_orchestrator.h"

#include <gtest/gtest.h>

#include "mapping/chain_dp_mapper.h"
#include "mapping/greedy_mapper.h"
#include "model/nffg_builder.h"

namespace unify::core {
namespace {

/// Fake domain: serves a canned view, accepts every config, records the
/// slices it was asked to apply.
class FakeAdapter final : public adapters::DomainAdapter {
 public:
  FakeAdapter(std::string name, model::Nffg view)
      : name_(std::move(name)), view_(std::move(view)) {}

  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override { return view_; }
  Result<void> apply(const model::Nffg& desired) override {
    if (fail_next_) {
      fail_next_ = false;
      return Error{ErrorCode::kRejected, name_ + " says no"};
    }
    applied_.push_back(desired);
    return Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return applied_.size();
  }

  void fail_next() { fail_next_ = true; }
  [[nodiscard]] const std::vector<model::Nffg>& applied() const {
    return applied_;
  }

 private:
  std::string name_;
  model::Nffg view_;
  std::vector<model::Nffg> applied_;
  bool fail_next_ = false;
};

/// One-BiS-BiS domain view with a customer SAP and a stitching SAP.
model::Nffg domain_view(const std::string& bb, const std::string& sap,
                        const std::string& stitch) {
  model::Nffg g{bb + "-view"};
  EXPECT_TRUE(
      g.add_bisbis(model::make_bisbis(bb, {16, 16384, 200}, 4)).ok());
  model::attach_sap(g, sap, bb, 0, {1000, 0.1});
  model::attach_sap(g, stitch, bb, 1, {1000, 0.5});
  return g;
}

std::unique_ptr<ResourceOrchestrator> two_domain_ro(
    FakeAdapter** left = nullptr, FakeAdapter** right = nullptr) {
  auto ro = std::make_unique<ResourceOrchestrator>(
      "ro", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog());
  auto a = std::make_unique<FakeAdapter>("d1",
                                         domain_view("bb1", "sap1", "xp"));
  auto b = std::make_unique<FakeAdapter>("d2",
                                         domain_view("bb2", "sap2", "xp"));
  if (left != nullptr) *left = a.get();
  if (right != nullptr) *right = b.get();
  EXPECT_TRUE(ro->add_domain(std::move(a)).ok());
  EXPECT_TRUE(ro->add_domain(std::move(b)).ok());
  EXPECT_TRUE(ro->initialize().ok());
  return ro;
}

TEST(Ro, InitializeMergesDomains) {
  auto ro = two_domain_ro();
  const model::Nffg& view = ro->global_view();
  EXPECT_EQ(view.bisbis().size(), 2u);
  EXPECT_EQ(view.saps().size(), 2u);          // stitch SAP consumed
  EXPECT_NE(view.find_link("xd-xp"), nullptr);  // inter-domain link
  EXPECT_EQ(ro->domain_names(),
            (std::vector<std::string>{"d1", "d2"}));
}

TEST(Ro, RejectsDuplicateDomainAndLateAdd) {
  auto ro = std::make_unique<ResourceOrchestrator>(
      "ro", std::make_shared<mapping::GreedyMapper>(),
      catalog::default_catalog());
  ASSERT_TRUE(ro->add_domain(std::make_unique<FakeAdapter>(
                                 "d1", domain_view("bb1", "sap1", "xp")))
                  .ok());
  EXPECT_EQ(ro->add_domain(std::make_unique<FakeAdapter>(
                               "d1", domain_view("bbX", "sapX", "xpX")))
                .error()
                .code,
            ErrorCode::kAlreadyExists);
  EXPECT_FALSE(ro->initialized());
  EXPECT_FALSE(ro->deploy(sg::make_chain("s", "sap1", {}, "sap2", 1, 9)).ok());
}

TEST(Ro, DeploySpansDomains) {
  FakeAdapter* left = nullptr;
  FakeAdapter* right = nullptr;
  auto ro = two_domain_ro(&left, &right);
  const auto request =
      ro->deploy(sg::make_chain("svc", "sap1", {"nat", "dpi"}, "sap2", 100,
                                50));
  ASSERT_TRUE(request.ok()) << request.error().to_string();
  EXPECT_EQ(*request, "svc");
  ASSERT_EQ(ro->deployments().size(), 1u);
  // Both domains received a slice push.
  ASSERT_FALSE(left->applied().empty());
  ASSERT_FALSE(right->applied().empty());
  // Global view carries the installed NFs and rules.
  const auto stats = ro->global_view().stats();
  EXPECT_EQ(stats.nf_count, 2u);
  EXPECT_GT(stats.flowrule_count, 0u);
}

TEST(Ro, DecompositionExpandsInGlobalView) {
  auto ro = two_domain_ro();
  const auto request = ro->deploy(
      sg::make_chain("svc", "sap1", {"secure-gw"}, "sap2", 50, 100));
  ASSERT_TRUE(request.ok()) << request.error().to_string();
  // secure-gw decomposed: the abstract NF never appears, components do.
  EXPECT_FALSE(ro->global_view().find_nf("secure-gw0").has_value());
  const auto& deployment = ro->deployments().at("svc");
  EXPECT_GE(deployment.expanded.nfs().size(), 2u);
}

TEST(Ro, RemoveRestoresView) {
  auto ro = two_domain_ro();
  const model::Nffg before = ro->global_view();
  ASSERT_TRUE(
      ro->deploy(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 50))
          .ok());
  ASSERT_TRUE(ro->remove("svc").ok());
  EXPECT_EQ(ro->global_view(), before);
  EXPECT_TRUE(ro->deployments().empty());
  EXPECT_EQ(ro->remove("svc").error().code, ErrorCode::kNotFound);
}

TEST(Ro, DuplicateRequestIdRejected) {
  auto ro = two_domain_ro();
  ASSERT_TRUE(
      ro->deploy(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 50))
          .ok());
  EXPECT_EQ(
      ro->deploy(sg::make_chain("svc", "sap1", {"dpi"}, "sap2", 10, 50))
          .error()
          .code,
      ErrorCode::kAlreadyExists);
}

TEST(Ro, InfeasibleRequestLeavesNoTrace) {
  auto ro = two_domain_ro();
  const model::Nffg before = ro->global_view();
  // Demands more CPU than any node offers.
  sg::ServiceGraph sg{"huge"};
  ASSERT_TRUE(sg.add_sap("sap1").ok());
  ASSERT_TRUE(sg.add_sap("sap2").ok());
  ASSERT_TRUE(
      sg.add_nf(sg::SgNf{"x", "nat", 2, model::Resources{999, 1, 1}}).ok());
  ASSERT_TRUE(sg.add_link(sg::SgLink{"l1", {"sap1", 0}, {"x", 0}, 1}).ok());
  ASSERT_TRUE(sg.add_link(sg::SgLink{"l2", {"x", 1}, {"sap2", 0}, 1}).ok());
  EXPECT_FALSE(ro->deploy(sg).ok());
  EXPECT_EQ(ro->global_view(), before);
  EXPECT_TRUE(ro->deployments().empty());
}

TEST(Ro, DeployPinnedHonoursPlacement) {
  auto ro = two_domain_ro();
  const sg::ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 50);
  const ResourceOrchestrator::Pins pins{{"nat0", "bb2"}};
  ASSERT_TRUE(ro->map_batch({sg}, &pins)[0].ok());
  const auto placed = ro->global_view().find_nf("nat0");
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(placed->first, "bb2");
}

TEST(Ro, DeployPinnedRejectsMissingPin) {
  auto ro = two_domain_ro();
  const sg::ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 50);
  const ResourceOrchestrator::Pins none;
  EXPECT_FALSE(ro->map_batch({sg}, &none)[0].ok());
  EXPECT_TRUE(ro->deployments().empty());
}

TEST(Ro, DomainRejectionSurfaces) {
  FakeAdapter* left = nullptr;
  auto ro = two_domain_ro(&left);
  left->fail_next();
  const auto request =
      ro->deploy(sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 50));
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.error().code, ErrorCode::kRejected);
}

TEST(Ro, MetricsAccumulate) {
  auto ro = two_domain_ro();
  ASSERT_TRUE(
      ro->deploy(sg::make_chain("a", "sap1", {"nat"}, "sap2", 10, 50)).ok());
  ASSERT_TRUE(
      ro->deploy(sg::make_chain("b", "sap1", {"dpi"}, "sap2", 10, 50)).ok());
  EXPECT_EQ(ro->metrics().counter("ro.deployments"), 2u);
  EXPECT_EQ(ro->metrics().counter("ro.slice_pushes"), 4u);
}

}  // namespace
}  // namespace unify::core
