#include <gtest/gtest.h>

#include "adapters/cloud_adapter.h"
#include "adapters/emu_adapter.h"
#include "adapters/sdn_adapter.h"
#include "adapters/un_adapter.h"
#include "model/nffg_builder.h"

namespace unify::adapters {
namespace {

using model::Resources;

// ------------------------------------------------------------ SdnAdapter

struct SdnFixture : ::testing::Test {
  SdnFixture() : net(clock, "sdn") {
    EXPECT_TRUE(net.add_switch("s1", 4).ok());
    EXPECT_TRUE(net.add_switch("s2", 4).ok());
    EXPECT_TRUE(net.connect("s1", 1, "s2", 1, {1000, 1.0}).ok());
    EXPECT_TRUE(net.attach_sap("sapA", "s1", 0, {1000, 0.1}).ok());
  }
  SimClock clock;
  infra::SdnNetwork net;
};

TEST_F(SdnFixture, ViewIsForwardingOnly) {
  SdnAdapter adapter(net);
  auto view = adapter.fetch_view();
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  EXPECT_EQ(view->bisbis().size(), 2u);
  const model::BisBis* s1 = view->find_bisbis("sdn.s1");
  ASSERT_NE(s1, nullptr);
  EXPECT_TRUE(s1->capacity.is_zero());
  EXPECT_EQ(view->saps().size(), 1u);
  // Wires + SAP attachment, both directions.
  EXPECT_EQ(view->links().size(), 4u);
  EXPECT_TRUE(view->validate().empty());
}

TEST_F(SdnFixture, ApplyInstallsFlows) {
  SdnAdapter adapter(net);
  auto view = adapter.fetch_view();
  ASSERT_TRUE(view.ok());
  model::Nffg desired = *view;
  ASSERT_TRUE(desired
                  .add_flowrule("sdn.s1",
                                model::Flowrule{"r1", {"sdn.s1", 0},
                                                {"sdn.s1", 1}, "", "t", 10})
                  .ok());
  ASSERT_TRUE(adapter.apply(desired).ok());
  EXPECT_EQ(net.fabric().find_switch("s1")->entries().size(), 1u);
  EXPECT_EQ(adapter.native_operations(), 1u);
  // Re-applying the same config is a no-op delta.
  ASSERT_TRUE(adapter.apply(desired).ok());
  EXPECT_EQ(adapter.native_operations(), 1u);
  // Removing the rule uninstalls it.
  ASSERT_TRUE(adapter.apply(*view).ok());
  EXPECT_TRUE(net.fabric().find_switch("s1")->entries().empty());
}

TEST_F(SdnFixture, RejectsNfPlacement) {
  SdnAdapter adapter(net);
  auto view = adapter.fetch_view();
  ASSERT_TRUE(view.ok());
  model::Nffg desired = *view;
  ASSERT_TRUE(desired
                  .place_nf("sdn.s1", model::make_nf("nf", "nat", {1, 1, 1}),
                            true)
                  .ok());
  auto r = adapter.apply(desired);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kRejected);
}

// ---------------------------------------------------------- CloudAdapter

struct CloudFixture : ::testing::Test {
  CloudFixture() : cloud(clock, "dc") {
    EXPECT_TRUE(cloud.add_hypervisor("hv1", {8, 8192, 100}).ok());
    EXPECT_TRUE(cloud.add_hypervisor("hv2", {8, 8192, 100}).ok());
    adapter = std::make_unique<CloudAdapter>(cloud);
    adapter->map_sap(0, "sapX", {10000, 0.1});
    adapter->map_sap(1, "sapY", {10000, 0.1});
  }
  SimClock clock;
  infra::Cloud cloud;
  std::unique_ptr<CloudAdapter> adapter;
};

TEST_F(CloudFixture, ViewIsOneBigNode) {
  auto view = adapter->fetch_view();
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  EXPECT_EQ(view->bisbis().size(), 1u);
  const model::BisBis* dc = view->find_bisbis("dc.dc");
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(dc->capacity, (Resources{16, 16384, 200}));
  EXPECT_EQ(view->saps().size(), 2u);
  EXPECT_TRUE(view->validate().empty());
}

TEST_F(CloudFixture, ApplyBootsVmsAndSteers) {
  auto view = adapter->fetch_view();
  ASSERT_TRUE(view.ok());
  model::Nffg desired = *view;
  ASSERT_TRUE(
      desired.place_nf("dc.dc", model::make_nf("fw0", "firewall",
                                               {2, 1024, 4}, 2))
          .ok());
  ASSERT_TRUE(desired
                  .add_flowrule("dc.dc",
                                model::Flowrule{"in", {"dc.dc", 0},
                                                {"fw0", 0}, "", "", 10})
                  .ok());
  ASSERT_TRUE(desired
                  .add_flowrule("dc.dc",
                                model::Flowrule{"out", {"fw0", 1},
                                                {"dc.dc", 1}, "", "", 10})
                  .ok());
  ASSERT_TRUE(adapter->apply(desired).ok());
  ASSERT_NE(cloud.find_vm("fw0"), nullptr);
  EXPECT_EQ(cloud.find_vm("fw0")->image, "firewall");

  // Status flows north once the VM becomes ACTIVE.
  auto early = adapter->fetch_view();
  ASSERT_TRUE(early.ok());
  EXPECT_EQ(early->find_bisbis("dc.dc")->nfs.at("fw0").status,
            model::NfStatus::kDeploying);
  clock.run_until_idle();
  auto late = adapter->fetch_view();
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late->find_bisbis("dc.dc")->nfs.at("fw0").status,
            model::NfStatus::kRunning);

  // Data plane wired ext0 -> fw0:0 and fw0:1 -> ext1.
  auto in_trace = cloud.fabric().trace("ext0");
  EXPECT_EQ(in_trace.egress_endpoint, "fw0:0");
  auto out_trace = cloud.fabric().trace("fw0:1");
  EXPECT_EQ(out_trace.egress_endpoint, "ext1");

  // Teardown.
  ASSERT_TRUE(adapter->apply(*view).ok());
  EXPECT_EQ(cloud.find_vm("fw0")->status, infra::VmStatus::kDeleted);
  EXPECT_TRUE(cloud.fabric().trace("ext0").dropped);
}

TEST_F(CloudFixture, CapacityErrorsSurface) {
  auto view = adapter->fetch_view();
  ASSERT_TRUE(view.ok());
  model::Nffg desired = *view;
  ASSERT_TRUE(desired
                  .place_nf("dc.dc",
                            model::make_nf("huge", "dpi", {100, 1, 1}, 2),
                            true)
                  .ok());
  auto r = adapter->apply(desired);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kResourceExhausted);
}

// ------------------------------------------------------------- UnAdapter

TEST(UnAdapterTest, FullLifecycle) {
  SimClock clock;
  infra::UniversalNode un(clock, "un", {8, 8192, 100});
  UnAdapter adapter(un);
  adapter.map_sap(0, "in", {10000, 0.1});
  adapter.map_sap(1, "out", {10000, 0.1});
  auto view = adapter.fetch_view();
  ASSERT_TRUE(view.ok());
  EXPECT_NE(view->find_bisbis("un.un"), nullptr);

  model::Nffg desired = *view;
  ASSERT_TRUE(
      desired.place_nf("un.un", model::make_nf("nat0", "nat", {1, 512, 1}, 2))
          .ok());
  ASSERT_TRUE(desired
                  .add_flowrule("un.un",
                                model::Flowrule{"i", {"un.un", 0},
                                                {"nat0", 0}, "", "", 5})
                  .ok());
  ASSERT_TRUE(desired
                  .add_flowrule("un.un",
                                model::Flowrule{"o", {"nat0", 1},
                                                {"un.un", 1}, "", "", 5})
                  .ok());
  ASSERT_TRUE(adapter.apply(desired).ok());
  ASSERT_NE(un.find_container("nat0"), nullptr);
  EXPECT_EQ(un.fabric().trace("ext0").egress_endpoint, "nat0:0");

  auto refreshed = adapter.fetch_view();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->find_bisbis("un.un")->nfs.at("nat0").status,
            model::NfStatus::kRunning);

  ASSERT_TRUE(adapter.apply(*view).ok());
  EXPECT_EQ(un.find_container("nat0")->status,
            infra::ContainerStatus::kStopped);
}

// ------------------------------------------------------------ EmuAdapter

TEST(EmuAdapterTest, ClickProcessesAndFlows) {
  SimClock clock;
  infra::EmuNetwork emu(clock, "emu");
  ASSERT_TRUE(emu.add_switch("s1", 4, {4, 4096, 50}).ok());
  ASSERT_TRUE(emu.add_switch("s2", 4, {4, 4096, 50}).ok());
  ASSERT_TRUE(emu.connect("s1", 1, "s2", 1, {1000, 0.5}).ok());
  ASSERT_TRUE(emu.attach_sap("sapA", "s1", 0, {1000, 0.1}).ok());

  EmuAdapter adapter(emu);
  auto view = adapter.fetch_view();
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  EXPECT_EQ(view->bisbis().size(), 2u);
  EXPECT_EQ(view->find_bisbis("emu.s1")->capacity,
            (Resources{4, 4096, 50}));

  model::Nffg desired = *view;
  ASSERT_TRUE(
      desired.place_nf("emu.s1", model::make_nf("nf0", "nat", {1, 256, 1}, 2))
          .ok());
  ASSERT_TRUE(desired
                  .add_flowrule("emu.s1",
                                model::Flowrule{"i", {"emu.s1", 0},
                                                {"nf0", 0}, "", "", 5})
                  .ok());
  ASSERT_TRUE(desired
                  .add_flowrule("emu.s1",
                                model::Flowrule{"o", {"nf0", 1},
                                                {"emu.s1", 1}, "", "", 5})
                  .ok());
  ASSERT_TRUE(adapter.apply(desired).ok());
  ASSERT_NE(emu.find_click("nf0"), nullptr);
  EXPECT_EQ(emu.find_click("nf0")->host, "s1");
  // Packet from sapA enters the click process.
  EXPECT_EQ(emu.fabric().trace("sapA").egress_endpoint, "nf0:0");

  ASSERT_TRUE(adapter.apply(*view).ok());
  EXPECT_FALSE(emu.find_click("nf0")->running);
}

TEST(EmuAdapterTest, RuleToMissingClickFails) {
  SimClock clock;
  infra::EmuNetwork emu(clock, "emu");
  ASSERT_TRUE(emu.add_switch("s1", 4, {4, 4096, 50}).ok());
  EmuAdapter adapter(emu);
  auto view = adapter.fetch_view();
  ASSERT_TRUE(view.ok());
  model::Nffg desired = *view;
  // Rule references an NF never placed: the model layer already rejects
  // the flowrule (unresolvable port), so building `desired` fails.
  auto bad = desired.add_flowrule(
      "emu.s1",
      model::Flowrule{"r", {"ghost", 0}, {"emu.s1", 0}, "", "", 0});
  EXPECT_FALSE(bad.ok());
}

TEST(FullReinstallAblation, SameFinalStateMoreOps) {
  SimClock clock;
  infra::UniversalNode un_delta(clock, "a", {8, 8192, 100});
  infra::UniversalNode un_naive(clock, "b", {8, 8192, 100});
  UnAdapter delta(un_delta);
  UnAdapter naive(un_naive);
  for (UnAdapter* adapter : {&delta, &naive}) {
    adapter->map_sap(0, "in", {1000, 0.1});
    adapter->map_sap(1, "out", {1000, 0.1});
  }
  auto view_delta = delta.fetch_view();
  auto view_naive = naive.fetch_view();
  ASSERT_TRUE(view_delta.ok());
  ASSERT_TRUE(view_naive.ok());

  const auto grow = [](model::Nffg config, const std::string& node, int n) {
    for (int i = 0; i < n; ++i) {
      const std::string nf = "nf" + std::to_string(i);
      EXPECT_TRUE(config
                      .place_nf(node, model::make_nf(nf, "monitor",
                                                     {1, 64, 1}, 2))
                      .ok());
    }
    return config;
  };
  // Apply config with 1 NF, then with 3 NFs (superset).
  ASSERT_TRUE(delta.apply(grow(*view_delta, "a.un", 1)).ok());
  ASSERT_TRUE(naive.apply(grow(*view_naive, "b.un", 1)).ok());
  const std::uint64_t delta_before = delta.native_operations();
  const std::uint64_t naive_before = naive.native_operations();
  ASSERT_TRUE(delta.apply(grow(*view_delta, "a.un", 3)).ok());
  // The naive strategy: tear down to the initial empty view, then install
  // everything desired.
  ASSERT_TRUE(naive.apply(*view_naive).ok());
  ASSERT_TRUE(naive.apply(grow(*view_naive, "b.un", 3)).ok());

  // Same final state in both domains...
  EXPECT_EQ(un_delta.containers().size(), 3u);
  EXPECT_EQ(un_naive.containers().size(), 3u);
  EXPECT_EQ(un_delta.allocated(), un_naive.allocated());
  // ...but the naive strategy paid for re-creating the surviving NF.
  const std::uint64_t delta_ops = delta.native_operations() - delta_before;
  const std::uint64_t naive_ops = naive.native_operations() - naive_before;
  EXPECT_EQ(delta_ops, 2u);   // the two new containers
  EXPECT_EQ(naive_ops, 4u);   // stop 1 + start 3
}


// ------------------------------------------------------------ BaseAdapter

// One node whose native rule installs fail on a chosen rule id.
class RuleFaultAdapter final : public BaseAdapter {
 public:
  explicit RuleFaultAdapter(std::string fail_on) : fail_on_(std::move(fail_on)) {}
  [[nodiscard]] const std::string& domain() const noexcept override {
    return domain_;
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return ops_;
  }

 protected:
  [[nodiscard]] Result<model::Nffg> build_skeleton() override {
    model::Nffg view{"d-view"};
    model::BisBis bb;
    bb.id = "d.bb";
    for (int p = 0; p < 2; ++p) bb.ports.push_back(model::Port{p, ""});
    UNIFY_RETURN_IF_ERROR(view.add_bisbis(std::move(bb)));
    return view;
  }
  Result<void> do_place_nf(const std::string&,
                           const model::NfInstance&) override {
    ++ops_;
    return Result<void>::success();
  }
  Result<void> do_remove_nf(const std::string&, const std::string&) override {
    ++ops_;
    return Result<void>::success();
  }
  Result<void> do_install_rule(const std::string&,
                               const model::Flowrule& rule) override {
    if (rule.id == fail_on_) {
      return Error{ErrorCode::kUnavailable, "switch rejected " + rule.id};
    }
    ++ops_;
    return Result<void>::success();
  }
  Result<void> do_remove_rule(const std::string&, const std::string&) override {
    ++ops_;
    return Result<void>::success();
  }

 private:
  std::string domain_ = "d";
  std::string fail_on_;
  std::uint64_t ops_ = 0;
};

TEST(BaseAdapterTest, FailedRuleInstallKeepsTheInstalledOnesOnRecord) {
  RuleFaultAdapter adapter("r2");
  auto view = adapter.fetch_view();
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  model::Nffg desired = *view;
  for (const char* id : {"r1", "r2", "r3"}) {
    ASSERT_TRUE(desired
                    .add_flowrule("d.bb", model::Flowrule{id, {"d.bb", 0},
                                                          {"d.bb", 1}, "",
                                                          "", 1})
                    .ok());
  }
  const auto applied = adapter.apply(desired);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.error().code, ErrorCode::kUnavailable);
  // r1 was installed natively, so the record holds it; r2 failed and r3
  // was never attempted.
  EXPECT_EQ(adapter.native_operations(), 1u);
  auto after = adapter.fetch_view();
  ASSERT_TRUE(after.ok());
  const model::BisBis* bb = after->find_bisbis("d.bb");
  ASSERT_NE(bb, nullptr);
  ASSERT_EQ(bb->flowrules.size(), 1u);
  EXPECT_EQ(bb->flowrules.front().id, "r1");
}

}  // namespace
}  // namespace unify::adapters
