#include "core/virtualizer.h"

#include <gtest/gtest.h>

#include <map>

#include "core/config_translate.h"
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

model::Nffg domain_view(const std::string& bb, const std::string& sap,
                        const std::string& stitch) {
  model::Nffg g{bb + "-view"};
  EXPECT_TRUE(
      g.add_bisbis(model::make_bisbis(bb, {16, 16384, 200}, 4, 0.1)).ok());
  model::attach_sap(g, sap, bb, 0, {1000, 0.1});
  if (!stitch.empty()) model::attach_sap(g, stitch, bb, 1, {1000, 0.5});
  return g;
}

struct RoFixture {
  RoFixture() {
    ro = std::make_unique<ResourceOrchestrator>(
        "ro", std::make_shared<mapping::ChainDpMapper>(),
        catalog::default_catalog());
    EXPECT_TRUE(ro->add_domain(std::make_unique<AcceptAllAdapter>(
                                   "d1", domain_view("bb1", "sap1", "xp")))
                    .ok());
    EXPECT_TRUE(ro->add_domain(std::make_unique<AcceptAllAdapter>(
                                   "d2", domain_view("bb2", "sap2", "xp")))
                    .ok());
    EXPECT_TRUE(ro->initialize().ok());
  }
  std::unique_ptr<ResourceOrchestrator> ro;
};

TEST(VirtualizerSingle, RendersCollapsedView) {
  RoFixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kSingleBisBis);
  auto config = virt.get_config();
  ASSERT_TRUE(config.ok()) << config.error().to_string();
  EXPECT_EQ(config->bisbis().size(), 1u);
  const model::BisBis& big = config->bisbis().begin()->second;
  EXPECT_EQ(big.id, "ro.big");
  // Aggregate capacity of both domains.
  EXPECT_EQ(big.capacity, (model::Resources{32, 32768, 400}));
  // Both customer SAPs visible, stitching SAP hidden.
  EXPECT_EQ(config->saps().size(), 2u);
  EXPECT_NE(config->find_sap("sap1"), nullptr);
  EXPECT_EQ(config->find_sap("xp"), nullptr);
  // Advertised internal delay covers the worst transit: sap1->sap2 path is
  // 0.1 + 0.1(bb1) + 1.0(xd) + 0.1(bb2) + 0.1 minus the attachment legs.
  EXPECT_NEAR(big.internal_delay, 1.2, 1e-9);
  EXPECT_TRUE(config->validate().empty());
}

TEST(VirtualizerSingle, EditConfigDeploysThroughRo) {
  RoFixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kSingleBisBis);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok());

  const sg::ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"nat", "dpi"}, "sap2", 50, 100);
  auto desired = service_graph_to_config(sg, *view, "ro.big");
  ASSERT_TRUE(desired.ok());
  ASSERT_TRUE(virt.edit_config(*desired).ok());

  EXPECT_EQ(fx.ro->deployments().size(), 1u);
  EXPECT_TRUE(fx.ro->global_view().find_nf("nat0").has_value());
  EXPECT_EQ(virt.active_requests().size(), 1u);
}

TEST(VirtualizerSingle, GetConfigEchoesAcceptedWithStatuses) {
  RoFixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kSingleBisBis);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok());
  const sg::ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"firewall"}, "sap2", 50, 100);
  auto desired = service_graph_to_config(sg, *view, "ro.big");
  ASSERT_TRUE(desired.ok());
  ASSERT_TRUE(virt.edit_config(*desired).ok());

  auto config = virt.get_config();
  ASSERT_TRUE(config.ok());
  const model::BisBis* big = config->find_bisbis("ro.big");
  ASSERT_NE(big, nullptr);
  // The client sees its abstract firewall (not the decomposed components).
  ASSERT_EQ(big->nfs.count("firewall0"), 1u);
  // Status rolled up from the components below (fake adapters never flip
  // them to running, so the aggregate is requested/deploying).
  EXPECT_NE(big->nfs.at("firewall0").status, model::NfStatus::kRunning);
}

TEST(VirtualizerSingle, IncrementalEditAddsAndRemovesServices) {
  RoFixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kSingleBisBis);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok());

  // Deploy service A.
  const sg::ServiceGraph a =
      sg::make_chain("a", "sap1", {"nat"}, "sap2", 10, 100);
  auto config_a = service_graph_to_config(a, *view, "ro.big");
  ASSERT_TRUE(config_a.ok());
  ASSERT_TRUE(virt.edit_config(*config_a).ok());
  ASSERT_EQ(fx.ro->deployments().size(), 1u);
  const std::string first_request = virt.active_requests()[0];

  // Add service B on top (config = A + B): A must stay untouched.
  model::Nffg config_ab = *config_a;
  ASSERT_TRUE(config_ab
                  .place_nf("ro.big",
                            model::make_nf("dpi0", "dpi", {4, 4096, 8}, 2),
                            true)
                  .ok());
  ASSERT_TRUE(config_ab
                  .add_flowrule("ro.big",
                                model::Flowrule{"b1", {"ro.big", 0},
                                                {"dpi0", 0}, "", "", 5})
                  .ok());
  ASSERT_TRUE(config_ab
                  .add_flowrule("ro.big",
                                model::Flowrule{"b2", {"dpi0", 1},
                                                {"ro.big", 1}, "", "", 5})
                  .ok());
  ASSERT_TRUE(virt.edit_config(config_ab).ok());
  EXPECT_EQ(fx.ro->deployments().size(), 2u);
  // Service A's RO request survived (not redeployed).
  const auto requests = virt.active_requests();
  EXPECT_NE(std::find(requests.begin(), requests.end(), first_request),
            requests.end());

  // Remove service A (config = B only).
  model::Nffg config_b = config_ab;
  ASSERT_TRUE(config_b.remove_nf("ro.big", "nat0").ok());
  // nat0's rules died with it; drop the chain rules referencing big ports.
  ASSERT_TRUE(virt.edit_config(config_b).ok());
  EXPECT_EQ(fx.ro->deployments().size(), 1u);
  EXPECT_FALSE(fx.ro->global_view().find_nf("nat0").has_value());
  EXPECT_TRUE(fx.ro->global_view().find_nf("dpi0").has_value());
}

TEST(VirtualizerSingle, ModifiedServiceRedeploys) {
  RoFixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kSingleBisBis);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok());
  const sg::ServiceGraph a =
      sg::make_chain("a", "sap1", {"nat"}, "sap2", 10, 100);
  auto config = service_graph_to_config(a, *view, "ro.big");
  ASSERT_TRUE(config.ok());
  ASSERT_TRUE(virt.edit_config(*config).ok());
  const std::string first_request = virt.active_requests()[0];

  // Raise the chain bandwidth: same elements, changed link.
  model::Nffg modified = *config;
  for (model::Flowrule& rule :
       modified.find_bisbis("ro.big")->flowrules) {
    rule.bandwidth = 20;
  }
  ASSERT_TRUE(virt.edit_config(modified).ok());
  ASSERT_EQ(virt.active_requests().size(), 1u);
  EXPECT_NE(virt.active_requests()[0], first_request);  // redeployed
}

TEST(VirtualizerSingle, EmptyConfigTearsEverythingDown) {
  RoFixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kSingleBisBis);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok());
  const sg::ServiceGraph a =
      sg::make_chain("a", "sap1", {"nat"}, "sap2", 10, 100);
  auto config = service_graph_to_config(a, *view, "ro.big");
  ASSERT_TRUE(config.ok());
  ASSERT_TRUE(virt.edit_config(*config).ok());
  ASSERT_TRUE(virt.edit_config(*view).ok());  // back to the bare skeleton
  EXPECT_TRUE(fx.ro->deployments().empty());
  EXPECT_TRUE(virt.active_requests().empty());
}

TEST(VirtualizerFull, ClientControlsPlacement) {
  RoFixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kFull);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->bisbis().size(), 2u);  // real topology

  // Client writes an NF onto bb2 explicitly, chain sap1 -> nf -> sap2.
  model::Nffg desired = *view;
  ASSERT_TRUE(
      desired.place_nf("bb2", model::make_nf("nf", "nat", {1, 512, 1}, 2))
          .ok());
  ASSERT_TRUE(desired
                  .add_flowrule("bb1", model::Flowrule{"c0", {"bb1", 0},
                                                       {"bb1", 1}, "",
                                                       "c0", 5})
                  .ok());
  ASSERT_TRUE(desired
                  .add_flowrule("bb2", model::Flowrule{"c0@", {"bb2", 1},
                                                       {"nf", 0}, "c0", "-",
                                                       5})
                  .ok());
  ASSERT_TRUE(desired
                  .add_flowrule("bb2", model::Flowrule{"c1", {"nf", 1},
                                                       {"bb2", 0}, "", "", 5})
                  .ok());
  ASSERT_TRUE(virt.edit_config(desired).ok());
  const auto placed = fx.ro->global_view().find_nf("nf");
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(placed->first, "bb2");  // the pin was honoured
}

TEST(VirtualizerFull, MovedNfRedeploys) {
  RoFixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kFull);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok());
  model::Nffg desired = *view;
  ASSERT_TRUE(
      desired.place_nf("bb1", model::make_nf("nf", "nat", {1, 512, 1}, 2))
          .ok());
  ASSERT_TRUE(desired
                  .add_flowrule("bb1", model::Flowrule{"c0", {"bb1", 0},
                                                       {"nf", 0}, "", "", 5})
                  .ok());
  ASSERT_TRUE(desired
                  .add_flowrule("bb1", model::Flowrule{"c1", {"nf", 1},
                                                       {"bb1", 0}, "", "", 5})
                  .ok());
  ASSERT_TRUE(virt.edit_config(desired).ok());
  ASSERT_EQ(fx.ro->global_view().find_nf("nf")->first, "bb1");

  // Move the NF to bb2 (same ids, new placement + rules).
  model::Nffg moved = *view;
  ASSERT_TRUE(
      moved.place_nf("bb2", model::make_nf("nf", "nat", {1, 512, 1}, 2))
          .ok());
  ASSERT_TRUE(moved
                  .add_flowrule("bb2", model::Flowrule{"c0", {"bb2", 0},
                                                       {"nf", 0}, "", "", 5})
                  .ok());
  ASSERT_TRUE(moved
                  .add_flowrule("bb2", model::Flowrule{"c1", {"nf", 1},
                                                       {"bb2", 0}, "", "", 5})
                  .ok());
  ASSERT_TRUE(virt.edit_config(moved).ok());
  ASSERT_EQ(fx.ro->global_view().find_nf("nf")->first, "bb2");
}

/// Places `nf` on bb1 of a full view with a sap1 -> nf -> sap1 loop
/// (bb1 port 0 faces sap1). `force` skips the capacity check, so the
/// client can write an NF no BiS-BiS can host.
void place_looped(model::Nffg& config, const std::string& nf,
                  const model::Resources& demand, bool force = false) {
  ASSERT_TRUE(
      config.place_nf("bb1", model::make_nf(nf, "nat", demand, 2), force)
          .ok());
  ASSERT_TRUE(config
                  .add_flowrule("bb1", model::Flowrule{nf + "-in", {"bb1", 0},
                                                       {nf, 0}, "", "", 5})
                  .ok());
  ASSERT_TRUE(config
                  .add_flowrule("bb1", model::Flowrule{nf + "-out", {nf, 1},
                                                       {"bb1", 0}, "", "", 5})
                  .ok());
}

TEST(VirtualizerFull, ComponentsCommitIndependently) {
  RoFixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kFull);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(fx.ro->resync_domains().ok());  // every domain acked once

  // Second component infeasible: the first stays deployed, and the error
  // names every client element of the second, with its code.
  model::Nffg doomed = *view;
  place_looped(doomed, "a", {1, 512, 1});
  place_looped(doomed, "b", {999, 512, 1}, /*force=*/true);
  const auto partial = virt.edit_config(doomed);
  ASSERT_FALSE(partial.ok());
  std::vector<std::string> paths;
  for (const Error::Cause& cause : partial.error().causes) {
    paths.push_back(cause.path);
    EXPECT_EQ(cause.code, partial.error().code) << cause.path;
    EXPECT_EQ(cause.message, partial.error().message) << cause.path;
  }
  EXPECT_EQ(paths, (std::vector<std::string>{"b", "b-in", "b-out"}));
  EXPECT_EQ(virt.active_requests(), (std::vector<std::string>{"ro-r1"}));
  EXPECT_EQ(fx.ro->global_view().find_nf("a")->first, "bb1");
  EXPECT_FALSE(fx.ro->global_view().find_nf("b").has_value());
  // The accepted config is the desired one minus the failed elements.
  const auto accepted = virt.get_config();
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(accepted->find_nf("a").has_value());
  EXPECT_FALSE(accepted->find_nf("b").has_value());
  EXPECT_EQ(accepted->find_bisbis("bb1")->flowrules.size(), 2u);

  // Both feasible: a is untouched, only b deploys (one southbound fan-out,
  // d1 only), and the failed component's request number stays used up.
  model::Nffg two = *view;
  place_looped(two, "a", {1, 512, 1});
  place_looped(two, "b", {1, 512, 1});
  const auto fanout = fx.ro->metrics().counter("ro.push.fanout");
  ASSERT_TRUE(virt.edit_config(two).ok());
  EXPECT_EQ(fx.ro->metrics().counter("ro.push.fanout") - fanout, 1u);
  EXPECT_EQ(virt.active_requests(),
            (std::vector<std::string>{"ro-r1", "ro-r3"}));
  EXPECT_EQ(fx.ro->global_view().find_nf("a")->first, "bb1");
  EXPECT_EQ(fx.ro->global_view().find_nf("b")->first, "bb1");
}

TEST(VirtualizerSingle, DisconnectedSapsStillRender) {
  // Two domains with NO stitching SAP: the merged view is disconnected;
  // the collapsed view must still render (unreachable SAP pairs simply do
  // not contribute to the advertised internal delay).
  auto ro = std::make_unique<ResourceOrchestrator>(
      "ro", std::make_shared<mapping::ChainDpMapper>(),
      catalog::default_catalog());
  ASSERT_TRUE(ro->add_domain(std::make_unique<AcceptAllAdapter>(
                                 "d1", domain_view("bb1", "sap1", "")))
                  .ok());
  ASSERT_TRUE(ro->add_domain(std::make_unique<AcceptAllAdapter>(
                                 "d2", domain_view("bb2", "sap2", "")))
                  .ok());
  ASSERT_TRUE(ro->initialize().ok());
  Virtualizer virt(*ro, ViewPolicy::kSingleBisBis);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok()) << view.error().to_string();
  EXPECT_EQ(view->saps().size(), 2u);
  // No finite cross-SAP transit: internal delay collapses to zero.
  EXPECT_EQ(view->bisbis().begin()->second.internal_delay, 0.0);
}

/// `count` independent one-NF chains sap1 -> n<i> -> sap2 in one graph:
/// each becomes its own RO service (no requirements, so no chain is tied
/// to another through a shared SAP pair).
sg::ServiceGraph parallel_chains(int count) {
  sg::ServiceGraph graph{"chains"};
  EXPECT_TRUE(graph.add_sap("sap1").ok());
  EXPECT_TRUE(graph.add_sap("sap2").ok());
  for (int i = 0; i < count; ++i) {
    const std::string n = "n" + std::to_string(i);
    EXPECT_TRUE(graph.add_nf(sg::SgNf{n, "nat", 2, {}}).ok());
    EXPECT_TRUE(
        graph.add_link(sg::SgLink{"in" + n, {"sap1", 0}, {n, 0}, 10}).ok());
    EXPECT_TRUE(
        graph.add_link(sg::SgLink{"out" + n, {n, 1}, {"sap2", 0}, 10}).ok());
  }
  return graph;
}

TEST(VirtualizerSingle, DroppingServicesIsOneFanOut) {
  RoFixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kSingleBisBis);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok());
  auto four = service_graph_to_config(parallel_chains(4), *view, "ro.big");
  ASSERT_TRUE(four.ok());
  ASSERT_TRUE(virt.edit_config(*four).ok());
  ASSERT_EQ(fx.ro->deployments().size(), 4u);

  // Keep n0, drop the other three: one removal fan-out, at most one push
  // per domain.
  auto one = service_graph_to_config(parallel_chains(1), *view, "ro.big");
  ASSERT_TRUE(one.ok());
  const auto fanout = fx.ro->metrics().counter("ro.push.fanout");
  ASSERT_TRUE(virt.edit_config(*one).ok());
  EXPECT_LE(fx.ro->metrics().counter("ro.push.fanout") - fanout,
            fx.ro->domain_names().size());
  EXPECT_EQ(fx.ro->deployments().size(), 1u);
  EXPECT_EQ(virt.active_requests().size(), 1u);
  EXPECT_TRUE(fx.ro->global_view().find_nf("n0").has_value());
  EXPECT_FALSE(fx.ro->global_view().find_nf("n1").has_value());
}

/// Accepts every slice and reports its NFs back with the statuses in
/// `statuses` (unlisted NFs run), so sync_statuses() can set them.
class StatusAdapter final : public adapters::DomainAdapter {
 public:
  StatusAdapter(std::string name, model::Nffg view,
                const std::map<std::string, model::NfStatus>& statuses)
      : name_(std::move(name)), view_(std::move(view)), statuses_(&statuses) {}
  [[nodiscard]] const std::string& domain() const noexcept override {
    return name_;
  }
  [[nodiscard]] Result<model::Nffg> fetch_view() override {
    model::Nffg out = view_;
    for (auto& [bb_id, bb] : out.bisbis()) {
      for (auto& [nf_id, nf] : bb.nfs) {
        const auto it = statuses_->find(nf_id);
        nf.status =
            it == statuses_->end() ? model::NfStatus::kRunning : it->second;
      }
    }
    return out;
  }
  Result<void> apply(const model::Nffg& desired) override {
    view_ = desired;
    return Result<void>::success();
  }
  [[nodiscard]] std::uint64_t native_operations() const noexcept override {
    return 0;
  }

 private:
  std::string name_;
  model::Nffg view_;
  const std::map<std::string, model::NfStatus>* statuses_;
};

TEST(VirtualizerSingle, StatusRollupMatchesExactIdAndDotPrefixOnly) {
  // "combo" never fits a BiS-BiS whole, so NF "a" always decomposes into
  // a.x and a.y. "a-b" sorts between "a" and "a.x"; "ab" merely shares the
  // prefix. Neither may leak into a's roll-up, nor a's components into
  // theirs.
  catalog::NfCatalog catalog = catalog::default_catalog();
  ASSERT_TRUE(catalog
                  .register_type(catalog::NfType{
                      "combo", {1000, 512, 1}, 2, "decompose-only"})
                  .ok());
  catalog::Decomposition split;
  split.id = "combo-split";
  split.target_type = "combo";
  split.components = {{"x", "nat", 2}, {"y", "nat", 2}};
  split.internal_links = {{model::PortRef{"x", 1}, model::PortRef{"y", 0}, 1}};
  split.port_map = {{0, model::PortRef{"x", 0}}, {1, model::PortRef{"y", 1}}};
  ASSERT_TRUE(catalog.register_decomposition(std::move(split)).ok());

  std::map<std::string, model::NfStatus> statuses;
  ResourceOrchestrator ro("ro", std::make_shared<mapping::ChainDpMapper>(),
                          std::move(catalog));
  ASSERT_TRUE(ro.add_domain(std::make_unique<StatusAdapter>(
                                "d1", domain_view("bb1", "sap1", "xp"),
                                statuses))
                  .ok());
  ASSERT_TRUE(ro.add_domain(std::make_unique<StatusAdapter>(
                                "d2", domain_view("bb2", "sap2", "xp"),
                                statuses))
                  .ok());
  ASSERT_TRUE(ro.initialize().ok());
  Virtualizer virt(ro, ViewPolicy::kSingleBisBis);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok());

  sg::ServiceGraph graph{"svc"};
  ASSERT_TRUE(graph.add_sap("sap1").ok());
  ASSERT_TRUE(graph.add_sap("sap2").ok());
  ASSERT_TRUE(graph.add_nf(sg::SgNf{"a", "combo", 2, {}}).ok());
  ASSERT_TRUE(graph.add_nf(sg::SgNf{"a-b", "nat", 2, {}}).ok());
  ASSERT_TRUE(graph.add_nf(sg::SgNf{"ab", "nat", 2, {}}).ok());
  for (const sg::SgLink& link :
       {sg::SgLink{"l0", {"sap1", 0}, {"a", 0}, 10},
        sg::SgLink{"l1", {"a", 1}, {"a-b", 0}, 10},
        sg::SgLink{"l2", {"a-b", 1}, {"ab", 0}, 10},
        sg::SgLink{"l3", {"ab", 1}, {"sap2", 0}, 10}}) {
    ASSERT_TRUE(graph.add_link(link).ok()) << link.id;
  }
  auto desired = service_graph_to_config(graph, *view, "ro.big");
  ASSERT_TRUE(desired.ok()) << desired.error().to_string();
  ASSERT_TRUE(virt.edit_config(*desired).ok());
  ASSERT_TRUE(ro.global_view().find_nf("a.x").has_value());
  ASSERT_TRUE(ro.global_view().find_nf("a.y").has_value());

  const auto rolled_up = [&]() -> std::map<std::string, model::NfStatus> {
    EXPECT_TRUE(ro.sync_statuses().ok());
    auto config = virt.get_config();
    EXPECT_TRUE(config.ok());
    std::map<std::string, model::NfStatus> out;
    for (const auto& [nf_id, nf] : config->find_bisbis("ro.big")->nfs) {
      out[nf_id] = nf.status;
    }
    return out;
  };
  using model::NfStatus;
  statuses = {{"a-b", NfStatus::kFailed}, {"ab", NfStatus::kDeploying}};
  EXPECT_EQ(rolled_up(),
            (std::map<std::string, NfStatus>{{"a", NfStatus::kRunning},
                                             {"a-b", NfStatus::kFailed},
                                             {"ab", NfStatus::kDeploying}}));
  statuses = {{"a.y", NfStatus::kFailed}, {"ab", NfStatus::kStopped}};
  EXPECT_EQ(rolled_up(),
            (std::map<std::string, NfStatus>{{"a", NfStatus::kFailed},
                                             {"a-b", NfStatus::kRunning},
                                             {"ab", NfStatus::kStopped}}));
  statuses = {{"a.x", NfStatus::kStopped}};
  EXPECT_EQ(rolled_up(),
            (std::map<std::string, NfStatus>{{"a", NfStatus::kStopped},
                                             {"a-b", NfStatus::kRunning},
                                             {"ab", NfStatus::kRunning}}));
}

TEST(Virtualizer, RequiresInitializedRo) {
  ResourceOrchestrator ro("ro", std::make_shared<mapping::ChainDpMapper>(),
                          catalog::default_catalog());
  Virtualizer virt(ro, ViewPolicy::kSingleBisBis);
  EXPECT_EQ(virt.get_config().error().code, ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace unify::core
