#include "core/virtualizer.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "core/config_translate.h"
#include "mapping/chain_dp_mapper.h"
#include "model/nffg_builder.h"
#include "model/nffg_json.h"
#include "sg/sg_json.h"
#include "util/strings.h"

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

TEST(VirtualizerSingle, ResentConfigCallsNothingBelow) {
  RoFixture fx;
  Virtualizer virt(*fx.ro, ViewPolicy::kSingleBisBis);
  auto view = virt.get_config();
  ASSERT_TRUE(view.ok());
  auto desired = service_graph_to_config(parallel_chains(2), *view, "ro.big");
  ASSERT_TRUE(desired.ok());
  ASSERT_TRUE(virt.edit_config(*desired).ok());

  const auto counters = [&] {
    return std::vector<std::uint64_t>{
        fx.ro->metrics().counter("ro.batch_requests"),
        fx.ro->metrics().counter("ro.removals"),
        fx.ro->metrics().counter("ro.slice_pushes")};
  };
  const auto before = counters();
  const std::uint64_t edits = virt.edits();
  ASSERT_TRUE(virt.edit_config(*desired).ok());
  EXPECT_EQ(virt.edits(), edits + 1);
  EXPECT_EQ(counters(), before);
  EXPECT_EQ(virt.active_requests().size(), 2u);
}

/// FNV-1a fold of what a client and the RO below it can observe.
class EditDigest {
 public:
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(w >> (8 * i)));
  }
  void text(std::string_view s) {
    word(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  void byte(unsigned char b) {
    state_ ^= b;
    state_ *= 0x100000001B3ULL;
  }
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

/// A chain the golden sequence wrote: from_sap -> nfs... -> to_sap, link
/// i joining hop i to hop i + 1, plus one hint "<id>.e2e". The config
/// itself is the record of what is placed where; this keeps the shape.
struct GoldenChain {
  std::string id;
  std::string from_sap;
  std::string to_sap;
  std::vector<std::string> nfs;

  [[nodiscard]] std::string link(std::size_t i) const {
    return id + ".l" + std::to_string(i);
  }
};

/// Writes the flowrules of `chain` onto `config`, with NFs wherever the
/// config holds them. On the single view every rule sits on ro.big (port
/// 0 faces sap1, port 1 sap2). On the full view bb1 port 0 faces sap1,
/// bb2 port 0 faces sap2 and port 1 joins the two, so a hop between
/// BiS-BiS nodes becomes a tag chain of two segments.
void write_chain_rules(model::Nffg& config, ViewPolicy policy,
                       const GoldenChain& chain,
                       const std::map<std::string, double>& bandwidth) {
  struct Hop {
    std::string host;
    model::PortRef in;
    model::PortRef out;
  };
  const auto sap_hop = [&](const std::string& sap) {
    if (policy == ViewPolicy::kSingleBisBis) {
      const model::PortRef ref{"ro.big", sap == "sap1" ? 0 : 1};
      return Hop{"ro.big", ref, ref};
    }
    const std::string host = sap == "sap1" ? "bb1" : "bb2";
    return Hop{host, {host, 0}, {host, 0}};
  };
  std::vector<Hop> hops{sap_hop(chain.from_sap)};
  for (const std::string& nf : chain.nfs) {
    hops.push_back(Hop{config.find_nf(nf)->first, {nf, 0}, {nf, 1}});
  }
  hops.push_back(sap_hop(chain.to_sap));
  for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
    const Hop& from = hops[i];
    const Hop& to = hops[i + 1];
    const std::string id = chain.link(i);
    const double bw = bandwidth.at(id);
    if (from.host == to.host) {
      EXPECT_TRUE(config
                      .add_flowrule(from.host, model::Flowrule{
                                                   id, from.out, to.in, "",
                                                   "", bw})
                      .ok())
          << id;
      continue;
    }
    EXPECT_TRUE(config
                    .add_flowrule(from.host,
                                  model::Flowrule{id, from.out,
                                                  {from.host, 1}, "", id, bw})
                    .ok())
        << id;
    EXPECT_TRUE(config
                    .add_flowrule(to.host,
                                  model::Flowrule{id + "@", {to.host, 1},
                                                  to.in, id, "-", bw})
                    .ok())
        << id;
  }
}

/// Erases every flowrule of `chain` (its ids all start with "<id>.").
void erase_chain_rules(model::Nffg& config, const GoldenChain& chain) {
  for (auto& [bb_id, bb] : config.bisbis()) {
    std::erase_if(bb.flowrules, [&](const model::Flowrule& rule) {
      return strings::starts_with(rule.id, chain.id + ".");
    });
  }
}

/// Link id -> bandwidth of the chain's rules as `config` holds them.
std::map<std::string, double> chain_bandwidth(const model::Nffg& config,
                                              const GoldenChain& chain) {
  std::map<std::string, double> out;
  for (const auto& [bb_id, bb] : config.bisbis()) {
    for (const model::Flowrule& rule : bb.flowrules) {
      if (strings::starts_with(rule.id, chain.id + ".")) {
        out[rule.match_tag.empty() ? rule.id : rule.match_tag] =
            rule.bandwidth;
      }
    }
  }
  return out;
}

/// Moves NF `nf_id` to `host`, keeping its instance, its constraints but
/// `dropped` (when set) and the rules of `chain`, which holds it.
void replace_nf(model::Nffg& config, ViewPolicy policy,
                const GoldenChain& chain, const std::string& nf_id,
                const std::string& host,
                const model::PlacementConstraint* dropped = nullptr) {
  const auto found = config.find_nf(nf_id);
  ASSERT_TRUE(found.has_value()) << nf_id;
  const model::NfInstance nf = *found->second;
  const std::string old_host = found->first;
  std::vector<model::PlacementConstraint> kept;
  bool skipped = false;
  for (const model::PlacementConstraint& c : config.constraints()) {
    if (c.nf_a != nf_id && c.nf_b != nf_id) continue;
    if (dropped != nullptr && !skipped && c == *dropped) {
      skipped = true;
      continue;
    }
    kept.push_back(c);
  }
  const std::map<std::string, double> bandwidth =
      chain_bandwidth(config, chain);
  erase_chain_rules(config, chain);
  ASSERT_TRUE(config.remove_nf(old_host, nf_id).ok());
  ASSERT_TRUE(config.place_nf(host, nf, /*force=*/true).ok());
  write_chain_rules(config, policy, chain, bandwidth);
  for (const model::PlacementConstraint& c : kept) {
    ASSERT_TRUE(config.add_constraint(c).ok());
  }
}

/// The "same behaviour" gate of the virtualizer's books: a seeded
/// sequence of declarative edits, each deriving from the last accepted
/// config by one operation (add/remove a chain, change an NF, a link or a
/// requirement, add/drop a constraint, move an NF, re-send the config,
/// add a chain that cannot map), folded into one digest per view policy
/// over each edit's outcome, the client's requests, every RO deployment
/// and the accepted config. A digest may only move together with a
/// deliberate change of what edit-config does, and the commit doing so
/// must say which.
TEST(VirtualizerGolden, SeededEditSequenceDigestIsPinned) {
  struct Run {
    ViewPolicy policy;
    const char* label;
    std::uint64_t pinned;
  };
  const Run kRuns[] = {
      {ViewPolicy::kSingleBisBis, "single", 0x74FABFA505594F26ULL},
      {ViewPolicy::kFull, "full", 0x33612FD50955BD35ULL},
  };
  constexpr int kEdits = 150;
  const char* const kTypes[] = {"nat", "dpi", "fw-lite", "monitor"};
  for (const Run& run : kRuns) {
    RoFixture fx;
    Virtualizer virt(*fx.ro, run.policy);
    const bool full = run.policy == ViewPolicy::kFull;
    std::mt19937_64 rng(2025);
    const auto pick = [&](std::size_t n) {
      return static_cast<std::size_t>(rng() % n);
    };
    const auto other_host = [&](const std::string& host) {
      return std::string(host == "bb1" ? "bb2" : "bb1");
    };
    std::vector<GoldenChain> chains;
    int next_chain = 0;
    EditDigest digest;
    const double kDelays[] = {2.0, 5.0, 50.0};
    // Adds a chain of 0-3 NFs (1-3 and a first NF no host can take when
    // `too_big`). NF ids are "<letter><chain number>" with the letters in
    // a shuffled order, so the NF ids of chains added in one wave
    // interleave and a chain's head may sort after its later NFs: the
    // order of a wave's components depends on which NF roots each.
    const auto add_chain = [&](model::Nffg& config, bool too_big) {
      GoldenChain chain;
      chain.id = "k" + std::to_string(next_chain++);
      chain.from_sap = pick(2) == 0 ? "sap1" : "sap2";
      chain.to_sap = chain.from_sap == "sap1" ? "sap2" : "sap1";
      std::string letters = "abc";
      std::shuffle(letters.begin(), letters.end(), rng);
      const std::size_t length = too_big ? 1 + pick(3) : pick(4);
      for (std::size_t i = 0; i < length; ++i) {
        const std::string nf_id = letters[i] + chain.id.substr(1);
        model::Resources demand;
        if (too_big && i == 0) demand = {999, 512, 1};
        ASSERT_TRUE(
            config
                .place_nf(full ? (pick(2) == 0 ? "bb1" : "bb2") : "ro.big",
                          model::make_nf(nf_id, kTypes[pick(4)], demand, 2),
                          /*force=*/true)
                .ok());
        chain.nfs.push_back(nf_id);
      }
      std::map<std::string, double> bandwidth;
      for (std::size_t i = 0; i <= length; ++i) {
        bandwidth[chain.link(i)] = static_cast<double>(5 * (1 + pick(4)));
      }
      write_chain_rules(config, run.policy, chain, bandwidth);
      ASSERT_TRUE(config
                      .add_hint(model::ServiceHint{
                          chain.id + ".e2e", chain.from_sap, chain.to_sap,
                          kDelays[pick(3)], 0,
                          pick(2) == 0 ? std::string{} : chain.link(0)})
                      .ok());
      chains.push_back(std::move(chain));
    };

    for (int step = 0; step < kEdits; ++step) {
      auto accepted = virt.get_config();
      ASSERT_TRUE(accepted.ok());
      model::Nffg config = *std::move(accepted);
      // Chains whose NFs the accepted config still holds in full.
      std::vector<const GoldenChain*> alive;
      for (const GoldenChain& chain : chains) {
        const bool all = std::all_of(
            chain.nfs.begin(), chain.nfs.end(), [&](const std::string& nf) {
              return config.find_nf(nf).has_value();
            });
        if (all && !chain_bandwidth(config, chain).empty()) {
          alive.push_back(&chain);
        }
      }
      std::vector<std::string> nf_ids;
      for (const auto& [bb_id, bb] : config.bisbis()) {
        for (const auto& [nf_id, nf] : bb.nfs) nf_ids.push_back(nf_id);
      }
      std::vector<model::Flowrule*> rules;
      for (auto& [bb_id, bb] : config.bisbis()) {
        for (model::Flowrule& rule : bb.flowrules) rules.push_back(&rule);
      }

      const std::size_t op = pick(12);
      if (op <= 1 || alive.empty()) {
        add_chain(config, /*too_big=*/false);
      } else if (op == 11) {
        // Two new components in one wave, one of which cannot map.
        const bool big_first = pick(2) == 0;
        add_chain(config, big_first);
        add_chain(config, !big_first);
      } else if (op <= 3) {
        const GoldenChain& chain = *alive[pick(alive.size())];
        for (const std::string& nf : chain.nfs) {
          ASSERT_TRUE(config.remove_nf(config.find_nf(nf)->first, nf).ok());
        }
        erase_chain_rules(config, chain);
        (void)config.remove_hint(chain.id + ".e2e");
      } else if (op == 4 && !nf_ids.empty()) {
        const std::string& nf_id = nf_ids[pick(nf_ids.size())];
        model::NfInstance& nf = config.find_bisbis(config.find_nf(nf_id)->first)
                                    ->nfs.at(nf_id);
        if (pick(2) == 0) {
          nf.type = kTypes[pick(4)];
        } else {
          const double cpu = static_cast<double>(pick(3));
          nf.requirement = {cpu, 512 * cpu, cpu};
        }
      } else if (op == 5 && !rules.empty()) {
        model::Flowrule& rule = *rules[pick(rules.size())];
        rule.bandwidth = static_cast<double>(5 * (1 + pick(4)));
      } else if (op == 6 && !config.hints().empty()) {
        model::ServiceHint hint =
            config.hints()[pick(config.hints().size())];
        hint.max_delay = kDelays[pick(3)];
        ASSERT_TRUE(config.remove_hint(hint.id).ok());
        ASSERT_TRUE(config.add_hint(hint).ok());
      } else if (op == 7) {
        // Anti-affinity inside a chain, or a pin/forbid (a full view
        // drops those on translation: its placement already says it).
        const GoldenChain& chain = *alive[pick(alive.size())];
        if (!chain.nfs.empty()) {
          model::PlacementConstraint c;
          c.nf_a = chain.nfs[pick(chain.nfs.size())];
          if (chain.nfs.size() >= 2 && pick(2) == 0) {
            c.nf_b = chain.nfs[0] == c.nf_a ? chain.nfs[1] : chain.nfs[0];
          } else {
            c.kind = pick(2) == 0 ? model::ConstraintKind::kPin
                                  : model::ConstraintKind::kForbid;
            c.host = pick(2) == 0 ? "bb1" : "bb2";
          }
          (void)config.add_constraint(c);
        }
      } else if (op == 8 && !config.constraints().empty()) {
        const model::PlacementConstraint c =
            config.constraints()[pick(config.constraints().size())];
        for (const GoldenChain* chain : alive) {
          if (std::find(chain->nfs.begin(), chain->nfs.end(), c.nf_a) !=
              chain->nfs.end()) {
            replace_nf(config, run.policy, *chain, c.nf_a,
                       config.find_nf(c.nf_a)->first, &c);
            break;
          }
        }
      } else if (op == 9 && full) {
        const GoldenChain& chain = *alive[pick(alive.size())];
        if (!chain.nfs.empty()) {
          const std::string& nf_id = chain.nfs[pick(chain.nfs.size())];
          replace_nf(config, run.policy, chain, nf_id,
                     other_host(config.find_nf(nf_id)->first));
        }
      }
      // Everything else re-sends the accepted config unchanged.

      const Result<void> result = virt.edit_config(config);
      digest.word(result.ok() ? 0
                              : 1 + static_cast<std::uint64_t>(
                                        result.error().code));
      if (!result.ok()) {
        digest.word(result.error().causes.size());
        for (const Error::Cause& cause : result.error().causes) {
          digest.text(cause.path);
          digest.word(static_cast<std::uint64_t>(cause.code));
        }
      }
      const std::vector<std::string> requests = virt.active_requests();
      digest.word(requests.size());
      for (const std::string& request : requests) digest.text(request);
      digest.word(fx.ro->deployments().size());
      for (const auto& [id, deployment] : fx.ro->deployments()) {
        digest.text(id);
        digest.text(sg::to_json_string(deployment.original));
        digest.word(deployment.mapping.nf_host.size());
        for (const auto& [nf, host] : deployment.mapping.nf_host) {
          digest.text(nf);
          digest.text(host);
        }
      }
      const auto now = virt.get_config();
      ASSERT_TRUE(now.ok());
      digest.text(model::to_json_string(*now));
    }
    EXPECT_EQ(digest.value(), run.pinned)
        << run.label << " digest is 0x" << std::hex << std::uppercase
        << digest.value();
  }
}

TEST(Virtualizer, RequiresInitializedRo) {
  ResourceOrchestrator ro("ro", std::make_shared<mapping::ChainDpMapper>(),
                          catalog::default_catalog());
  Virtualizer virt(ro, ViewPolicy::kSingleBisBis);
  EXPECT_EQ(virt.get_config().error().code, ErrorCode::kUnavailable);
}

}  // namespace
}  // namespace unify::core
