#include "core/config_translate.h"

#include <gtest/gtest.h>

#include "catalog/nf_catalog.h"
#include "mapping/greedy_mapper.h"
#include "model/nffg_builder.h"

namespace unify::core {
namespace {

/// Single-BiS-BiS view skeleton: big node with 2 SAP-facing ports.
model::Nffg single_view() {
  model::Nffg view{"view"};
  EXPECT_TRUE(
      view.add_bisbis(model::make_bisbis("big", {32, 32768, 400}, 2)).ok());
  model::attach_sap(view, "sap1", "big", 0, {1000, 0.1});
  model::attach_sap(view, "sap2", "big", 1, {1000, 0.1});
  return view;
}

TEST(SgToConfig, WritesNfsRulesAndHints) {
  const sg::ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"firewall", "nat"}, "sap2", 100, 30);
  const model::Nffg view = single_view();
  auto config = service_graph_to_config(sg, view, "big");
  ASSERT_TRUE(config.ok()) << config.error().to_string();
  const model::BisBis* big = config->find_bisbis("big");
  EXPECT_EQ(big->nfs.size(), 2u);
  EXPECT_EQ(big->flowrules.size(), 3u);
  ASSERT_EQ(config->hints().size(), 1u);
  EXPECT_EQ(config->hints()[0].max_delay, 30);
  // First rule: from the port facing sap1 into firewall0's port 0.
  const model::Flowrule* first = big->find_flowrule("cl0");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->in, (model::PortRef{"big", 0}));
  EXPECT_EQ(first->out, (model::PortRef{"firewall0", 0}));
  EXPECT_EQ(first->bandwidth, 100);
  EXPECT_TRUE(config->validate().empty());
}

TEST(SgToConfig, UnknownSapRejected) {
  const sg::ServiceGraph sg =
      sg::make_chain("svc", "ghost", {"nat"}, "sap2", 10, 30);
  auto config = service_graph_to_config(sg, single_view(), "big");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.error().code, ErrorCode::kNotFound);
}

TEST(SgToConfig, UnknownBigNodeRejected) {
  const sg::ServiceGraph sg =
      sg::make_chain("svc", "sap1", {}, "sap2", 10, 30);
  auto config = service_graph_to_config(sg, single_view(), "nope");
  ASSERT_FALSE(config.ok());
}

TEST(ConfigToSg, RoundTripsThroughConfig) {
  const sg::ServiceGraph original =
      sg::make_chain("svc", "sap1", {"firewall", "nat"}, "sap2", 100, 30);
  const model::Nffg view = single_view();
  auto config = service_graph_to_config(original, view, "big");
  ASSERT_TRUE(config.ok());
  auto translated = config_to_service_graph(*config, view, "back");
  ASSERT_TRUE(translated.ok()) << translated.error().to_string();

  const sg::ServiceGraph& sg = translated->sg;
  EXPECT_EQ(sg.nfs().size(), original.nfs().size());
  EXPECT_EQ(sg.links().size(), original.links().size());
  ASSERT_EQ(sg.requirements().size(), 1u);
  EXPECT_EQ(sg.requirements()[0].max_delay, 30);
  // Chain is intact end-to-end.
  auto seq = sg.nf_sequence_for(sg.requirements()[0]);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, (std::vector<std::string>{"firewall0", "nat1"}));
  // All NFs pinned on the big node.
  for (const auto& [nf, host] : translated->pinned_hosts) {
    EXPECT_EQ(host, "big");
  }
}

TEST(ConfigToSg, RequirementViaSurvivesBothDirections) {
  sg::ServiceGraph original =
      sg::make_chain("svc", "sap1", {"nat"}, "sap2", 100, 30);
  original.anchor_requirements();
  ASSERT_EQ(original.requirements()[0].via, "cl0");
  const model::Nffg view = single_view();
  auto config = service_graph_to_config(original, view, "big");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->hints()[0].via, "cl0");
  auto translated = config_to_service_graph(*config, view, "svc");
  ASSERT_TRUE(translated.ok()) << translated.error().to_string();
  EXPECT_EQ(translated->sg.requirements(), original.requirements());
}

TEST(ConfigToSg, ReconstructsTaggedChains) {
  // Build a multi-node substrate, map a chain onto it with a real mapper
  // (tagged rules across nodes), then translate the configured NFFG back.
  model::Nffg substrate{"s"};
  ASSERT_TRUE(
      substrate.add_bisbis(model::make_bisbis("bb1", {8, 8192, 100}, 4)).ok());
  ASSERT_TRUE(
      substrate.add_bisbis(model::make_bisbis("bb2", {8, 8192, 100}, 4)).ok());
  model::connect(substrate, "bb1", 1, "bb2", 1, {1000, 1});
  model::attach_sap(substrate, "sap1", "bb1", 0, {1000, 0.1});
  model::attach_sap(substrate, "sap2", "bb2", 0, {1000, 0.1});

  // Force the two NFs onto different nodes via tiny capacity.
  model::Nffg tight = substrate;
  tight.find_bisbis("bb1")->capacity = {1, 1024, 10};
  tight.find_bisbis("bb2")->capacity = {1, 1024, 10};
  const sg::ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"nat", "nat"}, "sap2", 50, 100);
  const catalog::NfCatalog cat = catalog::default_catalog();
  auto mapping = mapping::GreedyMapper().map(sg, tight, cat);
  ASSERT_TRUE(mapping.ok()) << mapping.error().to_string();
  model::Nffg configured = tight;
  ASSERT_TRUE(mapping::install_mapping(configured, sg, cat, *mapping).ok());

  auto translated = config_to_service_graph(configured, tight, "back");
  ASSERT_TRUE(translated.ok()) << translated.error().to_string();
  EXPECT_EQ(translated->sg.nfs().size(), 2u);
  EXPECT_EQ(translated->sg.links().size(), 3u);
  // Placement information survives (pins point to the real hosts).
  EXPECT_EQ(translated->pinned_hosts.at("nat0"),
            mapping->nf_host.at("nat0"));
  EXPECT_EQ(translated->pinned_hosts.at("nat1"),
            mapping->nf_host.at("nat1"));
}

TEST(ConfigToSg, PartialChainBecomesSapToSapLink) {
  // A slice may carry only this domain's segment of a chain whose head and
  // strip live in sibling domains: it must translate into a SAP-to-SAP
  // transit link, not an error.
  model::Nffg view = single_view();
  ASSERT_TRUE(view
                  .add_flowrule("big", model::Flowrule{"r", {"big", 0},
                                                       {"big", 1}, "tagX",
                                                       "", 7})
                  .ok());
  auto translated = config_to_service_graph(view, single_view(), "x");
  ASSERT_TRUE(translated.ok()) << translated.error().to_string();
  ASSERT_EQ(translated->sg.links().size(), 1u);
  const sg::SgLink& link = translated->sg.links()[0];
  EXPECT_EQ(link.id, "tagX");
  EXPECT_EQ(link.from, (model::PortRef{"sap1", 0}));
  EXPECT_EQ(link.to, (model::PortRef{"sap2", 0}));
  EXPECT_EQ(link.bandwidth, 7);
}

TEST(ConfigToSg, RejectsAmbiguousChains) {
  // Two disconnected segments with the same tag inside one slice: two
  // heads, unresolvable.
  model::Nffg view = single_view();
  ASSERT_TRUE(view
                  .add_flowrule("big", model::Flowrule{"r1", {"big", 0},
                                                       {"big", 1}, "tagX",
                                                       "", 0})
                  .ok());
  ASSERT_TRUE(view
                  .add_flowrule("big", model::Flowrule{"r2", {"big", 1},
                                                       {"big", 0}, "tagX",
                                                       "", 0})
                  .ok());
  auto translated = config_to_service_graph(view, single_view(), "x");
  ASSERT_FALSE(translated.ok());
  EXPECT_NE(translated.error().message.find("two heads"),
            std::string::npos);
}

TEST(ConfigToSg, RejectsNonSapFacingEndpoint) {
  model::Nffg view{"v"};
  ASSERT_TRUE(
      view.add_bisbis(model::make_bisbis("big", {8, 8192, 100}, 4)).ok());
  model::attach_sap(view, "sap1", "big", 0, {1000, 0.1});
  // Port 2 faces nothing.
  ASSERT_TRUE(view
                  .add_flowrule("big", model::Flowrule{"r", {"big", 0},
                                                       {"big", 2}, "", "", 0})
                  .ok());
  auto translated = config_to_service_graph(view, view, "x");
  ASSERT_FALSE(translated.ok());
  EXPECT_NE(translated.error().message.find("does not face a SAP"),
            std::string::npos);
}

}  // namespace
}  // namespace unify::core
