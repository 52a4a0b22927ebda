#include "mapping/mapper.h"

#include <gtest/gtest.h>

#include "catalog/decomposition.h"
#include "mapping/baseline_mappers.h"
#include "mapping/bnb_mapper.h"
#include "mapping/chain_dp_mapper.h"
#include "mapping/context.h"
#include "mapping/decomp_aware_mapper.h"
#include "mapping/greedy_mapper.h"
#include "model/nffg_builder.h"

namespace unify::mapping {
namespace {

using catalog::NfCatalog;
using model::LinkAttrs;
using model::Nffg;
using model::Resources;
using sg::ServiceGraph;

/// Line substrate: sap1 - bb1 - bb2 - bb3 - sap2, generous resources.
Nffg line_substrate(double link_bw = 1000, double cpu = 8) {
  Nffg g{"line"};
  for (int i = 1; i <= 3; ++i) {
    EXPECT_TRUE(g.add_bisbis(model::make_bisbis("bb" + std::to_string(i),
                                                {cpu, 8192, 100}, 4, 0.1))
                    .ok());
  }
  model::connect(g, "bb1", 1, "bb2", 1, {link_bw, 1.0});
  model::connect(g, "bb2", 2, "bb3", 1, {link_bw, 1.0});
  model::attach_sap(g, "sap1", "bb1", 0, {link_bw, 0.1});
  model::attach_sap(g, "sap2", "bb3", 0, {link_bw, 0.1});
  return g;
}

ServiceGraph fw_nat_chain(double bw = 100, double delay = 50) {
  return sg::make_chain("svc", "sap1", {"firewall", "nat"}, "sap2", bw,
                        delay);
}

class AllMappers : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Mapper> make() const {
    const std::string which = GetParam();
    if (which == "greedy") return std::make_unique<GreedyMapper>();
    if (which == "chain-dp") return std::make_unique<ChainDpMapper>();
    if (which == "bnb") return std::make_unique<BnbMapper>();
    if (which == "first-fit") return std::make_unique<FirstFitMapper>();
    return std::make_unique<RandomMapper>();
  }
};

TEST_P(AllMappers, MapsChainOnLineSubstrate) {
  const Nffg substrate = line_substrate();
  const ServiceGraph sg = fw_nat_chain();
  const NfCatalog cat = catalog::default_catalog();
  auto mapping = make()->map(sg, substrate, cat);
  ASSERT_TRUE(mapping.ok()) << mapping.error().to_string();
  EXPECT_TRUE(verify_mapping(sg, substrate, cat, *mapping).ok());
  EXPECT_EQ(mapping->nf_host.size(), 2u);
  EXPECT_EQ(mapping->link_paths.size(), 3u);
  EXPECT_LE(mapping->requirement_delay.at("e2e"), 50.0);
}

TEST_P(AllMappers, InstallProducesValidNffg) {
  Nffg substrate = line_substrate();
  const ServiceGraph sg = fw_nat_chain();
  const NfCatalog cat = catalog::default_catalog();
  auto mapping = make()->map(sg, substrate, cat);
  ASSERT_TRUE(mapping.ok()) << mapping.error().to_string();
  ASSERT_TRUE(install_mapping(substrate, sg, cat, *mapping).ok());
  EXPECT_TRUE(substrate.validate().empty());
  const auto stats = substrate.stats();
  EXPECT_EQ(stats.nf_count, 2u);
  EXPECT_GT(stats.flowrule_count, 0u);
}

TEST_P(AllMappers, UninstallRestoresSubstrate) {
  Nffg substrate = line_substrate();
  const Nffg pristine = substrate;
  const ServiceGraph sg = fw_nat_chain();
  const NfCatalog cat = catalog::default_catalog();
  auto mapping = make()->map(sg, substrate, cat);
  ASSERT_TRUE(mapping.ok());
  ASSERT_TRUE(install_mapping(substrate, sg, cat, *mapping).ok());
  ASSERT_TRUE(uninstall_mapping(substrate, sg, *mapping).ok());
  EXPECT_EQ(substrate, pristine);
}

TEST_P(AllMappers, InfeasibleWhenNoCapacity) {
  const Nffg substrate = line_substrate(1000, 0.5);  // half a core per node
  const ServiceGraph sg = fw_nat_chain();
  auto mapping = make()->map(sg, substrate, catalog::default_catalog());
  EXPECT_FALSE(mapping.ok());
}

TEST_P(AllMappers, InfeasibleWhenNoBandwidth) {
  const Nffg substrate = line_substrate(10);  // chain wants 100 Mbit/s
  const ServiceGraph sg = fw_nat_chain();
  auto mapping = make()->map(sg, substrate, catalog::default_catalog());
  EXPECT_FALSE(mapping.ok());
}

TEST_P(AllMappers, MissingSapFails) {
  const Nffg substrate = line_substrate();
  const ServiceGraph sg =
      sg::make_chain("svc", "ghost-sap", {"nat"}, "sap2", 10, 50);
  auto mapping = make()->map(sg, substrate, catalog::default_catalog());
  EXPECT_FALSE(mapping.ok());
}

TEST_P(AllMappers, UnknownNfTypeFails) {
  const Nffg substrate = line_substrate();
  const ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"no-such-type"}, "sap2", 10, 50);
  auto mapping = make()->map(sg, substrate, catalog::default_catalog());
  EXPECT_FALSE(mapping.ok());
}

TEST_P(AllMappers, ResourceOverrideRespected) {
  const Nffg substrate = line_substrate();
  ServiceGraph sg{"svc"};
  ASSERT_TRUE(sg.add_sap("sap1").ok());
  ASSERT_TRUE(sg.add_sap("sap2").ok());
  // Override above any single node's capacity.
  ASSERT_TRUE(
      sg.add_nf(sg::SgNf{"big", "nat", 2, Resources{100, 1, 1}}).ok());
  ASSERT_TRUE(sg.add_link(sg::SgLink{"l1", {"sap1", 0}, {"big", 0}, 1}).ok());
  ASSERT_TRUE(sg.add_link(sg::SgLink{"l2", {"big", 1}, {"sap2", 0}, 1}).ok());
  auto mapping = make()->map(sg, substrate, catalog::default_catalog());
  EXPECT_FALSE(mapping.ok());
}

TEST_P(AllMappers, CapacityTrapSplitsTheChain) {
  // Two single-core nodes: each fits exactly one NF of the two-NF chain,
  // so every mapper must split the chain across them.
  Nffg g{"trap"};
  ASSERT_TRUE(g.add_bisbis(model::make_bisbis("bb1", {1, 512, 1}, 4)).ok());
  ASSERT_TRUE(g.add_bisbis(model::make_bisbis("bb2", {1, 512, 1}, 4)).ok());
  model::connect(g, "bb1", 1, "bb2", 1, {1000, 1.0});
  model::attach_sap(g, "sap1", "bb1", 0, {1000, 0.1});
  model::attach_sap(g, "sap2", "bb2", 0, {1000, 0.1});
  const ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"nat", "nat"}, "sap2", 10, 100);
  const NfCatalog cat = catalog::default_catalog();
  auto mapping = make()->map(sg, g, cat);
  ASSERT_TRUE(mapping.ok()) << mapping.error().to_string();
  EXPECT_TRUE(verify_mapping(sg, g, cat, *mapping).ok());
  EXPECT_NE(mapping->nf_host.at("nat0"), mapping->nf_host.at("nat1"));
}

INSTANTIATE_TEST_SUITE_P(Mappers, AllMappers,
                         ::testing::Values("greedy", "chain-dp", "bnb",
                                           "first-fit", "random"));

// ------------------------------------------------------- algorithm traits

TEST(ChainDp, FindsDelayOptimalPlacement) {
  // Two host options: bb-fast on a 1 ms detour, bb-slow on a 10 ms detour.
  Nffg g{"y"};
  ASSERT_TRUE(g.add_bisbis(model::make_bisbis("hub1", {0, 0, 0}, 4)).ok());
  ASSERT_TRUE(g.add_bisbis(model::make_bisbis("hub2", {0, 0, 0}, 4)).ok());
  ASSERT_TRUE(
      g.add_bisbis(model::make_bisbis("bb-fast", {8, 8192, 100}, 4)).ok());
  ASSERT_TRUE(
      g.add_bisbis(model::make_bisbis("bb-slow", {8, 8192, 100}, 4)).ok());
  model::connect(g, "hub1", 1, "hub2", 1, {1000, 1.0});
  model::connect(g, "hub1", 2, "bb-fast", 0, {1000, 0.5});
  model::connect(g, "bb-fast", 1, "hub2", 2, {1000, 0.5});
  model::connect(g, "hub1", 3, "bb-slow", 0, {1000, 5.0});
  model::connect(g, "bb-slow", 1, "hub2", 3, {1000, 5.0});
  model::attach_sap(g, "sap1", "hub1", 0, {1000, 0.1});
  model::attach_sap(g, "sap2", "hub2", 0, {1000, 0.1});

  const ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 100);
  auto mapping =
      ChainDpMapper().map(sg, g, catalog::default_catalog());
  ASSERT_TRUE(mapping.ok()) << mapping.error().to_string();
  EXPECT_EQ(mapping->nf_host.at("nat0"), "bb-fast");
}

TEST(Random, DeterministicPerSeed) {
  const Nffg substrate = line_substrate();
  const ServiceGraph sg = fw_nat_chain();
  const NfCatalog cat = catalog::default_catalog();
  auto m1 = RandomMapper(42).map(sg, substrate, cat);
  auto m2 = RandomMapper(42).map(sg, substrate, cat);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m1->nf_host, m2->nf_host);
}

TEST(Greedy, ColocatesUnderOneRoof) {
  // A single big node: everything colocated, zero-hop paths between NFs.
  Nffg g{"one"};
  ASSERT_TRUE(
      g.add_bisbis(model::make_bisbis("big", {64, 65536, 1000}, 4)).ok());
  model::attach_sap(g, "sap1", "big", 0, {1000, 0.1});
  model::attach_sap(g, "sap2", "big", 1, {1000, 0.1});
  const ServiceGraph sg = fw_nat_chain();
  auto mapping = GreedyMapper().map(sg, g, catalog::default_catalog());
  ASSERT_TRUE(mapping.ok()) << mapping.error().to_string();
  // firewall0 -> nat1 link is intra-node.
  EXPECT_TRUE(mapping->link_paths.at("cl1").links.empty());
  EXPECT_EQ(mapping->stats.nodes_used, 1u);
}

// -------------------------------------------------- health-penalty drain

/// Two equal-cost hosts behind zero-capacity hubs: bb-a and bb-b are
/// perfectly symmetric (same detour delay, same capacity), so with no
/// health bias every deterministic mapper breaks the tie by id -> bb-a.
Nffg equal_cost_pair() {
  Nffg g{"pair"};
  EXPECT_TRUE(g.add_bisbis(model::make_bisbis("hub1", {0, 0, 0}, 4)).ok());
  EXPECT_TRUE(g.add_bisbis(model::make_bisbis("hub2", {0, 0, 0}, 4)).ok());
  EXPECT_TRUE(
      g.add_bisbis(model::make_bisbis("bb-a", {8, 8192, 100}, 4)).ok());
  EXPECT_TRUE(
      g.add_bisbis(model::make_bisbis("bb-b", {8, 8192, 100}, 4)).ok());
  model::connect(g, "hub1", 1, "hub2", 1, {1000, 5.0});
  model::connect(g, "hub1", 2, "bb-a", 0, {1000, 0.5});
  model::connect(g, "bb-a", 1, "hub2", 2, {1000, 0.5});
  model::connect(g, "hub1", 3, "bb-b", 0, {1000, 0.5});
  model::connect(g, "bb-b", 1, "hub2", 3, {1000, 0.5});
  model::attach_sap(g, "sap1", "hub1", 0, {1000, 0.1});
  model::attach_sap(g, "sap2", "hub2", 0, {1000, 0.1});
  return g;
}

class MapperDrain : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Mapper> make() const {
    const std::string which = GetParam();
    if (which == "greedy") return std::make_unique<GreedyMapper>();
    if (which == "bnb") return std::make_unique<BnbMapper>();
    return std::make_unique<ChainDpMapper>();
  }
};

TEST_P(MapperDrain, FlakyDomainDrainsAndRebalances) {
  // A failure streak below the trip threshold projects a health penalty
  // onto the flaky domain's nodes (ResourceOrchestrator::
  // refresh_health_penalties); new embeddings must prefer the healthy
  // equal-cost host, and re-balance once heal() clears the penalty.
  const NfCatalog cat = catalog::default_catalog();
  const ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 100);
  Nffg g = equal_cost_pair();

  auto baseline = make()->map(sg, g, cat);
  ASSERT_TRUE(baseline.ok()) << baseline.error().to_string();
  EXPECT_EQ(baseline->nf_host.at("nat0"), "bb-a");

  g.find_bisbis("bb-a")->health_penalty = 4.0;
  auto drained = make()->map(sg, g, cat);
  ASSERT_TRUE(drained.ok()) << drained.error().to_string();
  EXPECT_EQ(drained->nf_host.at("nat0"), "bb-b");

  g.find_bisbis("bb-a")->health_penalty = 0.0;
  auto rebalanced = make()->map(sg, g, cat);
  ASSERT_TRUE(rebalanced.ok()) << rebalanced.error().to_string();
  EXPECT_EQ(rebalanced->nf_host.at("nat0"), "bb-a");
}

INSTANTIATE_TEST_SUITE_P(Drain, MapperDrain,
                         ::testing::Values("greedy", "bnb", "chain-dp"));

TEST(ChainDp, PenaltyBiasesSelectionButNotDelayBound) {
  // True chain delay through either host is 1.2 ms; with a 4.0 penalty the
  // biased DP cost is 5.2. A 2 ms delay budget must still be satisfiable —
  // the penalty steers selection but the bound is checked on wire delay.
  const NfCatalog cat = catalog::default_catalog();
  const ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 2.0);
  Nffg g = equal_cost_pair();
  g.find_bisbis("bb-a")->health_penalty = 4.0;
  auto drained = ChainDpMapper().map(sg, g, cat);
  ASSERT_TRUE(drained.ok()) << drained.error().to_string();
  EXPECT_EQ(drained->nf_host.at("nat0"), "bb-b");

  // Both hosts flaky: selection ties again (id order) and the chain must
  // still fit the budget even though every biased cost exceeds it.
  g.find_bisbis("bb-b")->health_penalty = 4.0;
  auto both = ChainDpMapper().map(sg, g, cat);
  ASSERT_TRUE(both.ok()) << both.error().to_string();
  EXPECT_EQ(both->nf_host.at("nat0"), "bb-a");
  EXPECT_LE(both->requirement_delay.at("e2e"), 2.0);
}

// ---------------------------------------------------------- verify_mapping

TEST(VerifyMapping, RejectsTamperedPlacement) {
  const Nffg substrate = line_substrate();
  const ServiceGraph sg = fw_nat_chain();
  const NfCatalog cat = catalog::default_catalog();
  auto mapping = GreedyMapper().map(sg, substrate, cat);
  ASSERT_TRUE(mapping.ok());

  Mapping bad = *mapping;
  bad.nf_host["firewall0"] = "ghost";
  EXPECT_FALSE(verify_mapping(sg, substrate, cat, bad).ok());

  Mapping missing = *mapping;
  missing.nf_host.erase("nat1");
  EXPECT_FALSE(verify_mapping(sg, substrate, cat, missing).ok());
}

TEST(VerifyMapping, RejectsBrokenPath) {
  const Nffg substrate = line_substrate();
  const ServiceGraph sg = fw_nat_chain();
  const NfCatalog cat = catalog::default_catalog();
  auto mapping = GreedyMapper().map(sg, substrate, cat);
  ASSERT_TRUE(mapping.ok());

  for (auto& [link_id, path] : mapping->link_paths) {
    if (!path.links.empty()) {
      path.links.push_back(path.links.front());  // break continuity
      break;
    }
  }
  EXPECT_FALSE(verify_mapping(sg, substrate, cat, *mapping).ok());
}

TEST(VerifyMapping, RejectsDelayViolation) {
  const Nffg substrate = line_substrate();
  ServiceGraph sg = fw_nat_chain(100, 0.001);  // impossible budget
  const NfCatalog cat = catalog::default_catalog();
  auto honest = GreedyMapper().map(sg, substrate, cat);
  EXPECT_FALSE(honest.ok());
  // Forge a mapping from a relaxed request and check it against the strict
  // one.
  const ServiceGraph relaxed = fw_nat_chain(100, 1000);
  auto mapping = GreedyMapper().map(relaxed, substrate, cat);
  ASSERT_TRUE(mapping.ok());
  EXPECT_FALSE(verify_mapping(sg, substrate, cat, *mapping).ok());
}

// ------------------------------------------------------ decomposition-aware

TEST(DecompAware, ExpandsAndMaps) {
  const Nffg substrate = line_substrate();
  const ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"secure-gw"}, "sap2", 50, 100);
  const NfCatalog cat = catalog::default_catalog();
  DecompAwareMapper mapper(std::make_shared<GreedyMapper>());
  auto result = mapper.map_with_decomposition(sg, substrate, cat);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->combinations_tried, 2u);  // two secure-gw rules
  EXPECT_GE(result->combinations_feasible, 1u);
  // Mapping refers to expanded NFs and verifies against the expanded SG.
  EXPECT_TRUE(
      verify_mapping(result->expanded, substrate, cat, result->mapping).ok());
  EXPECT_GE(result->mapping.nf_host.size(), 2u);
}

TEST(DecompAware, PicksCheaperRealizationUnderPressure) {
  // secure-gw-split needs firewall(acl 1cpu + state 2cpu) + ids 2cpu = 5cpu;
  // secure-gw-vpn needs vpn 2 + dpi 4 = 6cpu. With 5 cpu per node total
  // across two nodes... make one node with 5 cpu: only the split fits.
  Nffg g{"small"};
  ASSERT_TRUE(g.add_bisbis(model::make_bisbis("bb", {5, 8192, 100}, 4)).ok());
  model::attach_sap(g, "sap1", "bb", 0, {1000, 0.1});
  model::attach_sap(g, "sap2", "bb", 1, {1000, 0.1});
  const ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"secure-gw"}, "sap2", 10, 100);
  const NfCatalog cat = catalog::default_catalog();
  DecompAwareMapper mapper(std::make_shared<GreedyMapper>());
  auto result = mapper.map_with_decomposition(sg, g, cat);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result->combinations_feasible, 1u);
  EXPECT_TRUE(result->mapping.nf_host.count("secure-gw0.fw.acl") == 1);
}

TEST(DecompAware, NoDecomposablesDelegates) {
  const Nffg substrate = line_substrate();
  const ServiceGraph sg = fw_nat_chain();  // firewall is decomposable though
  const ServiceGraph atomic =
      sg::make_chain("svc", "sap1", {"nat", "dpi"}, "sap2", 10, 100);
  const NfCatalog cat = catalog::default_catalog();
  DecompAwareMapper mapper(std::make_shared<GreedyMapper>());
  auto result = mapper.map_with_decomposition(atomic, substrate, cat);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->combinations_tried, 1u);
  EXPECT_EQ(result->expanded, atomic);
}

TEST(DecompAware, InstallUsesExpandedGraph) {
  Nffg substrate = line_substrate();
  const ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"secure-gw"}, "sap2", 50, 100);
  const NfCatalog cat = catalog::default_catalog();
  DecompAwareMapper mapper(std::make_shared<ChainDpMapper>());
  auto result = mapper.map_with_decomposition(sg, substrate, cat);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(
      install_mapping(substrate, result->expanded, cat, result->mapping)
          .ok());
  EXPECT_TRUE(substrate.validate().empty());
  EXPECT_FALSE(substrate.find_nf("secure-gw0").has_value());
}

}  // namespace
}  // namespace unify::mapping
