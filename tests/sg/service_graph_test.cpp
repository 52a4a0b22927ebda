#include "sg/service_graph.h"

#include <gtest/gtest.h>

namespace unify::sg {
namespace {

ServiceGraph fw_nat_chain() {
  return make_chain("svc", "sap1", {"firewall", "nat"}, "sap2", 100, 20);
}

TEST(ServiceGraph, MakeChainShape) {
  ServiceGraph sg = fw_nat_chain();
  EXPECT_EQ(sg.saps().size(), 2u);
  EXPECT_EQ(sg.nfs().size(), 2u);
  EXPECT_EQ(sg.links().size(), 3u);
  ASSERT_EQ(sg.requirements().size(), 1u);
  EXPECT_EQ(sg.requirements()[0].max_delay, 20);
  EXPECT_EQ(sg.requirements()[0].min_bandwidth, 100);
  EXPECT_TRUE(sg.validate().empty());
  ASSERT_NE(sg.find_nf("firewall0"), nullptr);
  EXPECT_EQ(sg.find_nf("firewall0")->type, "firewall");
  ASSERT_NE(sg.find_nf("nat1"), nullptr);
}

TEST(ServiceGraph, DuplicateIdsRejected) {
  ServiceGraph sg{"s"};
  ASSERT_TRUE(sg.add_sap("a").ok());
  EXPECT_EQ(sg.add_sap("a").error().code, ErrorCode::kAlreadyExists);
  EXPECT_EQ(sg.add_nf(SgNf{"a", "t", 2, {}}).error().code,
            ErrorCode::kAlreadyExists);
  ASSERT_TRUE(sg.add_nf(SgNf{"n", "t", 2, {}}).ok());
  EXPECT_EQ(sg.add_sap("n").error().code, ErrorCode::kAlreadyExists);
}

TEST(ServiceGraph, LinkEndpointChecks) {
  ServiceGraph sg{"s"};
  ASSERT_TRUE(sg.add_sap("sap").ok());
  ASSERT_TRUE(sg.add_nf(SgNf{"nf", "t", 2, {}}).ok());
  // SAP must use port 0.
  EXPECT_EQ(
      sg.add_link(SgLink{"l1", {"sap", 1}, {"nf", 0}, 1}).error().code,
      ErrorCode::kNotFound);
  // NF port out of range.
  EXPECT_EQ(
      sg.add_link(SgLink{"l2", {"sap", 0}, {"nf", 5}, 1}).error().code,
      ErrorCode::kNotFound);
  // Unknown node.
  EXPECT_EQ(
      sg.add_link(SgLink{"l3", {"ghost", 0}, {"nf", 0}, 1}).error().code,
      ErrorCode::kNotFound);
  // Negative bandwidth.
  EXPECT_EQ(
      sg.add_link(SgLink{"l4", {"sap", 0}, {"nf", 0}, -1}).error().code,
      ErrorCode::kInvalidArgument);
  // Valid.
  EXPECT_TRUE(sg.add_link(SgLink{"l5", {"sap", 0}, {"nf", 0}, 1}).ok());
  // Duplicate link id.
  EXPECT_EQ(
      sg.add_link(SgLink{"l5", {"nf", 1}, {"sap", 0}, 1}).error().code,
      ErrorCode::kAlreadyExists);
}

TEST(ServiceGraph, RequirementChecks) {
  ServiceGraph sg{"s"};
  ASSERT_TRUE(sg.add_sap("a").ok());
  ASSERT_TRUE(sg.add_sap("b").ok());
  EXPECT_EQ(sg.add_requirement({"r", "a", "zz", 10, 1}).error().code,
            ErrorCode::kNotFound);
  EXPECT_EQ(sg.add_requirement({"r", "a", "b", -1, 1}).error().code,
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(sg.add_requirement({"r", "a", "b", 10, 1}).ok());
  EXPECT_EQ(sg.add_requirement({"r", "b", "a", 10, 1}).error().code,
            ErrorCode::kAlreadyExists);
}

TEST(ServiceGraph, ChainForWalksLinearChain) {
  ServiceGraph sg = fw_nat_chain();
  auto chain = sg.chain_for(sg.requirements()[0]);
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->size(), 3u);
  EXPECT_EQ((*chain)[0]->from.node, "sap1");
  EXPECT_EQ((*chain)[2]->to.node, "sap2");

  auto seq = sg.nf_sequence_for(sg.requirements()[0]);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, (std::vector<std::string>{"firewall0", "nat1"}));
}

TEST(ServiceGraph, ChainForFailsWithoutDirectedPath) {
  ServiceGraph sg{"s"};
  ASSERT_TRUE(sg.add_sap("a").ok());
  ASSERT_TRUE(sg.add_sap("b").ok());
  ASSERT_TRUE(sg.add_requirement({"r", "a", "b", 10, 1}).ok());
  auto chain = sg.chain_for(sg.requirements()[0]);
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.error().code, ErrorCode::kInfeasible);
}

TEST(ServiceGraph, ChainForBranchingGraphPicksShortest) {
  // a -> nf1 -> b and a -> nf1 -> nf2 -> b: BFS returns the short one.
  ServiceGraph sg{"s"};
  ASSERT_TRUE(sg.add_sap("a").ok());
  ASSERT_TRUE(sg.add_sap("b").ok());
  ASSERT_TRUE(sg.add_nf(SgNf{"nf1", "t", 3, {}}).ok());
  ASSERT_TRUE(sg.add_nf(SgNf{"nf2", "t", 2, {}}).ok());
  ASSERT_TRUE(sg.add_link(SgLink{"l1", {"a", 0}, {"nf1", 0}, 1}).ok());
  ASSERT_TRUE(sg.add_link(SgLink{"l2", {"nf1", 1}, {"b", 0}, 1}).ok());
  ASSERT_TRUE(sg.add_link(SgLink{"l3", {"nf1", 2}, {"nf2", 0}, 1}).ok());
  ASSERT_TRUE(sg.add_link(SgLink{"l4", {"nf2", 1}, {"b", 0}, 1}).ok());
  ASSERT_TRUE(sg.add_requirement({"r", "a", "b", 10, 1}).ok());
  auto seq = sg.nf_sequence_for(sg.requirements()[0]);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, (std::vector<std::string>{"nf1"}));
}

TEST(ServiceGraph, RemoveNfDropsItsLinks) {
  ServiceGraph sg = fw_nat_chain();
  ASSERT_TRUE(sg.remove_nf("nat1").ok());
  EXPECT_EQ(sg.find_nf("nat1"), nullptr);
  EXPECT_EQ(sg.links().size(), 1u);  // only sap1->firewall0 survives
  EXPECT_EQ(sg.remove_nf("nat1").error().code, ErrorCode::kNotFound);
}

TEST(ServiceGraph, ValidateFindsOrphanNf) {
  ServiceGraph sg{"s"};
  ASSERT_TRUE(sg.add_nf(SgNf{"lonely", "t", 2, {}}).ok());
  const auto problems = sg.validate();
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("not on any chain link"), std::string::npos);
}

TEST(ServiceGraph, ReplaceNfRedirectsExternalLinks) {
  ServiceGraph sg = fw_nat_chain();
  // Replace firewall0 by two components a->b.
  std::vector<SgNf> comps{{"firewall0.a", "fw-lite", 2, {}},
                          {"firewall0.b", "fw-stateful", 2, {}}};
  std::vector<SgLink> internal{
      {"firewall0.l0", {"firewall0.a", 1}, {"firewall0.b", 0}, 100}};
  std::map<int, model::PortRef> redirect{
      {0, {"firewall0.a", 0}}, {1, {"firewall0.b", 1}}};
  ASSERT_TRUE(sg.replace_nf("firewall0", comps, internal, redirect).ok());
  EXPECT_EQ(sg.find_nf("firewall0"), nullptr);
  EXPECT_NE(sg.find_nf("firewall0.a"), nullptr);
  EXPECT_TRUE(sg.validate().empty());
  // The chain now traverses three NFs.
  auto seq = sg.nf_sequence_for(sg.requirements()[0]);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, (std::vector<std::string>{"firewall0.a", "firewall0.b",
                                            "nat1"}));
}

TEST(ServiceGraph, ReplaceNfRequiresCompleteRedirect) {
  ServiceGraph sg = fw_nat_chain();
  // Missing redirect for port 1 (used by link to nat1).
  std::map<int, model::PortRef> redirect{{0, {"firewall0.a", 0}}};
  auto r = sg.replace_nf("firewall0", {{"firewall0.a", "fw-lite", 2, {}}},
                         {}, redirect);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kInvalidArgument);
  // Graph untouched.
  EXPECT_NE(sg.find_nf("firewall0"), nullptr);
  EXPECT_TRUE(sg.validate().empty());
}

TEST(ServiceGraph, IdIndexTracksRemoveAndReplace) {
  ServiceGraph sg = fw_nat_chain();  // links cl0 sap1->fw, cl1 fw->nat, cl2
  ASSERT_TRUE(sg.remove_nf("nat1").ok());  // drops cl1 and cl2
  // The survivor is still a duplicate; the removed ids are free again.
  EXPECT_EQ(sg.add_link(SgLink{"cl0", {"sap1", 0}, {"firewall0", 0}, 1})
                .error()
                .code,
            ErrorCode::kAlreadyExists);
  ASSERT_NE(sg.find_link("cl0"), nullptr);
  EXPECT_EQ(sg.find_link("cl1"), nullptr);
  ASSERT_TRUE(sg.add_nf(SgNf{"nat1", "nat", 2, {}}).ok());
  ASSERT_TRUE(
      sg.add_link(SgLink{"cl2", {"nat1", 1}, {"sap2", 0}, 100}).ok());
  ASSERT_TRUE(
      sg.add_link(SgLink{"cl1", {"firewall0", 1}, {"nat1", 0}, 100}).ok());
  // Insertion order is kept, and lookups resolve to the right element.
  ASSERT_EQ(sg.links().size(), 3u);
  EXPECT_EQ(sg.links()[1].id, "cl2");
  EXPECT_EQ(sg.find_link("cl1")->to.node, "nat1");
  EXPECT_EQ(sg.find_link("cl2")->from.node, "nat1");

  // replace_nf keeps the re-pointed external ids and adds the internal one.
  std::vector<SgNf> comps{{"firewall0.a", "fw-lite", 2, {}},
                          {"firewall0.b", "fw-stateful", 2, {}}};
  std::vector<SgLink> internal{
      {"firewall0.l0", {"firewall0.a", 1}, {"firewall0.b", 0}, 100}};
  std::map<int, model::PortRef> redirect{
      {0, {"firewall0.a", 0}}, {1, {"firewall0.b", 1}}};
  ASSERT_TRUE(sg.replace_nf("firewall0", comps, internal, redirect).ok());
  for (const char* id : {"cl0", "cl1", "firewall0.l0"}) {
    EXPECT_EQ(sg.add_link(SgLink{id, {"sap1", 0}, {"nat1", 0}, 1})
                  .error()
                  .code,
              ErrorCode::kAlreadyExists)
        << id;
  }
  EXPECT_EQ(sg.find_link("cl0")->to.node, "firewall0.a");
  EXPECT_EQ(sg.find_link("firewall0.l0")->from.node, "firewall0.a");

  // Requirements survive both and stay unique.
  EXPECT_EQ(sg.add_requirement(E2eRequirement{"e2e", "sap1", "sap2", 5, 0})
                .error()
                .code,
            ErrorCode::kAlreadyExists);
  ASSERT_NE(sg.find_requirement("e2e"), nullptr);
  EXPECT_EQ(sg.find_requirement("e2e")->max_delay, 20);
  EXPECT_EQ(sg.find_requirement("other"), nullptr);
}

TEST(ServiceGraph, EqualityIgnoresHowTheGraphWasBuilt) {
  // Same vectors, different histories: one graph lost and re-gained a link.
  ServiceGraph direct = fw_nat_chain();
  ServiceGraph rebuilt = fw_nat_chain();
  ASSERT_TRUE(rebuilt.remove_nf("nat1").ok());
  ASSERT_TRUE(rebuilt.add_nf(SgNf{"nat1", "nat", 2, {}}).ok());
  ASSERT_TRUE(
      rebuilt.add_link(SgLink{"cl1", {"firewall0", 1}, {"nat1", 0}, 100})
          .ok());
  ASSERT_TRUE(
      rebuilt.add_link(SgLink{"cl2", {"nat1", 1}, {"sap2", 0}, 100}).ok());
  EXPECT_EQ(rebuilt, direct);
}

// Property sweep: chains of any length validate and extract correctly.
class ChainLength : public ::testing::TestWithParam<int> {};

TEST_P(ChainLength, ExtractsFullSequence) {
  const int n = GetParam();
  std::vector<std::string> types;
  for (int i = 0; i < n; ++i) types.push_back("nf-type");
  ServiceGraph sg = make_chain("svc", "in", types, "out", 50, 100);
  EXPECT_TRUE(sg.validate().empty());
  EXPECT_EQ(sg.links().size(), static_cast<std::size_t>(n) + 1);
  auto seq = sg.nf_sequence_for(sg.requirements()[0]);
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq->size(), static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Lengths, ChainLength,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 16));

}  // namespace
}  // namespace unify::sg
