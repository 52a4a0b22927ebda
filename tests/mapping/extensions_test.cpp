// Tests for the extension features: placement constraints (anti-affinity
// / pin / forbid) across the ranking mappers, and the JSON-loadable NF
// catalog.
#include <gtest/gtest.h>

#include "catalog/catalog_json.h"
#include "catalog/decomposition.h"
#include "mapping/bnb_mapper.h"
#include "mapping/chain_dp_mapper.h"
#include "mapping/greedy_mapper.h"
#include "model/nffg_builder.h"
#include "sg/sg_json.h"

namespace unify::mapping {
namespace {

using catalog::NfCatalog;
using model::Nffg;
using sg::ServiceGraph;

Nffg line_substrate() {
  Nffg g{"line"};
  for (int i = 1; i <= 3; ++i) {
    EXPECT_TRUE(g.add_bisbis(model::make_bisbis("bb" + std::to_string(i),
                                                {8, 8192, 100}, 4, 0.1))
                    .ok());
  }
  model::connect(g, "bb1", 1, "bb2", 1, {1000, 1.0});
  model::connect(g, "bb2", 2, "bb3", 1, {1000, 1.0});
  model::attach_sap(g, "sap1", "bb1", 0, {1000, 0.1});
  model::attach_sap(g, "sap2", "bb3", 0, {1000, 0.1});
  return g;
}

// ------------------------------------------------------------ constraints

class ConstraintMappers : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Mapper> make() const {
    switch (GetParam()) {
      case 0: return std::make_unique<GreedyMapper>();
      case 1: return std::make_unique<ChainDpMapper>();
      default: return std::make_unique<BnbMapper>();
    }
  }
};

TEST_P(ConstraintMappers, AntiAffinitySeparatesNfs) {
  const Nffg substrate = line_substrate();
  ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"nat", "nat"}, "sap2", 10, 100);
  ASSERT_TRUE(sg.add_constraint({sg::ConstraintKind::kAntiAffinity, "nat0",
                                 "nat1", ""})
                  .ok());
  const NfCatalog cat = catalog::default_catalog();
  auto mapping = make()->map(sg, substrate, cat);
  ASSERT_TRUE(mapping.ok()) << mapping.error().to_string();
  EXPECT_NE(mapping->nf_host.at("nat0"), mapping->nf_host.at("nat1"));
  EXPECT_TRUE(verify_mapping(sg, substrate, cat, *mapping).ok());
}

TEST_P(ConstraintMappers, PinForcesHost) {
  const Nffg substrate = line_substrate();
  ServiceGraph sg = sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 100);
  ASSERT_TRUE(
      sg.add_constraint({sg::ConstraintKind::kPin, "nat0", "", "bb3"}).ok());
  auto mapping = make()->map(sg, substrate, catalog::default_catalog());
  ASSERT_TRUE(mapping.ok()) << mapping.error().to_string();
  EXPECT_EQ(mapping->nf_host.at("nat0"), "bb3");
}

TEST_P(ConstraintMappers, ForbidExcludesHost) {
  const Nffg substrate = line_substrate();
  ServiceGraph sg = sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 100);
  // bb1 would be the natural (closest) choice; forbid it.
  ASSERT_TRUE(
      sg.add_constraint({sg::ConstraintKind::kForbid, "nat0", "", "bb1"})
          .ok());
  auto mapping = make()->map(sg, substrate, catalog::default_catalog());
  ASSERT_TRUE(mapping.ok()) << mapping.error().to_string();
  EXPECT_NE(mapping->nf_host.at("nat0"), "bb1");
}

TEST_P(ConstraintMappers, ContradictoryConstraintsInfeasible) {
  const Nffg substrate = line_substrate();
  ServiceGraph sg = sg::make_chain("svc", "sap1", {"nat"}, "sap2", 10, 100);
  ASSERT_TRUE(
      sg.add_constraint({sg::ConstraintKind::kPin, "nat0", "", "bb2"}).ok());
  ASSERT_TRUE(
      sg.add_constraint({sg::ConstraintKind::kForbid, "nat0", "", "bb2"})
          .ok());
  EXPECT_FALSE(make()->map(sg, substrate, catalog::default_catalog()).ok());
}

INSTANTIATE_TEST_SUITE_P(Mappers, ConstraintMappers,
                         ::testing::Values(0, 1, 2));

TEST(Constraints, VerifierCatchesViolations) {
  const Nffg substrate = line_substrate();
  ServiceGraph sg =
      sg::make_chain("svc", "sap1", {"nat", "nat"}, "sap2", 10, 100);
  const NfCatalog cat = catalog::default_catalog();
  auto mapping = GreedyMapper().map(sg, substrate, cat);
  ASSERT_TRUE(mapping.ok());
  // Force both on the same host, then add the anti-affinity afterwards.
  Mapping tampered = *mapping;
  tampered.nf_host["nat0"] = tampered.nf_host["nat1"];
  ASSERT_TRUE(sg.add_constraint({sg::ConstraintKind::kAntiAffinity, "nat0",
                                 "nat1", ""})
                  .ok());
  EXPECT_FALSE(verify_mapping(sg, substrate, cat, tampered).ok());
}

TEST(Constraints, SurviveDecompositionRewriting) {
  const NfCatalog cat = catalog::default_catalog();
  ServiceGraph sg =
      sg::make_chain("svc", "a", {"firewall", "nat"}, "b", 10, 100);
  ASSERT_TRUE(sg.add_constraint({sg::ConstraintKind::kAntiAffinity,
                                 "firewall0", "nat1", ""})
                  .ok());
  ASSERT_TRUE(
      sg.add_constraint({sg::ConstraintKind::kForbid, "firewall0", "", "bbX"})
          .ok());
  auto applied = catalog::expand_all(sg, cat);
  ASSERT_TRUE(applied.ok());
  // The firewall decomposed into acl+state: constraints follow components.
  EXPECT_TRUE(sg.validate().empty());
  int anti = 0, forbid = 0;
  for (const sg::PlacementConstraint& c : sg.constraints()) {
    if (c.kind == sg::ConstraintKind::kAntiAffinity) ++anti;
    if (c.kind == sg::ConstraintKind::kForbid) ++forbid;
    EXPECT_NE(c.nf_a, "firewall0");
  }
  EXPECT_EQ(anti, 2);    // one per component vs nat1
  EXPECT_EQ(forbid, 2);  // one per component
}

TEST(Constraints, JsonRoundTrip) {
  ServiceGraph sg =
      sg::make_chain("svc", "a", {"nat", "dpi"}, "b", 10, 100);
  ASSERT_TRUE(sg.add_constraint({sg::ConstraintKind::kAntiAffinity, "nat0",
                                 "dpi1", ""})
                  .ok());
  ASSERT_TRUE(
      sg.add_constraint({sg::ConstraintKind::kPin, "dpi1", "", "bb9"}).ok());
  auto decoded = sg::sg_from_json_string(sg::to_json_string(sg));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(*decoded, sg);
}

TEST(Constraints, RegistrationChecks) {
  ServiceGraph sg = sg::make_chain("svc", "a", {"nat"}, "b", 10, 100);
  EXPECT_EQ(sg.add_constraint({sg::ConstraintKind::kPin, "ghost", "", "bb"})
                .error()
                .code,
            ErrorCode::kNotFound);
  EXPECT_EQ(sg.add_constraint({sg::ConstraintKind::kPin, "nat0", "", ""})
                .error()
                .code,
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(sg.add_constraint({sg::ConstraintKind::kAntiAffinity, "nat0",
                               "nat0", ""})
                .error()
                .code,
            ErrorCode::kInvalidArgument);
}

// ----------------------------------------------------------- catalog JSON

TEST(CatalogJson, DefaultCatalogRoundTrips) {
  const NfCatalog original = catalog::default_catalog();
  const auto decoded =
      catalog::catalog_from_json_string(catalog::to_json_string(original));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded->types().size(), original.types().size());
  EXPECT_EQ(decoded->decomposition_count(), original.decomposition_count());
  // A decomposition still expands correctly after the round trip.
  ServiceGraph sg = sg::make_chain("svc", "a", {"secure-gw"}, "b", 10, 100);
  auto applied = catalog::expand_all(sg, *decoded);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 2u);
}

TEST(CatalogJson, ParsesHandWrittenCatalog) {
  const char* doc = R"({
    "types": [
      {"name": "proxy", "cpu": 2, "mem": 1024, "storage": 4, "ports": 2},
      {"name": "half-proxy", "cpu": 1, "mem": 512, "storage": 2}
    ],
    "decompositions": [
      {"id": "proxy-split", "target": "proxy",
       "components": [{"suffix": "a", "type": "half-proxy"},
                      {"suffix": "b", "type": "half-proxy"}],
       "links": [{"from": "a:1", "to": "b:0", "factor": 0.5}],
       "port_map": {"0": "a:0", "1": "b:1"}}
    ]})";
  auto cat = catalog::catalog_from_json_string(doc);
  ASSERT_TRUE(cat.ok()) << cat.error().to_string();
  ASSERT_TRUE(cat->has("proxy"));
  EXPECT_EQ(cat->find("proxy")->requirement.cpu, 2);
  ASSERT_EQ(cat->decompositions_of("proxy").size(), 1u);
  const auto& rule = cat->decompositions_of("proxy")[0];
  EXPECT_EQ(rule.components.size(), 2u);
  EXPECT_EQ(rule.internal_links[0].bandwidth_factor, 0.5);
  EXPECT_EQ(rule.port_map.at(1), (model::PortRef{"b", 1}));
}

TEST(CatalogJson, RejectsMalformed) {
  EXPECT_FALSE(catalog::catalog_from_json_string("[]").ok());
  EXPECT_FALSE(catalog::catalog_from_json_string(R"({"types":3})").ok());
  // Decomposition referencing an unregistered type.
  const char* bad = R"({"types":[{"name":"a","cpu":1,"mem":1,"storage":1}],
    "decompositions":[{"id":"r","target":"a",
      "components":[{"suffix":"x","type":"ghost"}],
      "port_map":{"0":"x:0"}}]})";
  EXPECT_FALSE(catalog::catalog_from_json_string(bad).ok());
  // port_map key not a number.
  const char* bad_port = R"({"types":[{"name":"a","cpu":1,"mem":1,"storage":1},
      {"name":"b","cpu":1,"mem":1,"storage":1}],
    "decompositions":[{"id":"r","target":"a",
      "components":[{"suffix":"x","type":"b"}],
      "port_map":{"zero":"x:0"}}]})";
  EXPECT_FALSE(catalog::catalog_from_json_string(bad_port).ok());
}

}  // namespace
}  // namespace unify::mapping
